"""Minimal k-means++ — the clustering engine of the phase-1 attack.

The paper implements the attack "in Python, leveraging the capabilities
of scikit-learn"; scikit-learn is not available offline, so this module
provides the one algorithm the attack needs (k-means with k-means++
seeding) on plain numpy.
"""

from __future__ import annotations

import numpy as np


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation.

    Works on data of shape ``(n_samples, n_features)``; 1-D inputs are
    promoted automatically (the attack clusters scalar mean powers).
    """

    #: Restarts per fit (the best inertia wins) and Lloyd iterations per
    #: restart; restart ``r`` draws from ``default_rng(r)``.
    N_INIT = 8
    MAX_ITER = 200

    def __init__(self, n_clusters: int):
        if n_clusters < 1:
            raise ValueError("need at least one cluster")
        self.n_clusters = n_clusters
        self.centers_ = None
        self.labels_ = None
        self.inertia_ = None

    @staticmethod
    def _as_2d(data) -> np.ndarray:
        array = np.asarray(data, dtype=float)
        if array.ndim == 1:
            array = array[:, None]
        return array

    def _init_centers(self, data: np.ndarray, rng) -> np.ndarray:
        """k-means++ seeding."""
        n = data.shape[0]
        centers = [data[rng.integers(n)]]
        for _ in range(self.n_clusters - 1):
            distances = np.min(
                [np.sum((data - c) ** 2, axis=1) for c in centers],
                axis=0)
            total = distances.sum()
            if total == 0:
                centers.append(data[rng.integers(n)])
                continue
            probabilities = distances / total
            centers.append(data[rng.choice(n, p=probabilities)])
        return np.array(centers)

    def _single_run(self, data: np.ndarray, rng) -> tuple:
        centers = self._init_centers(data, rng)
        labels = np.zeros(len(data), dtype=int)
        for _ in range(self.MAX_ITER):
            distances = np.stack(
                [np.sum((data - c) ** 2, axis=1) for c in centers])
            new_labels = np.argmin(distances, axis=0)
            if np.array_equal(new_labels, labels) and _ > 0:
                break
            labels = new_labels
            for k in range(self.n_clusters):
                members = data[labels == k]
                if len(members):
                    centers[k] = members.mean(axis=0)
        inertia = float(np.sum(
            (data - centers[labels]) ** 2))
        return centers, labels, inertia

    def fit(self, data) -> "KMeans":
        """Cluster ``data``; keeps the best of ``N_INIT`` restarts."""
        array = self._as_2d(data)
        if len(array) < self.n_clusters:
            raise ValueError("fewer samples than clusters")
        best = None
        for run in range(self.N_INIT):
            rng = np.random.default_rng(run)
            centers, labels, inertia = self._single_run(array, rng)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia)
        self.centers_, self.labels_, self.inertia_ = best
        return self
