"""Design-space exploration strategies.

Paper Section III-A: "Since the number of combinations grows rapidly
and the optimization target is not necessarily attainable via a greedy
search, HADES offers two options.  The naive approach traverses the
design space exhaustively and obtains provably optimal results.  The
smarter approach employs a heuristic strategy called *local search*."

* :class:`ExhaustiveExplorer` — streams the whole space in lane
  chunks (Table I measures this fold) and returns provable optima; a
  chunk whose lower bound cannot beat the running best is dropped
  without computing a lane.
* :class:`LocalSearchExplorer` — multi-start coordinate descent: from a
  random instantiation, every decision site is varied individually and
  improvements are kept until a fixpoint.  The paper reports perfect
  Kyber-CCA results from as few as 50 random starts in under 200 s
  versus 36 h exhaustively.

Both explorers ride the deterministic parallel executor
(:mod:`repro.runtime`): ``jobs=`` (or ``REPRO_JOBS``) shards the
exhaustive traversal by interleaved whole chunks and fans independent
local-search starts across worker processes, with per-shard
reductions merged so that the optimum and every counter total are
identical for any worker count.  Both walk the template's
:class:`~repro.hades.template.DesignIndex`: a design is an integer
rank, and sub-design metrics come from its per-context tables, so one
explorer finds the tables the other filled.  In local search a move is
integer arithmetic, and the descents of one shard share a rank table,
so each design is one top-level cost call per shard however many
starts reach it; in either explorer only an optimum becomes a
:class:`Configuration`.
:meth:`ExhaustiveExplorer.run_all_goals` scores every goal
in a single traversal instead of re-enumerating the space per goal.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass

from ..obs import TELEMETRY
from ..runtime import chunk_bounds, resolve_jobs, run_sharded, stride_shards
from .metrics import OptimizationGoal
from .template import (Configuration, DesignContext, DesignIndex,
                       EvaluatedDesign, InfeasibleConfiguration, Template,
                       enumerate_chunks)

#: An env-requested parallel exhaustive run stays serial below this
#: many configurations per worker: a worker must fold at least as long
#: as it costs to start.  Measured for Kyber-CCA on a 2-vCPU x86-64 KVM
#: guest (five runs of medians of 21-41): a two-worker fork pool starts
#: and returns in 8-12 ms, a worker builds its sub-template spaces and
#: prices its first chunk in 6-12 ms (measured when it rebuilt them as
#: design lists; filling the sub-design tables it inherits empty costs
#: no more), and the serial pruned AREA fold takes 0.019-0.039 us per
#: design, so about 20 ms / 0.025 us is 800k configurations.  Directly,
#: a two-worker AREA fold (574k configurations each) took 50 ms against
#: 25-33 ms serial.
MIN_CONFIGS_PER_JOB = 800_000

#: Likewise for local search: every worker gets at least this many
#: independent random starts.
MIN_STARTS_PER_JOB = 2


@dataclass
class ExplorationResult:
    """Outcome of one DSE run."""

    template_name: str
    goal: OptimizationGoal
    best: EvaluatedDesign
    explored: int               # design points visited (Table I column)
    feasible: int               # points that produced a valid prediction
    # Local search: the distinct designs each descent visited, summed
    # over descents (a design two descents reach counts twice, though
    # its shard prices it once).
    # Exhaustive: the feasible designs a top-level cost call covered,
    # computed lanes or not, so it equals ``feasible``.
    evaluations: int
    elapsed_seconds: float
    jobs: int = 1               # worker processes the run fanned over

    @property
    def best_score(self) -> float:
        return self.goal.score(self.best.metrics)


def _rank_key(chunk, scores, lane: int) -> tuple:
    """The total order every exhaustive reduction ranks by: the goal
    score, tie-broken by area-latency product, then area ("optimized
    towards one or more optimization goals"), then rank — so shard
    merges reproduce serial first-encounter wins."""
    metrics = chunk.metrics
    area = metrics.area_kge.lanes[lane]
    return (scores[lane], area * metrics.latency_cc.lanes[lane], area,
            chunk.rank(lane))


class _GoalReduction:
    """Streaming best-design reduction for one goal on one shard.

    A chunk is first judged by its score column's ``floor``, a lower
    bound of its lanes computed without them: a chunk whose floor is
    above the running best cannot hold a better design and is dropped
    before any lane is computed.  Where the floor ties the best score,
    the floors of the area-latency product and of the area bound the
    rest of the rank key, so a chunk of all-equal scores (every
    randomness score is 0 when unmasked) is dropped the same way.  A
    chunk still in the running is folded by taking the minimum of its
    score lanes and ranking only the lanes that tie with it; only a
    design that becomes the best is materialised.  Pruning skips only
    lanes proven to lose, so the optimum is the full traversal's.
    Shard dumps are plain ``(best_key, best)`` tuples that pickle and
    merge commutatively.
    """

    __slots__ = ("goal", "best_key", "best")

    def __init__(self, goal: OptimizationGoal):
        self.goal = goal
        self.best_key = None
        self.best = None

    def fold(self, chunk) -> None:
        score = self.goal.score(chunk.metrics)
        best_key = self.best_key
        if best_key is not None:
            floor = score.floor
            if floor > best_key[0]:
                return
            if floor == best_key[0]:
                # Componentwise floors bound the key lexicographically,
                # and a later lane of this shard has a larger rank.
                area = chunk.metrics.area_kge
                if (floor, (area * chunk.metrics.latency_cc).floor,
                        area.floor) > best_key[:3]:
                    return
        scores = score.lanes
        low = min(scores)
        if best_key is not None and low > best_key[0]:
            return
        key, lane = min((_rank_key(chunk, scores, lane), lane)
                        for lane, score in enumerate(scores)
                        if score == low)
        if self.best_key is None or key < self.best_key:
            self.best_key, self.best = key, chunk.design(lane)

    def dump(self) -> tuple:
        return self.best_key, self.best


def _exhaustive_shard(state, shard) -> tuple:
    """Reduce one shard of whole chunks, interleaved, of the full space.

    Runs in a pool worker (or inline when serial); everything it
    returns is plain data, and the union of all shards is exactly the
    serial stream, so the merged result is provably the serial one.
    """
    template, context, goals = state
    feasible = 0
    reductions = [_GoalReduction(goal) for goal in goals]
    for chunk in enumerate_chunks(template, context, shard=shard):
        feasible += len(chunk.positions)
        for reduction in reductions:
            reduction.fold(chunk)
    return feasible, [reduction.dump() for reduction in reductions]


def _merge_goal(outputs: list, position: int):
    """Merge one goal's per-shard reductions: the minimum by rank
    key."""
    best_key = best = None
    for _, dumps in outputs:
        shard_key, shard_best = dumps[position]
        if shard_key is not None and \
                (best_key is None or shard_key < best_key):
            best_key, best = shard_key, shard_best
    return best


class ExhaustiveExplorer:
    """Provably optimal DSE over the whole space (the paper's naive
    mode): every design is enumerated and counted, and lanes are
    computed for the chunks that can still hold the optimum."""

    def __init__(self, template: Template,
                 context: DesignContext = DesignContext()):
        self.template = template
        self.context = context

    def run(self, goal: OptimizationGoal,
            jobs: int = None) -> ExplorationResult:
        """Traverse the entire space and return the optimum for ``goal``.

        ``jobs`` > 1 shards the traversal across worker processes with
        an identical result (serial is the default; ``REPRO_JOBS``
        applies when ``jobs`` is omitted).
        """
        with TELEMETRY.span("hades.exhaustive.run",
                            template=self.template.name,
                            goal=goal.name) as span:
            return self._run_goals((goal,), jobs, span)[goal]

    def run_all_goals(self, jobs: int = None) -> dict:
        """One *shared* traversal scoring every goal at once (the
        masking goals only under masking); returns
        ``{goal: ExplorationResult}``.

        Each chunk is enumerated and priced by one cost call — the
        per-goal reductions all consume the same stream and share its
        lane columns and floors — instead of re-traversing the full
        space once per goal.
        """
        goals = tuple(goal for goal in OptimizationGoal
                      if self.context.masking_order or
                      not goal.needs_masking)
        with TELEMETRY.span("hades.exhaustive.run_all_goals",
                            template=self.template.name,
                            goals=len(goals)) as span:
            return self._run_goals(goals, jobs, span)

    def _run_goals(self, goals: tuple, jobs: int, span) -> dict:
        started = time.perf_counter()
        total = self.template.count_configurations()
        jobs = resolve_jobs(jobs, work=total,
                            min_work_per_job=MIN_CONFIGS_PER_JOB)
        outputs = run_sharded(
            _exhaustive_shard, (self.template, self.context, goals),
            stride_shards(jobs), jobs=jobs)
        feasible = sum(shard_feasible for shard_feasible, _ in outputs)
        if feasible == 0:
            raise InfeasibleConfiguration(
                f"no feasible design for {self.template.name} in "
                f"{self.context}")
        elapsed = time.perf_counter() - started
        if TELEMETRY.enabled:
            span.set_attr("explored", total)
            span.set_attr("feasible", feasible)
            span.set_attr("jobs", jobs)
        results = {}
        for position, goal in enumerate(goals):
            results[goal] = ExplorationResult(
                template_name=self.template.name, goal=goal,
                best=_merge_goal(outputs, position), explored=total,
                feasible=feasible, evaluations=feasible,
                elapsed_seconds=elapsed, jobs=jobs)
        return results


def pareto_front(designs) -> list:
    """The non-dominated designs over (area, latency, randomness).

    The paper's output is "a small set of implementations optimized
    towards one or more optimization goals" — the Pareto front is that
    set in one shot: every design not strictly worse than another in
    all objectives.

    Single pass over the objective-sorted designs with a latency /
    randomness staircase, O(n log n): a candidate is dominated exactly
    when some already-kept point has latency and randomness no larger
    (its area is no larger by sort order), and kept points maintain
    latencies strictly ascending with randomness strictly descending so
    that one bisect answers the query.  Designs with identical
    objective vectors are all kept, matching the historical O(n^2)
    sweep bit for bit (the property test pins the equivalence).
    """
    def key(design):
        metrics = design.metrics
        return (metrics.area_kge, metrics.latency_cc,
                metrics.randomness_bits)

    candidates = sorted(designs, key=key)
    front = []
    lats, rands = [], []          # the kept-point staircase
    index, total = 0, len(candidates)
    while index < total:
        design_key = key(candidates[index])
        group_end = index
        while group_end < total and \
                key(candidates[group_end]) == design_key:
            group_end += 1
        latency = design_key[1]
        randomness = design_key[2]
        # Rightmost kept latency <= ours carries the smallest
        # randomness among all kept points at or below our latency.
        pos = bisect.bisect_right(lats, latency)
        dominated = pos > 0 and rands[pos - 1] <= randomness
        if not dominated:
            front.extend(candidates[index:group_end])
            insert = bisect.bisect_left(lats, latency)
            cut = insert
            while cut < len(lats) and rands[cut] >= randomness:
                cut += 1          # staircase points we now dominate
            lats[insert:cut] = [latency]
            rands[insert:cut] = [randomness]
        index = group_end
    return front


def neighbours(template: Template, config: Configuration):
    """All single-decision variations of ``config`` (the paper: "all
    parameters are varied individually instead of jointly"), in
    :meth:`DesignIndex.neighbours` order."""
    index = template.design_index
    return map(index.configuration, index.neighbours(index.rank_of(config)))


def _descend(index: DesignIndex, price, priced: dict, rank: int,
             goal: OptimizationGoal) -> tuple:
    """Coordinate descent over ranks to a local optimum; returns
    ``(rank, metrics, evaluations, cache_hits)``.  Metrics are read
    through ``priced``, the shard's ``{rank: Metrics | None}`` table, and
    a rank missing from it is priced by one ``price(rank)`` call.  The
    evaluations are the distinct ranks this descent visited and the
    cache hits its repeat visits, whichever descent priced them."""
    visited = set()
    hits = 0

    def evaluate(rank):
        nonlocal hits
        if rank in visited:
            hits += 1
        else:
            visited.add(rank)
            if rank not in priced:
                priced[rank] = price(rank)
        return priced[rank]

    metrics = evaluate(rank)
    if metrics is None:
        # A random start may be infeasible (e.g. LUT S-box while
        # masked): step to the first feasible neighbour.
        for rank in index.neighbours(rank):
            metrics = evaluate(rank)
            if metrics is not None:
                break
        else:
            return None, None, len(visited), hits
    score = goal.score(metrics)
    while True:
        best_neighbour = None
        for candidate in index.neighbours(rank):
            candidate_metrics = evaluate(candidate)
            if candidate_metrics is None:
                continue
            candidate_score = goal.score(candidate_metrics)
            if candidate_score < score:
                best_neighbour = (candidate, candidate_metrics)
                score = candidate_score
        if best_neighbour is None:
            return rank, metrics, len(visited), hits
        rank, metrics = best_neighbour


def _local_search_shard(state, bounds) -> tuple:
    """Run one contiguous block of independent random starts.  Its
    descents share one pricer and one rank table, so each rank is
    priced once per shard; the table dies with the shard."""
    template, context, goal, start_configs = state
    index = template.design_index
    price, priced = index.pricer(context), {}
    lo, hi = bounds
    results = []
    for start in range(lo, hi):
        with TELEMETRY.span("hades.local_search.descent", start=start):
            rank, metrics, evaluations, hits = _descend(
                index, price, priced, index.rank_of(start_configs[start]),
                goal)
        config = None if rank is None else index.configuration(rank)
        results.append((start, config, metrics, evaluations, hits))
    return results


class LocalSearchExplorer:
    """Multi-start coordinate-descent DSE (the paper's heuristic mode)."""

    def __init__(self, template: Template,
                 context: DesignContext = DesignContext(),
                 seed: int = 0):
        self.template = template
        self.context = context
        self.seed = seed

    def run(self, goal: OptimizationGoal, starts: int = 50,
            jobs: int = None) -> ExplorationResult:
        """Run ``starts`` random performance baselines (paper: "we obtain
        perfect results for Kyber-CCA for as few as 50 random
        performance base-lines").

        Every start is pre-drawn in the parent process from the single
        seeded stream — the exact historical serial sequence — so
        starts become independent work items the executor fans across
        ``jobs`` workers with an identical best-by-(score, start index)
        merge for any worker count.
        """
        with TELEMETRY.span("hades.local_search.run",
                            template=self.template.name,
                            goal=goal.name, starts=starts) as span:
            started = time.perf_counter()
            rng = random.Random(self.seed)
            start_configs = [self.template.random_configuration(rng)
                             for _ in range(starts)]
            jobs = resolve_jobs(jobs, work=starts,
                                min_work_per_job=MIN_STARTS_PER_JOB)
            outputs = run_sharded(
                _local_search_shard,
                (self.template, self.context, goal, start_configs),
                chunk_bounds(starts, jobs), jobs=jobs)
            best = None
            best_rank = None
            feasible = 0
            total_evaluations = 0
            cache_hits = 0
            for shard in outputs:
                for index, config, metrics, evaluations, hits in shard:
                    total_evaluations += evaluations
                    cache_hits += hits
                    if config is None:
                        continue
                    feasible += 1
                    rank = (goal.score(metrics), index)
                    if best_rank is None or rank < best_rank:
                        best = EvaluatedDesign(config, metrics)
                        best_rank = rank
            if best is None:
                raise InfeasibleConfiguration(
                    f"no feasible local optimum found for "
                    f"{self.template.name}")
            elapsed = time.perf_counter() - started
            if TELEMETRY.enabled:
                span.set_attr("evaluations", total_evaluations)
                span.set_attr("cache_hits", cache_hits)
                span.set_attr("jobs", jobs)
            return ExplorationResult(
                template_name=self.template.name, goal=goal, best=best,
                explored=total_evaluations, feasible=feasible,
                evaluations=total_evaluations, elapsed_seconds=elapsed,
                jobs=jobs)
