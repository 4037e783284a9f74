"""Prometheus text exposition of the observability state.

ROADMAP item 1 wants the attestation service's sustained
verifications/s watchable live; the lingua franca for that is the
Prometheus text format (one ``name{labels} value`` sample per line,
``# TYPE`` metadata per family).  This module renders the repo's three
observability surfaces into that format, with zero dependencies:

* the :class:`~repro.obs.metrics.MetricsRegistry` snapshot — counters
  and gauges as themselves, stored-sample histograms as Prometheus
  *summaries* (``{quantile="0.5"}`` / ``_sum`` / ``_count``);
* the :data:`~repro.obs.perf.PERF` counter file — one
  ``repro_perf_events_total{event="..."}`` family, so every
  architectural event is a label, not a metric-name explosion;
* a :class:`~repro.obs.coverage.CoverageMap` export — per-group
  distinct-signature and observation gauges;
* an audit-ledger summary (:func:`~repro.obs.audit.
  summarize_records`) — ``repro_audit_events_total`` by subsystem and
  severity plus ``repro_detections_total`` by detector.

:func:`render` composes any subset; :func:`parse_exposition` is a
strict validating parser used by the tests and
``scripts/obs_export.py --check`` so "valid Prometheus text" is a
checked property, not a hope.
"""

from __future__ import annotations

import re

#: Prometheus metric names: letters, digits, underscores, colons.
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$")
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')

#: Quantiles exposed for histogram summaries (matches the registry's
#: snapshot percentiles).
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def sanitize_name(name: str, prefix: str = "repro") -> str:
    """A dot-namespaced repo metric name as a Prometheus name."""
    flat = _NAME_OK.sub("_", name)
    if prefix:
        flat = f"{prefix}_{flat}"
    if not _NAME_RE.match(flat):
        flat = f"_{flat}"
    return flat


def escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def format_value(value) -> str:
    """Sample values: integers stay integral, floats keep full repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and \
            abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def render_metrics(snapshot: dict, prefix: str = "repro") -> list:
    """Exposition lines for a metrics-registry snapshot dict."""
    lines = []
    for name in sorted(snapshot or {}):
        entry = snapshot[name]
        kind = entry.get("type")
        flat = sanitize_name(name, prefix)
        if kind == "counter":
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {format_value(entry.get('value', 0))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {flat} gauge")
            lines.append(f"{flat} {format_value(entry.get('value', 0))}")
        elif kind == "histogram":
            lines.append(f"# TYPE {flat} summary")
            count = entry.get("count", 0)
            for quantile, key in _QUANTILES:
                if key in entry:
                    lines.append(
                        f'{flat}{{quantile="{quantile}"}} '
                        f"{format_value(entry[key])}")
            lines.append(f"{flat}_sum "
                         f"{format_value(entry.get('sum', 0))}")
            lines.append(f"{flat}_count {format_value(count)}")
    return lines


def render_perf(counts: dict, prefix: str = "repro") -> list:
    """Exposition lines for a perf-counter snapshot: one family, one
    sample per architectural event."""
    family = sanitize_name("perf_events_total", prefix)
    lines = [f"# TYPE {family} counter"]
    for event in sorted(counts or {}):
        lines.append(f'{family}{{event="{escape_label(event)}"}} '
                     f"{format_value(counts[event])}")
    return lines


def render_coverage(payload: dict, prefix: str = "repro") -> list:
    """Exposition lines for an exported coverage map dict."""
    distinct = sanitize_name("coverage_distinct", prefix)
    observed = sanitize_name("coverage_observations_total", prefix)
    name = escape_label(payload.get("name", "coverage"))
    lines = [f"# TYPE {distinct} gauge", f"# TYPE {observed} counter"]
    groups = payload.get("groups") or {}
    for group in sorted(groups):
        entry = groups[group]
        labels = f'map="{name}",group="{escape_label(group)}"'
        lines.append(f"{distinct}{{{labels}}} "
                     f"{format_value(entry.get('distinct', 0))}")
        lines.append(f"{observed}{{{labels}}} "
                     f"{format_value(entry.get('observations', 0))}")
    return lines


def render_corpus(payload: dict, prefix: str = "repro") -> list:
    """Exposition lines for an adversary corpus artifact (the
    replayable keeper set written by the adversary campaign): corpus
    size per family and outcome, so a scrape shows at a glance where
    coverage-novel behaviour is accumulating."""
    entries_name = sanitize_name("adversary_corpus_entries", prefix)
    name = escape_label(payload.get("name", "adversary-corpus"))
    counts = {}
    for entry in payload.get("entries") or ():
        key = (str(entry.get("family", "unknown")),
               str(entry.get("outcome", "unknown")))
        counts[key] = counts.get(key, 0) + 1
    lines = [f"# TYPE {entries_name} gauge"]
    for (family, outcome), count in sorted(counts.items()):
        labels = (f'corpus="{name}",family="{escape_label(family)}",'
                  f'outcome="{escape_label(outcome)}"')
        lines.append(f"{entries_name}{{{labels}}} "
                     f"{format_value(count)}")
    return lines


def render_audit(payload: dict, prefix: str = "repro") -> list:
    """Exposition lines for an audit-ledger summary dict (the
    :func:`~repro.obs.audit.summarize_records` shape): event tallies
    by subsystem and severity, plus detection tallies by detector."""
    events_name = sanitize_name("audit_events_total", prefix)
    detections_name = sanitize_name("detections_total", prefix)
    ledger = escape_label(payload.get("name", "audit"))
    lines = [f"# TYPE {events_name} counter"]
    by_subsystem = payload.get("by_subsystem") or {}
    for subsystem in sorted(by_subsystem):
        severities = by_subsystem[subsystem] or {}
        for severity in sorted(severities):
            labels = (f'ledger="{ledger}",'
                      f'subsystem="{escape_label(subsystem)}",'
                      f'severity="{escape_label(severity)}"')
            lines.append(f"{events_name}{{{labels}}} "
                         f"{format_value(severities[severity])}")
    detections = payload.get("detections") or {}
    lines.append(f"# TYPE {detections_name} counter")
    for detector in sorted(detections):
        labels = (f'ledger="{ledger}",'
                  f'detector="{escape_label(detector)}"')
        lines.append(f"{detections_name}{{{labels}}} "
                     f"{format_value(detections[detector])}")
    return lines


def render(metrics: dict = None, perf: dict = None,
           coverage=None, corpus=None, audit=None,
           prefix: str = "repro") -> str:
    """One exposition document from any subset of surfaces.

    ``coverage``, ``corpus`` and ``audit`` accept a single exported
    dict or an iterable of them.  The document ends with a newline, as
    scrapers require.
    """
    lines = []
    if metrics:
        lines.extend(render_metrics(metrics, prefix))
    if perf:
        lines.extend(render_perf(perf, prefix))
    if coverage:
        payloads = [coverage] if isinstance(coverage, dict) \
            else list(coverage)
        for payload in payloads:
            lines.extend(render_coverage(payload, prefix))
    if corpus:
        payloads = [corpus] if isinstance(corpus, dict) \
            else list(corpus)
        for payload in payloads:
            lines.extend(render_corpus(payload, prefix))
    if audit:
        payloads = [audit] if isinstance(audit, dict) \
            else list(audit)
        for payload in payloads:
            lines.extend(render_audit(payload, prefix))
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> dict:
    """Strictly parse an exposition document back into
    ``{metric name: [(labels dict, float value), ...]}``.

    Raises :class:`ValueError` on any malformed line — the validation
    backstop behind ``scripts/obs_export.py --check`` and the tests.
    """
    samples = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {number}: unknown comment "
                                 f"keyword {parts[1]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {number}: malformed sample "
                             f"{line!r}")
        labels = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_RE.finditer(raw):
                labels[pair.group("key")] = pair.group("value")
                consumed = pair.end()
            if raw[consumed:].strip(", "):
                raise ValueError(f"line {number}: malformed labels "
                                 f"{raw!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(f"line {number}: malformed value "
                             f"{match.group('value')!r}")
        samples.setdefault(match.group("name"), []).append(
            (labels, value))
    return samples
