"""JSONL trace persistence: write, read, round-trip.

One JSON object per line, keys as produced by
:meth:`repro.obs.tracer.Span.to_record`.  Non-JSON-native values inside
``attrs`` (numpy scalars, enums, ...) are stringified rather than
rejected, so instrumentation never crashes the instrumented code.

All artifact writes here are *atomic* (temp file + ``os.replace`` in
the destination directory): an interrupted bench run leaves either the
previous artifact or the new one, never a truncated file.
"""

from __future__ import annotations

import json
import os
import pathlib

from .tracer import Span


def atomic_write_text(path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically (same-directory temp file
    renamed over the destination, so readers never see a truncation)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def write_jsonl(records: list, path) -> pathlib.Path:
    """Persist record dicts (or :class:`Span` objects) as JSONL
    (atomically: the file appears complete or not at all)."""
    lines = []
    for record in records:
        if isinstance(record, Span):
            record = record.to_record()
        lines.append(json.dumps(record, default=str))
    return atomic_write_text(path,
                             "".join(line + "\n" for line in lines))


def read_jsonl(path) -> list:
    """Load a JSONL trace back into record dicts (blank lines skipped)."""
    path = pathlib.Path(path)
    records = []
    with path.open() as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

