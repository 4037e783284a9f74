"""The reachability ledger (``scripts/reachability.py``).

The committed ``reachability.txt`` must classify every ``def`` under
``src/repro``, and the recorder must see calls the two places a naive
``sys.setprofile`` recorder misses them: inside pytest-benchmark's
``benchmark.pedantic`` (which clears the profile hook) and inside a
forked pool worker (which leaves through ``os._exit``).
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime import fork_available

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "reachability", ROOT / "scripts" / "reachability.py")
reachability = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reachability)


def _ledger() -> dict:
    """``relpath:qualname`` -> tag, from the committed ledger."""
    entries = {}
    for line in (ROOT / "reachability.txt").read_text().splitlines():
        tag, key = line.split()[:2]
        entries[key] = tag
    return entries


def test_every_function_has_a_ledger_line():
    defined = set(reachability.defined_functions(ROOT / "src"))
    ledger = set(_ledger())
    assert sorted(defined - ledger) == []      # unclassified
    assert sorted(ledger - defined) == []      # stale


def test_ledger_tags_are_known():
    assert set(_ledger().values()) <= {"prod", "test-only", "none"}


def test_allowlist_names_defined_functions():
    defined = set(reachability.defined_functions(ROOT / "src"))
    allowed = reachability.allowlist()
    assert sorted(set(allowed) - defined) == []
    assert all(reason for reason in allowed.values())


@pytest.fixture
def probe(tmp_path):
    """A one-module source tree whose functions the recorder tracks."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "probe.py").write_text(textwrap.dedent("""\
        def everywhere():
            return 0

        def only_in_pedantic():
            return 1

        def only_in_worker(state, shard):
            return shard
        """))
    return tmp_path


def test_records_calls_inside_benchmark_pedantic(probe):
    (probe / "test_probe.py").write_text(textwrap.dedent("""\
        import probe

        def test_pedantic(benchmark):
            probe.everywhere()
            benchmark.pedantic(probe.only_in_pedantic, rounds=1,
                               iterations=1)
        """))
    argv = [sys.executable, "-m", "pytest", "-q", "-p",
            "no:cacheprovider", "test_probe.py"]
    seen = reachability.record([({}, argv)], probe / "src", probe)
    assert "probe.py:everywhere" in seen
    assert "probe.py:only_in_pedantic" in seen


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_records_calls_inside_forked_workers(probe):
    (probe / "drive.py").write_text(textwrap.dedent(f"""\
        import sys
        sys.path.append({str(ROOT / "src")!r})
        import probe
        from repro.runtime.executor import run_sharded

        probe.everywhere()
        assert run_sharded(probe.only_in_worker, None, [0, 1],
                           jobs=2) == [0, 1]
        """))
    seen = reachability.record([({}, [sys.executable, "drive.py"])],
                               probe / "src", probe)
    assert "probe.py:everywhere" in seen
    assert "probe.py:only_in_worker" in seen
