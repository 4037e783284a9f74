"""The reachability ledger (``scripts/reachability.py``).

The committed ``reachability.txt`` must classify every ``def`` and
every defaulted parameter under ``src/repro``, and the recorder must
see calls the two places a naive ``sys.setprofile`` recorder misses
them: inside pytest-benchmark's ``benchmark.pedantic`` (which clears
the profile hook) and inside a forked pool worker (which leaves
through ``os._exit``).  It counts a call as production only while no
``tests/`` frame is on the stack, and a parameter as set only when it
arrives with a value other than its default.
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
    src = ROOT / "src"
    defined = {*reachability.defined_functions(src),
               *reachability.defined_parameters(src)}
    ledger = set(_ledger())
    assert sorted(defined - ledger) == []      # unclassified
    assert sorted(ledger - defined) == []      # stale


def test_ledger_tags_are_known():
    assert set(_ledger().values()) <= {"prod", "test-only", "none"}


def test_allowlist_names_defined_functions():
    src = ROOT / "src"
    defined = {*reachability.defined_functions(src),
               *reachability.defined_parameters(src)}
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

        def knob(x=1, *, y="off"):
            return x, y

        def stream(n=2):
            n = n + 1
            yield n
            yield n

        def oracle_helper():
            return 2
        """))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracle.py").write_text(textwrap.dedent("""\
        import probe

        def run():
            probe.oracle_helper()
            return probe.knob(x=2)
        """))
    return tmp_path


def _tags(probe, driver: str) -> dict:
    """Ledger tags of the probe's keys after ``driver`` runs as the one
    production driver and nothing runs as tier-1."""
    (probe / "drive.py").write_text(textwrap.dedent(driver))
    prod, tested = reachability.record(
        [({}, [sys.executable, "drive.py"], False)],
        probe / "src", probe)
    src = probe / "src"
    keys = {*reachability.defined_functions(src),
            *reachability.defined_parameters(src)}
    return reachability.tags(keys, prod, tested)


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
    seen, _ = reachability.record([({}, argv, False)], probe / "src", probe)
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
    seen, _ = reachability.record([({}, [sys.executable, "drive.py"], False)],
                                  probe / "src", probe)
    assert "probe.py:everywhere" in seen
    assert "probe.py:only_in_worker" in seen


def test_parameter_only_a_test_sets_is_test_only(probe):
    tags = _tags(probe, """\
        import sys
        sys.path.insert(0, "tests")
        import oracle, probe
        probe.knob()
        oracle.run()
        """)
    assert tags["probe.py:knob"] == "prod"
    assert tags["probe.py:knob(x=)"] == "test-only"


def test_parameter_a_driver_sets_is_prod(probe):
    tags = _tags(probe, """\
        import probe
        probe.knob(3)
        probe.knob(y="on")
        """)
    assert tags["probe.py:knob(x=)"] == "prod"
    assert tags["probe.py:knob(y=)"] == "prod"


def test_parameter_nobody_sets_is_none(probe):
    tags = _tags(probe, "import probe\nprobe.knob()\n")
    assert tags["probe.py:knob"] == "prod"
    assert tags["probe.py:knob(x=)"] == "none"
    assert tags["probe.py:knob(y=)"] == "none"
    assert tags["probe.py:everywhere"] == "none"


def test_parameter_passed_at_its_default_is_not_set(probe):
    tags = _tags(probe, """\
        import probe
        probe.knob(1, y="off")
        probe.knob(x=1)
        list(probe.stream())
        """)
    assert tags["probe.py:knob(x=)"] == "none"
    assert tags["probe.py:knob(y=)"] == "none"
    # the generator rebinds ``n`` before it resumes; only the value it
    # was called with counts
    assert tags["probe.py:stream"] == "prod"
    assert tags["probe.py:stream(n=)"] == "none"


def test_helper_only_a_tests_module_calls_is_not_prod(probe):
    tags = _tags(probe, """\
        import sys
        sys.path.insert(0, "tests")
        import oracle
        oracle.run()
        """)
    assert tags["probe.py:oracle_helper"] == "test-only"
    assert tags["probe.py:knob"] == "test-only"


def test_broken_driver_that_must_pass_refuses_the_ledger(probe):
    """A driver that exits 1 refuses the ledger when it must pass, as
    every example and tier-1 must, and not when it only reports."""
    (probe / "drive.py").write_text("import probe\nraise SystemExit(1)\n")
    argv = [sys.executable, "drive.py"]
    reachability.record([({}, argv, False)], probe / "src", probe)
    with pytest.raises(SystemExit, match="drive.py exited"):
        reachability.record([({}, argv, True)], probe / "src", probe)
    assert all(must_pass for _, argv, must_pass
               in reachability.production_drivers()
               if argv[1].startswith("examples/"))
    _, argv, must_pass = reachability.TIER_1
    assert must_pass and argv[-1] == "tests"
