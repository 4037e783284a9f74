"""Smoke tests: every ``repro.*`` (sub)module imports cleanly and the
package-level docstring examples actually run (ISSUE 1 satellite)."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro


def _all_module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        names.append(info.name)
    return sorted(names)


ALL_MODULES = _all_module_names()
TOP_PACKAGES = sorted({name.split(".")[1] for name in ALL_MODULES
                       if name.count(".") >= 1})


def test_every_expected_subpackage_present():
    assert TOP_PACKAGES == ["cim", "compsoc", "core", "crypto",
                            "faults", "hades", "obs", "rtos",
                            "runtime", "soc", "tee"]


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_metrics_registry_removed():
    """Spans and PERF are the only observation stores: the metrics
    registry, its report and the facade's instrument methods are
    gone."""
    import repro.obs

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.metrics")
    for name in ("MetricsRegistry", "format_metrics"):
        assert not hasattr(repro.obs, name)
    for name in ("counter", "gauge", "histogram", "timer", "metrics",
                 "metrics_snapshot"):
        assert not hasattr(repro.obs.TELEMETRY, name)


def test_hades_quick_use_doctest():
    """The quick-use example in ``repro.hades`` must stay runnable."""
    module = importlib.import_module("repro.hades")
    results = doctest.testmod(module, verbose=False)
    assert results.attempted >= 5
    assert results.failed == 0


def test_obs_quick_use_doctest_style():
    """Run the README-style obs example end to end."""
    from repro.obs import Telemetry

    telemetry = Telemetry(enabled=True)
    with telemetry.span("my.phase", size=42) as span:
        span.set_attr("items", 1)
    (record,) = telemetry.tracer.snapshot()
    assert record["name"] == "my.phase"
    assert record["attrs"] == {"size": 42, "items": 1}


#: The only modules allowed to fold recorded PERF deltas back into the
#: counter file: the replaying memo primitive and the executor's
#: shard merge.  A hand-rolled cache replay anywhere else would make
#: counters depend on process history (see ``repro.runtime.memo``).
PERF_REPLAY_MODULES = {"repro/runtime/memo.py", "repro/runtime/capture.py"}


def _perf_replay_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("merge", "delta_since")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "PERF"]


def test_perf_replay_only_in_memo_and_shard_merge():
    src = Path(repro.__file__).resolve().parent.parent
    offenders = {}
    for path in sorted(src.glob("repro/**/*.py")):
        name = path.relative_to(src).as_posix()
        lines = _perf_replay_calls(path)
        if lines and name not in PERF_REPLAY_MODULES:
            offenders[name] = lines
    assert offenders == {}
    assert all(_perf_replay_calls(src / name)
               for name in PERF_REPLAY_MODULES)


REFERENCE_MODULE = "crypto_reference"


def _imported_modules(path, package):
    """Absolute names of every module ``path`` imports (``from x import
    y`` counts as both ``x`` and ``x.y``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_production_never_imports_reference_oracles():
    """``tests/crypto_reference.py`` holds the frozen oracles the fast
    paths are pinned to; only tests and benches may import it."""
    src = Path(repro.__file__).resolve().parent.parent
    importers = []
    for path in sorted(src.glob("repro/**/*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            module = package = ".".join(parts[:-1])
        else:
            module = ".".join(parts)
            package = ".".join(parts[:-1])
        if REFERENCE_MODULE in _imported_modules(path, package):
            importers.append(module)
    assert importers == []
    # the check sees the import forms production would use
    probe = src / "repro" / "crypto" / "hybrid.py"
    assert "repro.crypto.ed25519" in _imported_modules(probe,
                                                       "repro.crypto")


def test_reference_oracles_left_the_package():
    """The oracles live under ``tests/`` only, and the generated
    permutation they once checked is gone from ``repro.crypto.keccak``:
    production hashes run on ``hashlib``."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.crypto.reference")
    keccak = importlib.import_module("repro.crypto.keccak")
    assert not hasattr(keccak, "keccak_f1600")
    assert "repro.crypto.reference" not in ALL_MODULES


def test_crypto_has_no_fault_hooks():
    """``repro.crypto`` neither imports the fault injector nor names
    ``FAULTS``: a verdict is then a function of its input bytes, the
    premise that keeps the Ed25519 verdict memo on while faults are
    armed (``repro.crypto.ed25519.verify``)."""
    src = Path(repro.__file__).resolve().parent.parent
    offenders = []
    paths = sorted(src.glob("repro/crypto/**/*.py"))
    assert paths
    for path in paths:
        package = ".".join(path.relative_to(src).parts[:-1])
        imports_faults = any(name == "repro.faults"
                             or name.startswith("repro.faults.")
                             for name in _imported_modules(path, package))
        names_faults = any(
            isinstance(node, ast.Name) and node.id == "FAULTS"
            or isinstance(node, ast.Attribute) and node.attr == "FAULTS"
            for node in ast.walk(ast.parse(path.read_text())))
        if imports_faults or names_faults:
            offenders.append(path.name)
    assert offenders == []
    # the check sees the forms a fault hook would use
    probe = src / "repro" / "tee" / "bootrom.py"
    assert "repro.faults.injector" in _imported_modules(probe,
                                                        "repro.tee")


def test_production_never_imports_threading(tmp_path):
    """No production path starts a thread (``run_sharded`` forks
    processes), so the observability facades and memos take no locks.
    The rule reads each file's own imports: ``concurrent.futures``
    importing ``threading`` internally does not count."""
    src = Path(repro.__file__).resolve().parent.parent
    importers = []
    for path in sorted(src.glob("repro/**/*.py")):
        package = ".".join(path.relative_to(src).parts[:-1])
        if any(name == "threading" or name.startswith("threading.")
               for name in _imported_modules(path, package)):
            importers.append(path.relative_to(src).as_posix())
    assert importers == []
    # the check sees both import forms
    probe = tmp_path / "probe.py"
    probe.write_text("import threading\nfrom threading import Lock\n")
    assert {"threading", "threading.Lock"} <= _imported_modules(probe,
                                                                  "")
