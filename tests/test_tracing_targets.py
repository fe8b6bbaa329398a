import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    # The per-layer trace rebinds each target by name; a pruned or renamed
    # function would make `perfbench/run.py --trace 1` fail at install.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, module, path, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"genlearn.{module}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: genlearn.{module}.{path} does not resolve"
            owner = getattr(owner, attr)
        assert callable(owner), name
