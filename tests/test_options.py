import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"

# Defaulted parameters of the public API, per module.  An option stays only
# when two callers outside the tests need different values; one that is
# added or removed changes this table.
OPTIONS = {"cli.py": 2, "numtheory.py": 2, "prf.py": 1, "seeding.py": 1}


def test_option_count_per_module():
    spec = importlib.util.spec_from_file_location("tools_loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    modules = sorted((ROOT / "src" / "genlearn").glob("*.py"))
    assert modules
    counts = {path.name: loc.counts(path)[3] for path in modules}
    assert counts == {path.name: OPTIONS.get(path.name, 0) for path in modules}
