import os
from pathlib import Path

import pytest

import genlearn
from genlearn.distributions import encode_params, kgen_eval
from genlearn.numtheory import GroupInstance


@pytest.fixture
def inst7() -> GroupInstance:
    # The worked 3-bit instance used throughout: p = 7, g = 2, g_a = 4 (a = 2).
    return GroupInstance(n=3, p=7, q=3, g=2, g_a=4, a_secret=2)


def brute_log(p: int, g: int, y: int) -> int:
    """Reference discrete log: walk g, g**2, ..., g**q mod p, q = (p - 1) / 2,
    to the first power equal to y; residue 0 comes back as canonical q."""
    acc = 1
    for e in range(1, (p - 1) // 2 + 1):
        acc = acc * g % p
        if acc == y:
            return e
    raise ValueError(f"no discrete log of {y} base {g} mod {p}")


def gen_eval(inst: GroupInstance, key: int, x: str) -> str:
    """Generator output x || BIN_n(F(key, x)) || BIN_3n(params) by the
    package's own ``kgen_eval`` and ``encode_params``, not an independent
    reference: one walk from the root and one parameter encoding per call."""
    return kgen_eval(inst, key, x) + encode_params(inst)


@pytest.fixture(scope="session")
def cli_env() -> dict[str, str]:
    # Environment for `python -m genlearn` subprocesses: PYTHONPATH starts with
    # the absolute directory holding the genlearn package this process imported,
    # so subprocesses run the same code from any working directory (a relative
    # PYTHONPATH=src breaks under cwd=tmp_path) and an installed copy cannot
    # shadow it.
    package_root = str(Path(genlearn.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = package_root + (os.pathsep + inherited if inherited else "")
    return {**os.environ, "PYTHONPATH": path}
