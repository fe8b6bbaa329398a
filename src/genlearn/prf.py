"""The GGM keyed function over the DDH length-doubling generator, and query oracles.

The keyed function walks a binary tree: the key sits at the root and each
input bit (leftmost bit first) picks which half of the stretched seed
(f_p(g^b), f_p(g_a^b)) to descend into.  Seeds and outputs live in the
canonical set {1, ..., q}; the fold map ``f_p`` carries group elements
back into that set so the generator can be iterated.

Inputs are checked once, where they enter: ``ggm_walk`` checks its bits
and key, the oracles their query points.  Inside the walk every power of
g or g_a is a residue (instances are built only by ``generate_instance``
or ``validate_instance``), so each level folds with ``min(y, p - y)``
instead of the Euler-checked ``f_p``.

Each level of a walk costs one modular power.  The package takes group
powers one of three ways, by how often a base recurs:

* builtin ``pow`` (square-and-multiply) in ``ggm_walk``, for every single
  walk: ``prf_eval``, the oracles, and any function evaluated once, such
  as the spec the games' reduction learner returns; also for one-off
  powers such as instance checks.  Building tables there would cost more
  than the walk saves.
* ``numtheory.PowTable`` in ``KeyedWalker``, for one (instance, key)
  walked many times at random inputs, as ``kgen_spec`` and ``gen_spec``
  are by ``sample``.  Its first walk is ``prf_eval``; its second builds a
  table for g and one for g_a, and every later level is a table power (at
  n = 64, about 3.4 us against 22 us for ``pow``).
* fold rows in ``distributions``, for exact tables, which walk no seed:
  one row per base holds the folded powers of every seed b in 1..q, one
  multiplication each, and the tree is expanded level by level by lookups
  in them: 2q multiplications where walking each seed takes n * 2^n powers.

Oracle handles are stateful (query counters, memo tables) and single
owner; everything else here is pure.
"""

from __future__ import annotations

import random
from typing import Callable

from .numtheory import GroupInstance, PowTable

__all__ = [
    "QueryBudgetExceeded",
    "check_bits",
    "ggm_walk",
    "prf_eval",
    "KeyedWalker",
    "LazyRandomFunction",
    "MembershipOracle",
    "RandomExampleOracle",
]


class QueryBudgetExceeded(RuntimeError):
    """An oracle was queried beyond its configured budget."""


def check_bits(bits: str, length: int | None = None) -> None:
    """Validate an ASCII bitstring, optionally of a required length."""
    if not isinstance(bits, str) or bits.strip("01"):
        raise ValueError(f"not a bitstring: {bits!r}")
    if length is not None and len(bits) != length:
        raise ValueError(f"bitstring {bits!r} has length {len(bits)}, expected {length}")


def ggm_walk(inst: GroupInstance, key: int, bits: str) -> int:
    """Walk the GGM tree from ``key`` along ``bits`` (any length, left first).

    A one-bit walk is one half of the length-doubling generator:
    ``ggm_walk(inst, b, "0")`` is f_p(g^b) and ``"1"`` gives f_p(g_a^b).
    """
    check_bits(bits)
    if not 1 <= key <= inst.q:
        raise ValueError(f"seed/key {key} outside canonical range 1..{inst.q}")
    p, g, g_a = inst.p, inst.g, inst.g_a
    b = key
    for ch in bits:
        y = pow(g if ch == "0" else g_a, b, p)
        b = min(y, p - y)
    return b


def prf_eval(inst: GroupInstance, key: int, x: str) -> int:
    """The keyed function F(key, x) for an n-bit input x; output in {1, ..., q}."""
    if len(x) != inst.n:
        raise ValueError(f"bitstring {x!r} has length {len(x)}, expected {inst.n}")
    return ggm_walk(inst, key, x)


class KeyedWalker:
    """F(key, x) for one (instance, key), for callers that walk it many times.

    The first walk is ``prf_eval``, with builtin ``pow`` and nothing built,
    so a function evaluated once costs no more than a single walk.  The
    second builds one ``PowTable`` for g and one for g_a, and it and every
    later walk take each level's power from them.
    """

    def __init__(self, inst: GroupInstance, key: int):
        self.inst = inst
        self.key = key
        self.walks = 0
        self.tables: tuple[PowTable, PowTable] | None = None

    def __call__(self, x: str) -> int:
        inst = self.inst
        if self.walks == 0:
            value = prf_eval(inst, self.key, x)
            self.walks = 1
            return value
        # The first walk checked the key; each input is still checked.
        check_bits(x, inst.n)
        if self.tables is None:
            e_bits = inst.q.bit_length()
            self.tables = (PowTable(inst.p, inst.g, e_bits), PowTable(inst.p, inst.g_a, e_bits))
        self.walks += 1
        p = inst.p
        pow_g, pow_g_a = self.tables[0].pow, self.tables[1].pow
        b = self.key
        for ch in x:
            y = pow_g(b) if ch == "0" else pow_g_a(b)
            b = min(y, p - y)
        return b


class LazyRandomFunction:
    """A uniformly random function {0,1}^n -> {1, ..., q}, memoized.

    Values are drawn on first query and cached, which is distributionally
    identical to pre-tabulating the full function but works for domains of
    size 2^n.
    """

    def __init__(self, n_bits: int, q: int, rng: random.Random):
        self.n_bits = n_bits
        self.q = q
        self.table: dict[str, int] = {}
        self._rng = rng

    def __call__(self, x: str) -> int:
        check_bits(x, self.n_bits)
        if x not in self.table:
            self.table[x] = self._rng.randint(1, self.q)
        return self.table[x]


class MembershipOracle:
    """MQ-style handle: query f at chosen points, with counting and a budget."""

    def __init__(self, fn: Callable[[str], int], n_bits: int, max_queries: int | None = None):
        self._fn = fn
        self.n_bits = n_bits
        self.max_queries = max_queries
        self.count = 0
        self.queried: set[str] = set()

    def query(self, x: str) -> int:
        check_bits(x, self.n_bits)
        if self.max_queries is not None and self.count >= self.max_queries:
            raise QueryBudgetExceeded(f"membership oracle budget {self.max_queries} exhausted")
        self.count += 1
        value = self._fn(x)
        self.queried.add(x)
        return value


class RandomExampleOracle:
    """PEX-style handle: each draw returns (x, f(x)) with x uniform."""

    def __init__(
        self,
        fn: Callable[[str], int],
        n_bits: int,
        rng: random.Random,
        max_queries: int | None = None,
    ):
        self._fn = fn
        self.n_bits = n_bits
        self._rng = rng
        self.max_queries = max_queries
        self.count = 0

    def draw(self) -> tuple[str, int]:
        if self.max_queries is not None and self.count >= self.max_queries:
            raise QueryBudgetExceeded(f"example oracle budget {self.max_queries} exhausted")
        self.count += 1
        x = format(self._rng.getrandbits(self.n_bits), f"0{self.n_bits}b")
        return x, self._fn(x)

