"""The GGM keyed function over the DDH length-doubling generator, and query oracles.

The keyed function walks a binary tree: the key sits at the root and each
input bit (leftmost bit first) picks which half of the stretched seed
(f_p(g^b), f_p(g_a^b)) to descend into.  Seeds and outputs live in the
canonical set {1, ..., q}; the fold map ``f_p`` carries group elements
back into that set so the generator can be iterated.

Inputs are checked once, where they enter: ``ggm_walk`` checks its bits
and key, ``KeyedWalker`` only its key; an oracle leaves its query points
to the function it wraps.
Inside the walk every power of g or g_a is a residue (instances are built
only by ``generate_instance`` or ``validate_instance``), so each level
folds with ``min(y, p - y)`` instead of the Euler-checked ``f_p``.

Each level of a walk costs one modular power.  The package takes group
powers one of three ways, by how often a base recurs:

* builtin ``pow`` (square-and-multiply) in ``ggm_walk``, for every single
  walk (``prf_eval``, the oracles) and for one-off powers such as
  instance checks.
* byte rows (``_pow_rows``) in ``KeyedWalker``, for one (instance, key)
  walked many times at random inputs, as ``kgen_spec`` and ``gen_spec``
  are by ``sample``: at n = 64 a row power costs about 1.0 us against
  13-14 us for ``pow`` (3.11.7).
* fold rows in ``distributions._tree_outputs``, for exact tables, which
  walk no seed: 2q multiplications where walking each seed takes n * 2^n
  powers.

Oracle handles are stateful (query counters, memo tables) and single
owner; everything else here is pure.
"""

from __future__ import annotations

import random
from typing import Callable

from .numtheory import GroupInstance

__all__ = [
    "QueryBudgetExceeded",
    "check_bits",
    "random_bits",
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


def random_bits(rng: random.Random, n: int) -> str:
    """A uniform n-bit string from one ``getrandbits(n)`` draw; "" when n = 0."""
    return bin(rng.getrandbits(n) | 1 << n)[3:]


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
    if not isinstance(x, str) or len(x) != inst.n:
        raise ValueError(f"not a bitstring of length {inst.n}: {x!r}")
    return ggm_walk(inst, key, x)


# One pow walk against two row builds, the product's compile and one row walk
# (3.11.7): 4 vs 48 us at n = 8, 0.46 vs 0.59 ms at n = 48, 0.66 vs 0.73 ms at
# n = 56, 1.03 vs 1.02 ms at n = 64.  So specs walked once (the games at n = 8,
# key recovery up to n = 40) keep builtin pow.
_TABLES_FIRST_N = 64


def _pow_rows(p: int, base: int, width: int) -> list[list[int]]:
    """``width`` rows of 256 fixed-base powers of ``base`` mod p.

    Row k holds base**(j * 256**k) for j < 256 (Brickell, Gordon, McCurley
    and Wilson, EUROCRYPT '92), so base**e for 0 <= e < 256**width is the
    product of row k's entry at byte k of e, reduced once mod p.  A build
    costs 256 multiplications per row.
    """
    rows = []
    for _ in range(width):
        acc, row = 1, [1]
        for _ in range(255):
            acc = acc * base % p
            row.append(acc)
        rows.append(row)
        base = acc * base % p
    return rows


def _row_product(width: int) -> Callable[[list[list[int]], bytes], int]:
    """``lambda r, e: r[0][e[0]] * ... * r[width - 1][e[width - 1]]``, compiled.

    Given ``width`` rows of ``_pow_rows`` and the little-endian bytes of an
    exponent, it multiplies the row entries the bytes pick, with no C call
    per byte; the caller reduces once mod p.  The source holds integer
    indices only and compiles without builtins, as ``collections.namedtuple``
    compiles its ``__new__``.
    """
    terms = " * ".join(f"r[{k}][e[{k}]]" for k in range(width))
    return eval(f"lambda r, e: {terms}", {"__builtins__": {}})


class KeyedWalker:
    """F(key, x) for one (instance, key), for callers that walk it many times.

    The key is checked here, once.  Each input x is trusted to be an n-bit
    string, as ``DlogTable.log`` trusts its residues: callers check it
    where it enters, as ``GeneratorSpec.eval`` does every keyed spec's seed.
    Row walks take each level's power from the ``_pow_rows`` of g or of
    g_a through one ``_row_product`` of their width, the three held in
    ``tables``.  They are built together by the first walk from n =
    ``_TABLES_FIRST_N`` on; below it the first walk is ``prf_eval`` and the
    second builds them.
    """

    def __init__(self, inst: GroupInstance, key: int):
        if not 1 <= key <= inst.q:
            raise ValueError(f"seed/key {key} outside canonical range 1..{inst.q}")
        self.inst = inst
        self.key = key
        self.walks = 0
        self.tables: tuple[list[list[int]], list[list[int]], Callable[..., int]] | None = None

    def __call__(self, x: str) -> int:
        inst = self.inst
        self.walks += 1
        if self.walks == 1 and inst.n < _TABLES_FIRST_N:
            return prf_eval(inst, self.key, x)
        if self.tables is None:
            width = -(-inst.q.bit_length() // 8)
            self.tables = (_pow_rows(inst.p, inst.g, width), _pow_rows(inst.p, inst.g_a, width),
                           _row_product(width))
        p, q = inst.p, inst.q
        rows_g, rows_g_a, power = self.tables
        width = len(rows_g)
        b = self.key
        # One call of the compiled product per level, and y <= q folds as
        # min(y, p - y) without calling min: 50 walks at n = 64 cost 0.81 of
        # the time that ``math.prod`` over ``operator.getitem`` took (3.11.7).
        for ch in x:
            y = power(rows_g if ch == "0" else rows_g_a, b.to_bytes(width, "little")) % p
            b = y if y <= q else p - y
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
    """MQ-style handle: query f at chosen points, with counting and a budget.

    A query calls ``fn``, which refuses a bad point with ``ValueError``,
    then tests the budget; neither failure is counted or recorded.
    """

    def __init__(self, fn: Callable[[str], int], max_queries: int):
        self._fn = fn
        self.max_queries = max_queries
        self.count = 0
        self.queried: set[str] = set()

    def query(self, x: str) -> int:
        value = self._fn(x)
        if self.count >= self.max_queries:
            raise QueryBudgetExceeded(f"membership oracle budget {self.max_queries} exhausted")
        self.count += 1
        self.queried.add(x)
        return value


class RandomExampleOracle:
    """PEX-style handle: each draw returns (x, f(x)) with x uniform."""

    def __init__(self, fn: Callable[[str], int], n_bits: int, rng: random.Random, max_queries: int):
        self._fn = fn
        self.n_bits = n_bits
        self._rng = rng
        self.max_queries = max_queries
        self.count = 0

    def draw(self) -> tuple[str, int]:
        if self.count >= self.max_queries:
            raise QueryBudgetExceeded(f"example oracle budget {self.max_queries} exhausted")
        self.count += 1
        x = random_bits(self._rng, self.n_bits)
        return x, self._fn(x)

