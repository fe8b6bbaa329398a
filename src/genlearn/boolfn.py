"""Distributions built from Boolean functions, and their exact generators.

All arithmetic here is exact rational: the statements being checked are
equalities, and float comparison would weaken them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .distributions import DistTable, GeneratorSpec, bin_n, exact_table

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BoolFn",
    "gen_from_function",
    "function_table",
    "disagreement_prob",
    "padded_generator",
    "optimal_short_generator",
    "ExactGeneratorReport",
    "classify_exact_generators",
]

CLASSIFY_BUDGET = 4096  # largest function family we will enumerate outright


class BoolFn(namedtuple("BoolFn", "n table")):
    """A Boolean function on n bits, stored as its 2^n-entry truth table.

    ``table[i]`` is the output on the input with big-endian value i.  The
    constructor, ``_make`` and ``_replace`` all check the table.
    """

    __slots__ = ()

    def __new__(cls, n: int, table: str):
        if len(table) != 1 << n or any(c not in "01" for c in table):
            raise ValueError(f"truth table must be {1 << n} bits")
        return tuple.__new__(cls, (n, table))

    @classmethod
    def _make(cls, fields: Iterable) -> "BoolFn":
        return cls(*fields)

    def __call__(self, bits: str) -> str:
        if len(bits) != self.n or bits.strip("01"):
            raise ValueError(f"input {bits!r} is not a {self.n}-bit string")
        return self.table[int(bits, 2)]

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BoolFn":
        return cls(n, format(rng.getrandbits(1 << n), f"0{1 << n}b"))


def gen_from_function(c: BoolFn) -> GeneratorSpec:
    """The canonical generator x -> x || c(x)."""
    return GeneratorSpec(
        seed_bits=c.n,
        out_bits=c.n + 1,
        eval_fn=lambda x: x + c(x),
    )


def function_table(c: BoolFn) -> DistTable:
    """The induced distribution: 1/2^n on each string x || c(x)."""
    return exact_table(gen_from_function(c))


def disagreement_prob(h: BoolFn, c: BoolFn) -> Fraction:
    """Pr over uniform inputs that h and c differ, as an exact fraction."""
    import fractions
    if h.n != c.n:
        raise ValueError("function arities differ")
    hamming = sum(a != b for a, b in zip(h.table, c.table))
    return fractions.Fraction(hamming, 1 << h.n)


def padded_generator(c: BoolFn, m: int) -> GeneratorSpec:
    """Evaluate c on the n-bit prefix of an m-bit seed (m >= n); still exact."""
    if m < c.n:
        raise ValueError(f"seed width {m} below function arity {c.n}")
    return GeneratorSpec(
        seed_bits=m,
        out_bits=c.n + 1,
        eval_fn=lambda s: s[: c.n] + c(s[: c.n]),
    )


def optimal_short_generator(c: BoolFn, m: int) -> GeneratorSpec:
    """The best generator with m < n seed bits: 1/2^m on 2^m support strings.

    Ties are broken deterministically: the lexicographically first 2^m
    support strings x || c(x) are covered.  Achieves total variation
    exactly 1 - 2^(m-n) to the target, which no m-bit generator beats.
    """
    if m >= c.n:
        raise ValueError(f"seed width {m} is not short for arity {c.n}")

    def eval_fn(seed: str) -> str:
        x = seed.zfill(c.n)
        return x + c(x)

    return GeneratorSpec(seed_bits=m, out_bits=c.n + 1, eval_fn=eval_fn)


class ExactGeneratorReport(NamedTuple):
    """Outcome of enumerating every m-bit-seed generator for a target.

    A generator is identified with its output tuple over seeds in value
    order.  ``matches_characterization`` records whether the exact set
    equals {padded composed with a seed permutation}.
    """

    n: int
    m: int
    exact_functions: tuple[tuple[str, ...], ...]
    raw_permutation_count: int
    distinct_permuted_count: int
    matches_characterization: bool

    @property
    def exact_count(self) -> int:
        return len(self.exact_functions)


def classify_exact_generators(c: BoolFn, m: int) -> ExactGeneratorReport:
    """Enumerate all maps {0,1}^m -> {0,1}^(n+1) and find the exact ones.

    Feasible only for tiny (n, m): the family has (2^(n+1))^(2^m) members
    and anything past 4096 is refused.  The report compares the enumerated
    exact set against the permuted-padded family.
    """
    n = c.n
    seeds = 1 << m
    total = (1 << (n + 1)) ** seeds
    if total > CLASSIFY_BUDGET:
        raise ValueError(f"{total} candidate functions exceed the budget {CLASSIFY_BUDGET}")

    # A combo is exact iff, sorted, it is the sorted target support with each
    # string repeated seeds / 2^n times (probability 1/2^n each, nothing
    # off-support); none is when 2^n does not divide seeds.
    per_string, rest = divmod(seeds, 1 << n)
    target_support = sorted(function_table(c).support())
    want = sorted(target_support * per_string) if rest == 0 else None
    outputs = [bin_n(v, n + 1) for v in range(1 << (n + 1))]
    exact = {
        combo for combo in itertools.product(outputs, repeat=seeds) if sorted(combo) == want
    }

    padded = padded_generator(c, m) if m >= n else None
    permuted = set()
    if padded is not None:
        for images in itertools.permutations(range(seeds)):
            permuted.add(tuple(padded.eval(bin_n(images[s], m)) for s in range(seeds)))

    return ExactGeneratorReport(
        n=n,
        m=m,
        exact_functions=tuple(sorted(exact)),
        raw_permutation_count=math.factorial(seeds),
        distinct_permuted_count=len(permuted),
        matches_characterization=exact == permuted,
    )
