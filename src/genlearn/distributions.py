"""Distribution concept classes, exact probability tables, and distances.

Bitstrings are plain Python strings of '0'/'1', big-endian: ``bin_n(6, 4)``
is ``"0110"`` and the leftmost character is the first bit a generator or
keyed function consumes.  A generator is a deterministic map from m seed
bits to output bits; the distribution it induces weights each output y by
the fraction of seeds mapped to y.

The identity checks in :mod:`genlearn.boolfn` rely on ``exact_table``'s
``Fraction`` entries.  How ``kgen_spec`` and ``gen_spec`` list their
outputs and walk single seeds is described once, in :mod:`genlearn.prf`.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, NamedTuple

from .numtheory import GroupInstance
from .prf import KeyedWalker, check_bits, prf_eval, random_bits

__all__ = [
    "bin_n",
    "GeneratorSpec",
    "encode_params",
    "decode_params",
    "kgen_eval",
    "kgen_spec",
    "gen_spec",
    "uniform_spec",
    "SampleOracle",
    "DistTable",
    "exact_table",
    "kl_divergence",
    "tv_distance",
    "write_samples",
    "read_samples",
]

ENUMERATION_LIMIT = 20  # hard budget for exhaustive seed enumeration


def bin_n(value: int, width: int) -> str:
    """Big-endian ``width``-bit encoding of a non-negative integer."""
    if width < 1:
        raise ValueError("width must be positive")
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >= 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


class GeneratorSpec(NamedTuple):
    """Executable description of a classical generator.

    ``eval_fn`` must be total on {0,1}^seed_bits and produce strings of
    exactly ``out_bits`` bits; ``eval`` and ``outputs`` check every string
    it returns.  ``outputs_fn``, if given, is the package's own listing of
    the same outputs by a faster route (the keyed specs' GGM tree), trusted
    as built.
    """

    seed_bits: int
    out_bits: int
    eval_fn: Callable[[str], str]
    outputs_fn: Callable[[], Iterable[str]] | None = None

    def eval(self, seed: str) -> str:
        check_bits(seed, self.seed_bits)
        return self._output(seed)

    def _output(self, seed: str) -> str:
        out = self.eval_fn(seed)
        check_bits(out, self.out_bits)
        return out

    def outputs(self) -> Iterable[str]:
        """Every output, seeds in ascending order; at most 2^20 seeds.

        Each output of ``eval_fn`` is checked as it is drawn, so the first
        bad one in seed order raises ``check_bits``' error.
        """
        m = self.seed_bits
        if m > ENUMERATION_LIMIT:
            raise ValueError(f"seed space 2^{m} exceeds the 2^{ENUMERATION_LIMIT} enumeration budget")
        if self.outputs_fn is not None:
            return self.outputs_fn()
        # bin(2^m + v)[3:] is v in m bits, and "" for the one seed of m = 0.
        return map(self._output, (bin(v)[3:] for v in range(1 << m, 2 << m)))


def encode_params(inst: GroupInstance) -> str:
    """Fixed-width parameter encoding BIN_n(p) || BIN_n(g) || BIN_n(g_a)."""
    n = inst.n
    return bin_n(inst.p, n) + bin_n(inst.g, n) + bin_n(inst.g_a, n)


def decode_params(bits: str) -> tuple[int, int, int]:
    """Split a 3n-bit parameter suffix back into (p, g, g_a)."""
    check_bits(bits)
    if len(bits) % 3 != 0 or not bits:
        raise ValueError(f"parameter encoding length {len(bits)} is not a multiple of 3")
    n = len(bits) // 3
    return int(bits[:n], 2), int(bits[n : 2 * n], 2), int(bits[2 * n :], 2)


def kgen_eval(inst: GroupInstance, key: int, x: str) -> str:
    """x || BIN_n(F(key, x)); output length 2n."""
    return x + bin_n(prf_eval(inst, key, x), inst.n)


def _tree_outputs(inst: GroupInstance, key: int, suffix: str) -> Iterable[str]:
    """Every x || BIN_n(F(key, x)) || suffix, x ascending, one tree level at a time.

    Each node b in 1..q has children fold(g^b) and fold(g_a^b) (residues, so
    ``y if y <= q else p - y`` folds them), looked up in two rows of one
    multiplication per entry.  Level j lists the j-bit prefixes in order,
    0-child first.  Each output is ``bin(1 << 2n | x << n | F(x))[3:] +
    suffix``, made by C-level ``map``s over the leaf level as the caller
    draws it: no Python step per leaf, and no list of all 2^n outputs.
    The rows go on return; the leaf level, 2^n ints, stays with the stream.
    """
    n, p, q = inst.n, inst.p, inst.q
    rows = [], []
    for row, base in zip(rows, (inst.g, inst.g_a)):
        y = 1
        for _ in range(q + 1):
            row.append(y if y <= q else p - y)
            y = y * base % p
    level = [key]
    for _ in range(n):
        parents, level = level, [0] * (2 * len(level))
        level[0::2] = map(rows[0].__getitem__, parents)
        level[1::2] = map(rows[1].__getitem__, parents)
    top = 1 << 2 * n
    heads = map(bin, map(operator.add, range(top, 2 * top, 1 << n), level))
    return map(operator.add, map(operator.getitem, heads, repeat(slice(3, None))), repeat(suffix))


def _keyed_spec(inst: GroupInstance, key: int, suffix: str) -> GeneratorSpec:
    """x || BIN_n(F(key, x)) || suffix; its walks share one ``KeyedWalker``,
    which checks the key before any output is walked or listed."""
    walk = KeyedWalker(inst, key)
    n = inst.n
    return GeneratorSpec(
        seed_bits=n,
        out_bits=2 * n + len(suffix),
        eval_fn=lambda x: x + bin_n(walk(x), n) + suffix,
        outputs_fn=partial(_tree_outputs, inst, key, suffix),
    )


def kgen_spec(inst: GroupInstance, key: int) -> GeneratorSpec:
    """The spec of ``kgen_eval``: x || BIN_n(F(key, x)), output length 2n."""
    return _keyed_spec(inst, key, "")


def gen_spec(inst: GroupInstance, key: int) -> GeneratorSpec:
    """x || BIN_n(F(key, x)) || BIN_3n(params), output length 5n; the suffix is encoded once."""
    return _keyed_spec(inst, key, encode_params(inst))


def uniform_spec(width: int) -> GeneratorSpec:
    """The identity generator: uniform over ``width``-bit strings."""
    return GeneratorSpec(seed_bits=width, out_bits=width, eval_fn=lambda s: s)


class SampleOracle:
    """SAMPLE handle for a generator: fresh uniform seed per draw."""

    def __init__(self, spec: GeneratorSpec, rng: random.Random):
        self.spec = spec
        self._rng = rng
        self.count = 0

    def sample(self) -> str:
        self.count += 1
        return self.spec.eval(random_bits(self._rng, self.spec.seed_bits))


class DistTable(namedtuple("DistTable", "n_bits probs")):
    """A finite probability table over n-bit strings.

    Entries absent from ``probs`` have probability zero.  Values are
    either all ``Fraction`` (exact mode, sums checked exactly) or floats
    (sums checked to 1e-12).  The public ways of building one (the
    constructor, ``_make``, ``_replace``) run ``__post_init__``, one pass
    over the entries in order: each key's bits, its value's sign and NaN,
    and the sum, added left to right.  ``exact_table`` builds its table
    without it: its values are positive and sum to exactly 1 by
    construction, and its keys are outputs that ``GeneratorSpec.outputs``
    checked or built.
    """

    __slots__ = ()

    def __new__(cls, n_bits: int, probs: dict):
        self = tuple.__new__(cls, (n_bits, probs))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, fields: Iterable) -> "DistTable":
        return cls(*fields)

    def __post_init__(self):
        total = 0
        for bits, prob in self.probs.items():
            check_bits(bits, self.n_bits)
            if prob < 0:
                raise ValueError(f"negative probability for {bits}")
            if prob != prob:
                raise ValueError(f"probability for {bits} is NaN")
            # Left to right: builtin ``sum`` compensates float sums from 3.12 on.
            total += prob
        if self.is_exact():
            if total != 1:
                raise ValueError(f"exact table sums to {total}, not 1")
        elif abs(total - 1) > 1e-12:
            raise ValueError(f"table sums to {total}, outside tolerance")

    def is_exact(self) -> bool:
        import fractions
        return all(issubclass(t, fractions.Fraction) for t in set(map(type, self.probs.values())))

    def prob(self, bits: str):
        """The stored probability of ``bits``; 0 for strings absent from the table."""
        check_bits(bits, self.n_bits)
        return self.probs.get(bits, 0)

    def support(self) -> set[str]:
        return {bits for bits, prob in self.probs.items() if prob > 0}

    def to_float(self) -> "DistTable":
        return DistTable(self.n_bits, {b: float(v) for b, v in self.probs.items()})


def exact_table(spec: GeneratorSpec) -> DistTable:
    """The exact induced table of a generator, by full seed enumeration.

    Entries keep the seed order of their first occurrence; all entries
    with the same count share one ``Fraction``.  When the 2^m outputs are
    distinct (every keyed spec: x is their prefix), the table is one
    ``dict.fromkeys`` of the enumeration; otherwise a second enumeration
    counts them.  Either way the entries sum to exactly 1, and
    ``spec.outputs()`` has checked every key, naming the first bad output
    as the ``DistTable`` constructor would: the table has no check of its
    own.
    """
    import fractions
    size = 1 << spec.seed_bits
    counts = dict.fromkeys(spec.outputs(), fractions.Fraction(1, size))
    if len(counts) != size:
        counts = {}
        for y in spec.outputs():
            counts[y] = counts.get(y, 0) + 1
        probs = {c: fractions.Fraction(c, size) for c in set(counts.values())}
        for y, c in counts.items():
            counts[y] = probs[c]
    return tuple.__new__(DistTable, (spec.out_bits, counts))


def kl_divergence(p: DistTable, q: DistTable) -> float:
    """Base-2 relative entropy sum_x P(x) log2(P(x)/Q(x)), in bits.

    Terms with P(x) = 0 contribute nothing; any x with P(x) > 0 but
    Q(x) = 0 makes the divergence +inf (returned as a sentinel, not
    raised).  Tiny negative float round-off is clamped to 0.  Each term
    is computed once per pair of value objects (an exact table shares one
    per count) and added in entry order, so the float sum does not depend
    on the sharing.
    """
    if p.n_bits != q.n_bits:
        raise ValueError(f"domain mismatch: {p.n_bits} vs {q.n_bits} bits")
    # Keyed by object identity: both tables hold every value for the whole loop.
    # A zero term is added too; the sum is never -0.0, so that keeps its bits.
    terms: dict = {}
    total = 0.0
    q_get = q.probs.get
    for bits, prob in p.probs.items():
        q_prob = q_get(bits, 0)
        pair = id(prob), id(q_prob)
        term = terms.get(pair)
        if term is None:
            a, b = prob.as_integer_ratio()
            if a == 0:
                term = 0.0
            else:
                c, d = q_prob.as_integer_ratio()
                if c == 0:
                    return math.inf
                # Int true division rounds correctly: float(Fraction(prob) / Fraction(q_prob)).
                term = a / b * math.log2(a * d / (b * c))
            terms[pair] = term
        total += term
    if -1e-9 < total < 0.0:
        return 0.0
    return total


def tv_distance(p: DistTable, q: DistTable):
    """Total variation distance (half L1); exact when both tables are exact."""
    if p.n_bits != q.n_bits:
        raise ValueError(f"domain mismatch: {p.n_bits} vs {q.n_bits} bits")
    if p.is_exact() and q.is_exact():
        import fractions
        # Summed in integers over the lcm of every denominator.
        den = math.lcm(*{prob.denominator for t in (p, q) for prob in t.probs.values()})
        a, b = ({x: v.numerator * (den // v.denominator) for x, v in t.probs.items()} for t in (p, q))
        total = sum(abs(a.get(x, 0) - b.get(x, 0)) for x in a.keys() | b.keys())
        return fractions.Fraction(total, 2 * den)
    total = 0
    # Sorted union keeps float summation order independent of hash seeding.
    for bits in sorted(set(p.probs) | set(q.probs)):
        total += abs(p.probs.get(bits, 0) - q.probs.get(bits, 0))
    return total / 2


def write_samples(path, samples: Iterable[str]) -> None:
    """One bitstring per line, ASCII, newline-terminated."""
    with open(path, "w", encoding="ascii") as fh:
        for s in samples:
            fh.write(s + "\n")


def read_samples(path) -> list[str]:
    with open(path, encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    for line in lines:
        check_bits(line)
    return lines

