"""Safe-prime quadratic-residue groups, the QR <-> Z_q fold map, and discrete logs.

Conventions used throughout the package:

* A *safe prime* is a prime p = 2q + 1 with q prime.  QR_p, the group of
  quadratic residues mod p, is then cyclic of prime order q, and every
  element except 1 generates it.
* Exponents live in the canonical residue set {1, ..., q}, with q standing
  in for the mathematical residue 0 (g**q == 1 mod p): a log is never 0.
* Usable group instances additionally require q odd, i.e. p % 4 == 3.
  The single safe prime this excludes is p = 5: there -1 is itself a
  quadratic residue, so the fold map ``f_p`` (x -> x or p - x) is not a
  bijection onto {1, ..., q} and key recovery degenerates.  p = 7 is the
  smallest usable instance.
* Primality tests are exact below 3.3 * 10**24 (n <= 81 bits) and err
  with probability at most 4**-64 above.

Where each way of exponentiating is used is described in :mod:`genlearn.prf`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import NamedTuple

__all__ = [
    "MAX_ATTEMPTS",
    "SearchBudgetError",
    "GroupInstance",
    "is_prime",
    "is_safe_prime",
    "safe_primes_below",
    "canonical_exponent",
    "is_qr",
    "qr_set",
    "f_p",
    "f_p_inv",
    "DlogTable",
    "discrete_log",
    "generate_instance",
    "validate_instance",
]

# Primes below this bound are sieved at import and decide n < 2**16 by lookup.
_SIEVE_LIMIT = 1 << 16

# Miller-Rabin with the first k primes as bases is proven exact for every
# n below the k-th bound (OEIS A014233; Jaeschke, Math. Comp. 1993;
# Sorenson and Webster, Math. Comp. 2017): the k-th bound itself is the
# least odd composite that passes them all.  Beyond the 13th (> 2**81),
# 64 rounds with bases derived from n err with probability at most 4**-64.
_MR_PROVEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)
_MR_ROUNDS = 64


def _sieve() -> bytearray:
    """Prime flags below the sieve limit."""
    flags = bytearray([1]) * _SIEVE_LIMIT
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(_SIEVE_LIMIT - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, _SIEVE_LIMIT, i)))
    return flags


_IS_SMALL_PRIME = _sieve()
# The primes below 2**8, 2 included, multiplied into one 335-bit screen.
_SMALL_PRIMES_PRODUCT = math.prod(itertools.compress(range(1 << 8), _IS_SMALL_PRIME))


def _miller_rabin(n: int, bases) -> bool:
    """Whether odd n passes the strong test to every base, each in 2..n - 2."""
    m = n - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def _probable_prime(n: int) -> bool:
    """Miller-Rabin for n at or above the sieve limit: exact below
    3.3 * 10**24, where n below the k-th proven bound takes the first k
    proven bases; above, 64 rounds with bases derived from n, which err
    with probability at most 4**-64."""
    k = bisect.bisect_right(_MR_PROVEN_LIMIT, n) + 1
    if k <= len(_MR_PROVEN_BASES):
        return _miller_rabin(n, _MR_PROVEN_BASES[:k])
    base_rng = random.Random(n)
    bases = [base_rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)]
    return _miller_rabin(n, bases)


def is_prime(n: int) -> bool:
    """Primality test: exact below 3.3 * 10**24, error at most 4**-64 above.

    The sieve decides n below 2**16.  Beyond it, one gcd with the product
    of the primes below 2**8 rejects most composites, and
    ``_probable_prime`` decides the rest; its bases depend on n only, so
    the test is reproducible across runs.
    """
    if n < _SIEVE_LIMIT:
        return n >= 2 and _IS_SMALL_PRIME[n] == 1
    return math.gcd(n, _SMALL_PRIMES_PRODUCT) == 1 and _probable_prime(n)


def is_safe_prime(p: int) -> bool:
    """True iff p and (p - 1) / 2 are both prime.

    Beyond the sieve, p and q are screened together, one gcd of p * q with
    the small-prime product, before either gets a Miller-Rabin test.
    """
    if p < 5 or p % 2 == 0:
        return False
    q = (p - 1) // 2
    if q < _SIEVE_LIMIT:
        return is_prime(p) and is_prime(q)
    return (
        math.gcd(p * q, _SMALL_PRIMES_PRODUCT) == 1
        and _probable_prime(p)
        and _probable_prime(q)
    )


def safe_primes_below(limit: int) -> list[int]:
    """The usable safe primes (q odd) below ``limit``, ascending: every safe
    prime except 5, the one with q even."""
    return [p for p in range(7, limit, 2) if is_safe_prime(p)]


def canonical_exponent(e: int, q: int) -> int:
    """Map an integer exponent to the canonical residue set {1, ..., q}."""
    r = e % q
    return q if r == 0 else r


def is_qr(p: int, x: int) -> bool:
    """Euler's criterion: x is a quadratic residue mod the safe prime p."""
    if not 1 <= x <= p - 1:
        raise ValueError(f"element {x} out of range for modulus {p}")
    return pow(x, (p - 1) // 2, p) == 1


def qr_set(p: int) -> set[int]:
    """The full set of quadratic residues mod p, by brute-force squaring."""
    return {x * x % p for x in range(1, p)}


def f_p(p: int, x: int) -> int:
    """Fold a quadratic residue into {1, ..., q}: x if x <= q, else p - x."""
    q = (p - 1) // 2
    if not is_qr(p, x):
        raise ValueError(f"{x} is not a quadratic residue mod {p}")
    return x if x <= q else p - x


def f_p_inv(p: int, y: int) -> int:
    """Inverse fold: the unique quadratic residue in {y, p - y}.

    With q odd (p % 4 == 3) -1 is a non-residue, so exactly one of y and
    p - y is a residue and one Euler test decides which.
    """
    q = (p - 1) // 2
    if not 1 <= y <= q:
        raise ValueError(f"value {y} outside canonical range 1..{q}")
    if is_qr(p, y):
        return y
    if q % 2 == 1:
        return p - y
    raise ValueError(f"no quadratic-residue preimage of {y} mod {p} (degenerate p)")


class DlogTable:
    """Baby-step giant-step logs to one base g of QR_p, from one shared table.

    ``g`` must generate QR_p (a residue other than 1), and ``log`` must be
    given residues: callers check both once, where the values enter, and
    the table trusts them.  g has prime order q, so its first q powers are
    distinct.  The m = min(q, c) baby steps fill the dict that
    ceil(sqrt(2q)) of them need, at no added allocation: c = 2**(k+1) // 3
    entries fit its 2**k >= 8 slots (Kuhn and Struik, SAC 2001: with many
    logs per table, more baby steps cost less in all).  Each g**j maps to
    j & 0xFF, a cached small int, not an int object per index.  A log takes
    at most ceil(q/m) giant steps, then recovers j from its low byte in at
    most m/256 multiplications.
    """

    def __init__(self, p: int, g: int):
        self.p, self.g = p, g
        self.q = q = (p - 1) // 2
        need = math.isqrt(2 * q - 1) + 1
        self.m = m = min(q, (1 << max(4, (3 * need - 1).bit_length())) // 3)
        self.giants = -(-q // m)
        baby: dict[int, int] = {}
        acc = 1
        for j in range(m):
            baby[acc] = j & 0xFF
            acc = acc * g % p
        self.baby = baby
        self.stride = pow(g, -m, p)
        self.hop = pow(g, 256, p)

    def log(self, y: int) -> int:
        """The e in {1, ..., q} with g**e == y mod p."""
        p, baby, stride = self.p, self.baby, self.stride
        cur = y
        for i in range(self.giants):
            if cur in baby:
                # cur = g**j for the one j < m with j & 0xFF == baby[cur].
                j = baby[cur]
                x = pow(self.g, j, p)
                while x != cur:
                    x = x * self.hop % p
                    j += 256
                return canonical_exponent(i * self.m + j, self.q)
            cur = cur * stride % p
        raise ValueError(f"{y} is not a power of the table's base mod {p}")


def discrete_log(p: int, base: int, y: int) -> int:
    """Solve base**e == y mod p for e in {1, ..., q}, q = (p - 1) / 2.

    Checks the base and target that ``DlogTable`` trusts, then answers
    from a one-use table in O(sqrt(q)) time and memory.
    """
    if base == 1:
        raise ValueError("base 1 does not generate the residue group")
    if not is_qr(p, base):
        raise ValueError(f"base {base} is not a quadratic residue mod {p}")
    if not is_qr(p, y):
        raise ValueError(f"target {y} is not a quadratic residue mod {p}")
    return DlogTable(p, base).log(y)


class GroupInstance(NamedTuple):
    """A QR group instance (p, q, g, g^a); the public parameterization.

    ``a_secret`` is retained only when an instance is generated in test
    mode; every other instance carries ``None`` there.
    """

    n: int
    p: int
    q: int
    g: int
    g_a: int
    a_secret: int | None = None

    def to_json_dict(self) -> dict[str, str]:
        """Decimal-string fields in field order; a ``None`` secret is left out."""
        return {name: str(value) for name, value in self._asdict().items() if value is not None}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupInstance":
        def field(name: str) -> int:
            # Fields are decimal strings as ``str(int)`` writes them, nothing else.
            if not isinstance(data[name], str):
                raise TypeError(f"field {name!r} is not a decimal string")
            if str(value := int(data[name])) != data[name]:
                raise ValueError(f"field {name!r} is not a canonical decimal string")
            return value

        try:
            p, g, g_a, n = (field(name) for name in ("p", "g", "g_a", "n"))
            a_secret = field("a_secret") if "a_secret" in data else None
            q = field("q") if "q" in data else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed instance record: {exc}") from exc
        inst = validate_instance(p, g, g_a, n=n, a_secret=a_secret)
        if q is not None and q != inst.q:
            raise ValueError("inconsistent q field in instance record")
        return inst


def validate_instance(
    p: int, g: int, g_a: int, n: int, a_secret: int | None = None
) -> GroupInstance:
    """Check the instance invariants and package the fields.

    Raises ValueError if p is not a usable safe prime (q odd), if g or g_a
    is not a non-identity quadratic residue, or if a supplied secret
    exponent does not reproduce g_a.
    """
    if not is_safe_prime(p):
        raise ValueError(f"{p} is not a safe prime")
    q = (p - 1) // 2
    if q % 2 == 0:
        raise ValueError(f"p = {p} has even q = {q}; the fold map degenerates")
    if p.bit_length() != n:
        raise ValueError(f"p = {p} is not an {n}-bit prime")
    for name, el in (("g", g), ("g_a", g_a)):
        if not 1 <= el <= p - 1:
            raise ValueError(f"{name} = {el} out of range mod {p}")
        if el == 1 or not is_qr(p, el):
            raise ValueError(f"{name} = {el} is not a non-identity residue mod {p}")
    if a_secret is not None:
        if not 1 <= a_secret <= q - 1:
            raise ValueError(f"secret exponent {a_secret} outside 1..{q - 1}")
        if pow(g, a_secret, p) != g_a:
            raise ValueError("secret exponent does not reproduce g_a")
    return GroupInstance(n=n, p=p, q=q, g=g, g_a=g_a, a_secret=a_secret)


# Candidates ``generate_instance`` draws before it raises SearchBudgetError.
# An odd n-bit candidate is a usable safe prime with probability of order
# 1/n**2, so searches at the sizes in use end long before the budget.
MAX_ATTEMPTS = 200_000


class SearchBudgetError(ValueError):
    """No safe prime found within the rejection-sampling budget.

    A ``ValueError``: the budget is part of the request, so the CLI reports
    it as a usage error (exit 2), not as a crash or a failed check."""


def generate_instance(n: int, rng: random.Random, keep_secret: bool = False) -> GroupInstance:
    """Sample an n-bit group instance: safe prime, generator, and g^a.

    Candidates are uniform odd n-bit integers with the top bit set; the
    first usable safe prime (q odd) is taken, and ``SearchBudgetError``
    is raised when none of ``MAX_ATTEMPTS`` candidates is one.  The
    generator comes from squaring a uniform element of {2, ..., p - 2}
    and rejecting 1.  The exponent a is uniform over {1, ..., q - 1}:
    a = q (i.e. 0 mod q) would give g_a = 1, leaving dlog base g_a
    undefined.
    """
    if n < 3:
        raise ValueError(f"n = {n} too small: the smallest usable safe prime, 7, needs 3 bits")
    p = None
    for _ in range(MAX_ATTEMPTS):
        cand = (1 << (n - 1)) | rng.getrandbits(n - 1) | 1
        if cand % 4 == 3 and is_safe_prime(cand):
            p = cand
            break
    if p is None:
        raise SearchBudgetError(f"no {n}-bit safe prime found in {MAX_ATTEMPTS} attempts")
    q = (p - 1) // 2
    while True:
        g = pow(rng.randrange(2, p - 1), 2, p)
        if g != 1:
            break
    a = rng.randrange(1, q)
    g_a = pow(g, a, p)
    return GroupInstance(n=n, p=p, q=q, g=g, g_a=g_a, a_secret=a if keep_secret else None)
