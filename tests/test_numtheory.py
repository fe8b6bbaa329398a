import math
import random
import sys
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_log
from genlearn import numtheory as nt
from genlearn import prf
from genlearn.seeding import make_rng


def trial_division_prime(n: int) -> bool:
    # Independent primality oracle for small n.
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


SMALL_SAFE_PRIMES = [7, 11, 23, 47, 59, 83, 107, 167, 179, 227]


class TestPrimality:
    def test_is_safe_prime_examples(self):
        assert nt.is_safe_prime(7)  # 7 = 2*3 + 1
        assert not nt.is_safe_prime(13)  # (13-1)/2 = 6 composite
        assert nt.is_safe_prime(23)
        assert trial_division_prime(11)  # the q behind 23
        assert nt.is_safe_prime(5)  # satisfies the bare definition (q = 2)
        for bad in (2, 3, 4, 9, 15, 21):
            assert not nt.is_safe_prime(bad)

    def test_is_prime_matches_trial_division(self):
        for n in range(2, 2000):
            assert nt.is_prime(n) == trial_division_prime(n), n

    def test_is_prime_large(self):
        # 2^89 - 1 is a Mersenne prime; its neighbour is even.
        m89 = (1 << 89) - 1
        assert nt.is_prime(m89)
        assert not nt.is_prime(m89 - 1)
        assert not nt.is_prime(m89 * ((1 << 61) - 1))

    def test_is_prime_matches_sympy_below_2_17(self):
        sympy = pytest.importorskip("sympy")
        primes = set(sympy.primerange(1 << 17))
        for n in range(-3, 1 << 17):
            assert nt.is_prime(n) == (n in primes), n

    def test_is_prime_matches_sympy_at_screen_edges(self):
        sympy = pytest.importorskip("sympy")
        around = [c + d for c in (1 << 16, 1 << 32, 65521**2) for d in range(-300, 301)]
        special = [
            65521 * 65537,  # largest sieved prime times the first prime past it
            65537**2,
            65521**2,
            65537 * 65539,
            (1 << 32) + 15,  # the first prime above 2**32
            561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,  # Carmichael
            321197185, 5394826801, 232250619601, 9746347772161,  # Carmichael
            3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
            3825123056546413051,  # strong pseudoprime to the primes up to 23
            318665857834031151167461,  # strong pseudoprime to the primes up to 37
        ]
        for n in around + special:
            assert nt.is_prime(n) == sympy.isprime(n), n

    def test_is_prime_matches_sympy_random(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2003)
        for _ in range(3000):
            n = rng.getrandbits(rng.randrange(16, 129))
            assert nt.is_prime(n) == sympy.isprime(n), n
            # Odd candidates with no factor below 2**8 reach Miller-Rabin.
            m = n | 1
            assert nt.is_prime(m) == sympy.isprime(m), m

    def test_proven_bounds_fool_their_bases_but_not_is_prime(self):
        # The k-th A014233 bound is an odd composite that passes Miller-Rabin
        # with the first k primes as bases, so it must take k + 1 of them.
        bases = nt._MR_PROVEN_BASES
        assert len(nt._MR_PROVEN_LIMIT) == len(bases)
        for k, bound in enumerate(nt._MR_PROVEN_LIMIT, 1):
            assert nt._miller_rabin(bound, bases[:k]), (k, bound)
            assert not nt.is_prime(bound), bound
            if bound >= nt._SIEVE_LIMIT:
                assert not nt._probable_prime(bound), bound

    def test_probable_prime_takes_the_fewest_proven_bases(self, monkeypatch):
        seen = []
        real = nt._miller_rabin
        monkeypatch.setattr(nt, "_miller_rabin", lambda n, b: seen.append(list(b)) or real(n, b))
        p28 = nt.generate_instance(28, make_rng(3, "instance")).p
        assert nt._probable_prime(p28) and seen[-1] == [2, 3, 5, 7]
        assert nt._probable_prime(65537) and seen[-1] == [2, 3]
        big = (1 << 89) - 1  # past the last bound: 64 bases derived from n
        assert nt._probable_prime(big) and len(seen[-1]) == 64

    def test_composites_without_small_factors_reach_miller_rabin(self):
        # 257 and 263 are the first primes the 2**8 screen lets through.
        for n in (257 * 257, 257 * 263, 263 * 65537, 65537 * 65539):
            assert math.gcd(n, nt._SMALL_PRIMES_PRODUCT) == 1
            assert not nt.is_prime(n), n
        # p = 145463 is prime; q = 257 * 283 passes the screen beside it.
        assert nt.is_prime(145463) and not nt.is_safe_prime(145463)

    def test_screen_alone_rejects_multiples_of_small_primes(self, monkeypatch):
        def unreachable(n):
            raise AssertionError(f"{n} reached Miller-Rabin")

        monkeypatch.setattr(nt, "_probable_prime", unreachable)
        for n in range(1 << 16, (1 << 16) + 400, 2):
            assert not nt.is_prime(n), n
        for sp in (2, 3, 5, 7, 251):
            assert not nt.is_prime(sp * 1_000_003), sp
        # p = 131947 is prime and q = 3 * 21991: q is screened beside p.
        assert not nt.is_safe_prime(131947)

    def test_is_safe_prime_on_64_bit_candidates_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        p = 9_223_372_036_854_778_487  # the smallest safe prime above 2**63
        candidates = range(p - 300, p + 301, 2)
        want = [sympy.isprime(c) and sympy.isprime((c - 1) // 2) for c in candidates]
        assert want[150]
        assert [nt.is_safe_prime(c) for c in candidates] == want

    def test_is_safe_prime_matches_sympy_below_2_18(self):
        # Covers the switch at q = 2**16 from sieve lookups to the p * q screen.
        sympy = pytest.importorskip("sympy")
        primes = set(sympy.primerange(1 << 18))
        for p in range(-3, 1 << 18):
            want = p >= 5 and p in primes and (p - 1) // 2 in primes
            assert nt.is_safe_prime(p) == want, p

    def test_is_safe_prime_matches_sympy_random(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(186)
        for _ in range(3000):
            p = rng.getrandbits(rng.randrange(20, 65)) | 1
            want = p >= 5 and sympy.isprime(p) and sympy.isprime((p - 1) // 2)
            assert nt.is_safe_prime(p) == want, p
        for n in range(20, 65, 4):
            p = nt.generate_instance(n, make_rng(n, "safe-prime-oracle")).p
            assert sympy.isprime(p) and sympy.isprime((p - 1) // 2)
            assert nt.is_safe_prime(p)
            assert not nt.is_safe_prime(p + 2)

    def test_safe_primes_below_matches_oracle(self):
        oracle = [
            p
            for p in range(2, 300)
            if trial_division_prime(p) and trial_division_prime((p - 1) // 2) and p % 2
        ]
        assert nt.safe_primes_below(300) == [p for p in oracle if p != 5]
        assert nt.is_safe_prime(5)  # safe, but not usable: q = 2 is even


class TestInstanceGeneration:
    def test_three_bit_instances(self):
        for seed in range(10):
            inst = nt.generate_instance(3, make_rng(seed, "t"))
            assert inst.p in {5, 7}  # all 3-bit safe primes
            assert inst.p == 7  # the degenerate p = 5 is rejected

    def test_four_bit_instance_unique(self):
        inst = nt.generate_instance(4, make_rng(0, "t"))
        assert inst.p == 11  # 11 = 2*5 + 1 is the only 4-bit safe prime

    # (n, master seed) -> (p, g, g_a, a): the seed -> instance mapping, pinned.
    GOLDEN = {
        (16, 1): (34583, 8124, 9090, 10592),
        (16, 7): (49499, 11098, 44991, 2154),
        (32, 1): (2339872259, 2121911756, 1602184232, 75875148),
        (32, 42): (3064510523, 1112426711, 1833549731, 1370475267),
        (64, 1): (12403613323122845207, 11229333896987404955, 7070751393458739516,
                  2250013372498504482),
        (64, 7): (18204461091558014723, 13369086853249215632, 4383459336723343458,
                  5202410906276861108),
    }

    @pytest.mark.parametrize("n, seed", sorted(GOLDEN))
    def test_golden_instances(self, n, seed):
        inst = nt.generate_instance(n, make_rng(seed, "instance"), keep_secret=True)
        assert (inst.p, inst.g, inst.g_a, inst.a_secret) == self.GOLDEN[n, seed]

    def test_two_bit_rejected(self):
        with pytest.raises(ValueError):
            nt.generate_instance(2, make_rng(0, "t"))

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(nt, "MAX_ATTEMPTS", 1)
        with pytest.raises(nt.SearchBudgetError, match="^no 9-bit safe prime found in 1 attempts$"):
            nt.generate_instance(9, make_rng(0, "t"))

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16])
    def test_generated_invariants(self, n):
        for seed in range(5):
            inst = nt.generate_instance(n, make_rng(seed, "inv"), keep_secret=True)
            assert inst.p.bit_length() == n
            assert nt.is_safe_prime(inst.p)
            assert inst.q == (inst.p - 1) // 2 and inst.q % 2 == 1
            assert nt.is_qr(inst.p, inst.g) and inst.g != 1
            assert nt.is_qr(inst.p, inst.g_a) and inst.g_a != 1
            assert 1 <= inst.a_secret <= inst.q - 1
            assert pow(inst.g, inst.a_secret, inst.p) == inst.g_a

    def test_json_roundtrip_and_field_order(self):
        inst = nt.generate_instance(8, make_rng(1, "json"), keep_secret=True)
        record = inst.to_json_dict()
        assert list(record) == ["n", "p", "q", "g", "g_a", "a_secret"]
        assert all(isinstance(v, str) for v in record.values())
        assert nt.GroupInstance.from_json_dict(record) == inst
        public = inst._replace(a_secret=None).to_json_dict()
        assert list(public) == ["n", "p", "q", "g", "g_a"]

    def test_validate_instance_errors(self):
        with pytest.raises(ValueError):
            nt.validate_instance(9, 4, 4, n=4)  # 9 not prime
        with pytest.raises(ValueError):
            nt.validate_instance(7, 1, 4, n=3)  # identity generator
        with pytest.raises(ValueError):
            nt.validate_instance(7, 3, 4, n=3)  # 3 is a non-residue mod 7
        with pytest.raises(ValueError):
            nt.validate_instance(7, 2, 1, n=3)  # g_a = 1 means a = 0, rejected
        with pytest.raises(ValueError):
            nt.validate_instance(7, 2, 4, n=4)  # 7 is not a 4-bit prime
        with pytest.raises(ValueError):
            nt.validate_instance(7, 2, 4, n=3, a_secret=1)  # g^1 != 4
        with pytest.raises(ValueError):
            nt.validate_instance(5, 4, 4, n=3)  # degenerate q = 2


class TestResidues:
    def test_is_qr_examples(self):
        assert nt.is_qr(7, 2)  # 3^2 = 9 = 2 mod 7
        assert not nt.is_qr(7, 3)
        for p in SMALL_SAFE_PRIMES:
            assert nt.is_qr(p, 1)

    def test_is_qr_range_error(self):
        with pytest.raises(ValueError):
            nt.is_qr(7, 0)
        with pytest.raises(ValueError):
            nt.is_qr(7, 7)

    def test_is_qr_matches_brute_force(self):
        for p in [5, *nt.safe_primes_below(1 << 8)]:
            squares = nt.qr_set(p)
            assert {x for x in range(1, p) if nt.is_qr(p, x)} == squares


class TestFoldMap:
    def test_examples(self):
        assert nt.f_p(7, 4) == 3
        assert nt.f_p(7, 2) == 2
        assert nt.f_p(11, 9) == 2
        assert nt.f_p_inv(7, 3) == 4
        assert nt.f_p_inv(7, 2) == 2

    def test_non_residue_rejected(self):
        with pytest.raises(ValueError):
            nt.f_p(7, 3)
        with pytest.raises(ValueError):
            nt.f_p_inv(7, 0)
        with pytest.raises(ValueError):
            nt.f_p_inv(7, 4)  # outside 1..q

    @pytest.mark.parametrize("p", SMALL_SAFE_PRIMES)
    def test_bijection_exhaustive(self, p):
        q = (p - 1) // 2
        residues = nt.qr_set(p)
        assert len(residues) == q
        folded = [nt.f_p(p, x) for x in residues]
        assert sorted(folded) == list(range(1, q + 1))
        for x in residues:
            assert nt.f_p_inv(p, nt.f_p(p, x)) == x
        for y in range(1, q + 1):
            assert nt.f_p(p, nt.f_p_inv(p, y)) == y

    def test_p5_is_degenerate(self):
        # QR_5 = {1, 4} folds to {1} twice: not a bijection.  This is why
        # p = 5 is excluded from the usable instance family.
        assert nt.f_p(5, 1) == nt.f_p(5, 4) == 1
        with pytest.raises(ValueError):
            nt.f_p_inv(5, 2)


class TestDiscreteLog:
    def test_examples_table_and_brute_walk(self):
        # The table-backed log and the reference walk.
        for log in (nt.discrete_log, brute_log):
            assert log(7, 2, 4) == 2
            assert log(7, 2, 1) == 3  # exponent 0 -> canonical q
            assert log(7, 4, 2) == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            nt.discrete_log(7, 1, 2)
        with pytest.raises(ValueError):
            nt.discrete_log(7, 2, 3)  # non-residue target

    @pytest.mark.parametrize("p", [7, 11, 23, 59])
    def test_roundtrip_exhaustive_small(self, p):
        q = (p - 1) // 2
        for g in sorted(nt.qr_set(p) - {1}):
            for e in range(1, q + 1):
                y = pow(g, e, p)
                assert brute_log(p, g, y) == e
                assert nt.discrete_log(p, g, y) == e

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_roundtrip_random_instances(self, n):
        for seed in range(3):
            inst = nt.generate_instance(n, make_rng(seed, f"dlog{n}"))
            rng = random.Random(seed)
            exponents = [1, inst.q] + [rng.randint(2, inst.q - 1) for _ in range(10)]
            for e in exponents:
                y = pow(inst.g, e, inst.p)
                assert nt.discrete_log(inst.p, inst.g, y) == e
                if n <= 16:
                    assert brute_log(inst.p, inst.g, y) == e

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(SMALL_SAFE_PRIMES),
        data=st.data(),
    )
    def test_table_log_matches_brute_walk(self, p, data):
        residues = sorted(nt.qr_set(p))
        g = data.draw(st.sampled_from([x for x in residues if x != 1]))
        y = data.draw(st.sampled_from(residues))
        assert brute_log(p, g, y) == nt.discrete_log(p, g, y)

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_matches_sympy(self, n):
        # Independent oracle: sympy's discrete_log returns the least
        # non-negative exponent, which maps to canonical {1, ..., q}.
        ntheory = pytest.importorskip("sympy.ntheory")
        for seed in range(3):
            inst = nt.generate_instance(n, make_rng(seed, f"sympy-dlog{n}"))
            p, q = inst.p, inst.q
            table = nt.DlogTable(p, inst.g)
            rng = random.Random(seed)
            targets = [1, inst.g, inst.g_a] + [pow(inst.g, rng.randrange(q), p) for _ in range(8)]
            for y in targets:
                expected = nt.canonical_exponent(
                    ntheory.discrete_log(p, y, inst.g, order=q, prime_order=True), q
                )
                assert table.log(y) == expected
                assert nt.discrete_log(p, inst.g, y) == expected

    def test_canonical_exponent(self):
        assert nt.canonical_exponent(0, 5) == 5
        assert nt.canonical_exponent(5, 5) == 5
        assert nt.canonical_exponent(7, 5) == 2
        assert nt.canonical_exponent(1, 5) == 1


def sqrt_2q(q):
    # ceil(sqrt(2q)): the baby steps a log needs with many logs per table.
    return math.isqrt(2 * q - 1) + 1


def dict_usable(count):
    # Entries the smallest CPython dict table of 2**k >= 8 slots that holds
    # ``count`` entries takes before it grows: two thirds of its slots.
    size = 8
    while 2 * size // 3 < count:
        size *= 2
    return 2 * size // 3


def built_dict(count):
    # A dict grown one insertion at a time, as DlogTable grows its table.
    d = {}
    for i in range(count):
        d[i] = i & 0xFF
    return d


def safe_prime_needing(count):
    # The least safe prime p whose q = (p - 1) / 2 has sqrt_2q(q) == count.
    q = (count - 1) ** 2 // 2 + 1
    while not nt.is_safe_prime(2 * q + 1):
        q += 1
    assert sqrt_2q(q) == count
    return 2 * q + 1


def assert_fills_its_dict(table):
    # The table's dict is the one sqrt_2q(q) entries allocate, and it is
    # full: one more entry grows it.
    size = sys.getsizeof(table.baby)
    assert size == sys.getsizeof(built_dict(sqrt_2q(table.q)))
    table.baby[table.p] = 0  # p is no residue, so no entry has this key
    assert sys.getsizeof(table.baby) > size


class TestDlogTable:
    @pytest.mark.parametrize("p", [5, *nt.safe_primes_below(1 << 10)])
    def test_matches_brute_walk(self, p):
        # Every generator of QR_p and every residue.  The reference is the
        # walk g, g**2, ..., g**q, run once per generator: calling
        # ``brute_log`` per residue would cost q**3 / 2 steps.
        q = (p - 1) // 2
        residues = sorted(nt.qr_set(p))
        for g in residues[1:]:
            table = nt.DlogTable(p, g)
            assert len(table.baby) == table.m == min(q, dict_usable(sqrt_2q(q)))
            acc = 1
            for e in range(1, q + 1):
                acc = acc * g % p
                assert table.log(acc) == e  # ends with acc = 1 -> canonical q
            assert acc == 1
        table = nt.DlogTable(p, residues[1])
        for y in residues:
            assert table.log(y) == brute_log(p, residues[1], y)

    def test_last_giant_step_is_reached(self):
        # (q - 1) // m == ceil(q / m) - 1: the log q - 1 is found only on
        # the last giant step ``log`` takes.
        reached = 0
        for p in [5, *nt.safe_primes_below(1 << 10)]:
            q = (p - 1) // 2
            table = nt.DlogTable(p, 4)
            if (q - 1) // table.m == -(-q // table.m) - 1:
                assert table.log(pow(4, q - 1, p)) == q - 1
                reached += 1
        assert reached

    @pytest.mark.parametrize("n", [20, 24, 28])
    def test_index_recovery_and_giant_step_edges(self, n):
        # e = i*m + j around the low-byte boundaries of j and at the first,
        # second and last giant step: the table stores only j & 0xFF, so
        # each j >= 256 is recovered by stepping from g**(j & 0xFF).  Every
        # table at an even n has the same m.  At n = 28, j = m - 1 is 85 hops
        # from its low byte.
        ntheory = pytest.importorskip("sympy.ntheory")
        inst = nt.generate_instance(n, make_rng(n, "dlog-edges"))
        p, q, g = inst.p, inst.q, inst.g
        table = nt.DlogTable(p, g)
        m = table.m
        assert m == {20: 1365, 24: 5461, 28: 21845}[n]
        exponents = {q - 1, q}
        for i in (0, 1, table.giants - 2, table.giants - 1):
            for j in (0, 1, 255, 256, 257, m - 2, m - 1):
                if 1 <= i * m + j <= q:
                    exponents.add(i * m + j)
        assert (q - 1) // m == table.giants - 1  # q - 1 is on the last giant step
        for e in sorted(exponents):
            y = pow(g, e, p)
            expected = nt.canonical_exponent(
                ntheory.discrete_log(p, y, g, order=q, prime_order=True), q
            )
            assert table.log(y) == expected == e

    @pytest.mark.parametrize(
        "count, m", [(10922, 10922), (10923, 21845), (21845, 21845), (21846, 43690)]
    )
    def test_fills_dict_at_capacity_steps(self, count, m):
        # Either side of the steps where a 2**14- and a 2**15-slot dict
        # (10,922 and 21,845 usable entries) run full.
        p = safe_prime_needing(count)
        table = nt.DlogTable(p, 4)
        assert table.m == len(table.baby) == dict_usable(count) == m
        assert_fills_its_dict(table)
        for e in (1, table.m - 1, table.m, table.q - 1, table.q):
            assert table.log(pow(4, e, p)) == e

    @pytest.mark.parametrize("n", [8, 12, 20, 28])
    def test_fills_dict_on_instances(self, n):
        inst = nt.generate_instance(n, make_rng(n, "dlog-alloc"))
        assert_fills_its_dict(nt.DlogTable(inst.p, inst.g))

    def test_one_table_answers_many_logs(self):
        inst = nt.generate_instance(20, make_rng(7, "table-reuse"))
        table = nt.DlogTable(inst.p, inst.g)
        for e in (1, 2, inst.q - 1, inst.q, 12345, inst.q // 2):
            assert table.log(pow(inst.g, e, inst.p)) == e


@cache
def row_product(width):
    return prf._row_product(width)


def table_pow(rows, p, e):
    # prf.KeyedWalker's row power: the compiled product of one row entry per
    # exponent byte, reduced once mod p.  Raises OverflowError outside the rows.
    return row_product(len(rows))(rows, e.to_bytes(len(rows), "little")) % p


def pow_rows(p, base, e_bits):
    # The walker's rows for exponents of ``e_bits`` bits: one row per byte.
    return prf._pow_rows(p, base, -(-e_bits // 8))


class TestPowTable:
    """``prf._pow_rows``, the walker's fixed-base power rows, read as it reads them."""

    @pytest.mark.parametrize("p", [5, *nt.safe_primes_below(1 << 10)])
    def test_matches_pow_exhaustive(self, p):
        q = (p - 1) // 2
        for base in (2, 3, 4, p - 2, p - 1):
            for e_bits in (1, 5, 6, 7, 12, q.bit_length()):
                rows = pow_rows(p, base, e_bits)
                for e in range(1 << e_bits):
                    assert table_pow(rows, p, e) == pow(base, e, p), (base, e_bits, e)

    @pytest.mark.parametrize("n", [65, 129])
    def test_matches_pow_random_wide(self, n):
        inst = nt.generate_instance(n, make_rng(n, "pow-table"))
        e_bits = n - 1  # 64 and 128 exponent bits
        rng = random.Random(n)
        top = (e_bits - 1) // 8 * 8  # lowest bit of the top byte
        for base in (inst.g, inst.g_a, 2):
            rows = pow_rows(inst.p, base, e_bits)
            exponents = [rng.getrandbits(e_bits) for _ in range(300)]
            exponents += [0, 1, inst.q, (1 << e_bits) - 1]
            exponents += [j << top for j in range(1, 1 << (e_bits - top))]
            for e in exponents:
                assert table_pow(rows, inst.p, e) == pow(base, e, inst.p), e
        assert table_pow(pow_rows(inst.p, inst.g, e_bits), inst.p, inst.q) == 1

    @pytest.mark.parametrize("e_bits", [5, 8, 12, 63])
    def test_exponent_range_is_whole_rows(self, e_bits):
        # The power reads one row per exponent byte: every exponent the rows
        # hold is answered, and one past either end raises instead of
        # dropping bits.
        inst = nt.generate_instance(64, make_rng(1, "pow-range"))
        rows = pow_rows(inst.p, inst.g, e_bits)
        top = 1 << (8 * len(rows))
        assert len(rows) == -(-e_bits // 8) and {len(row) for row in rows} == {256}
        for e in (0, top - 1):
            assert table_pow(rows, inst.p, e) == pow(inst.g, e, inst.p)
        for e in (-1, top):
            with pytest.raises(OverflowError):
                table_pow(rows, inst.p, e)
