import math
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlearn import prf
from genlearn.distributions import gen_spec, kgen_spec
from genlearn.numtheory import f_p, generate_instance
from genlearn.seeding import make_rng


def naive_walk(inst, key, bits):
    # Independent re-derivation of the tree walk, straight from the
    # stretch-then-select definition.
    b = key
    for ch in bits:
        left = f_p(inst.p, pow(inst.g, b, inst.p))
        right = f_p(inst.p, pow(inst.g_a, b, inst.p))
        b = left if ch == "0" else right
    return b


class TestPrg:
    # One tree level is one half of the length-doubling generator.
    def test_stretch_examples(self, inst7):
        for b, (left, right) in {1: (2, 3), 2: (3, 2), 3: (1, 1)}.items():
            assert prf.ggm_walk(inst7, b, "0") == left
            assert prf.ggm_walk(inst7, b, "1") == right

    def test_seed_range_enforced(self, inst7):
        for bad in (0, 4, -1):
            for bit in "01":
                with pytest.raises(ValueError):
                    prf.ggm_walk(inst7, bad, bit)

    def test_outputs_in_canonical_range(self):
        inst = generate_instance(8, make_rng(0, "prg"))
        for b in range(1, inst.q + 1, 7):
            for bit in "01":
                assert 1 <= prf.ggm_walk(inst, b, bit) <= inst.q


class TestKeyedFunction:
    def test_worked_examples(self, inst7):
        assert prf.prf_eval(inst7, 1, "000") == 1  # 1 -> 2 -> 3 -> 1
        assert prf.prf_eval(inst7, 1, "111") == 3  # 1 -> 3 -> 1 -> 3
        assert prf.prf_eval(inst7, 2, "101") == 1  # 2 -> 2 -> 3 -> 1

    @pytest.mark.parametrize("n", [6, 16, 32, 64])
    def test_matches_naive_walk(self, n):
        # naive_walk folds with the Euler-checked f_p; the walk folds inline.
        for seed in range(4):
            inst = generate_instance(n, make_rng(seed, "walk"))
            rng = random.Random(seed)
            for _ in range(20):
                key = rng.randint(1, inst.q)
                x = format(rng.getrandbits(n), f"0{n}b")
                assert prf.prf_eval(inst, key, x) == naive_walk(inst, key, x)

    def test_length_mismatch(self, inst7):
        # Anything but a 3-bit string is refused with ValueError, also a
        # non-string that has no length or has the right one.
        for x in ("0000", "01x", 5, None, b"010"):
            with pytest.raises(ValueError):
                prf.prf_eval(inst7, 1, x)

    def test_deterministic(self, inst7):
        assert all(
            prf.prf_eval(inst7, 2, "110") == prf.prf_eval(inst7, 2, "110") for _ in range(5)
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100), key_draw=st.integers(0, 10**9), x_draw=st.integers(0, 10**9))
    def test_output_always_canonical(self, seed, key_draw, x_draw):
        inst = generate_instance(8, make_rng(seed % 3, "canon"))
        key = key_draw % inst.q + 1
        x = format(x_draw % 256, "08b")
        assert 1 <= prf.prf_eval(inst, key, x) <= inst.q

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_tree_consistency_under_splitting(self, n):
        # Walking u || v equals walking v from the intermediate key after u.
        inst = generate_instance(n, make_rng(n, "split"))
        rng = random.Random(n)
        for _ in range(25):
            key = rng.randint(1, inst.q)
            x = format(rng.getrandbits(n), f"0{n}b")
            cut = rng.randrange(n + 1)
            mid = prf.ggm_walk(inst, key, x[:cut])
            assert prf.ggm_walk(inst, mid, x[cut:]) == prf.prf_eval(inst, key, x)

    def test_distinct_keys_differ_on_probes(self):
        # The stretch map is injective per level, so distinct keys give
        # functions that differ everywhere; 16 probes is overkill.
        inst = generate_instance(8, make_rng(5, "sens"))
        rng = random.Random(5)
        differing = 0
        trials = 100
        for _ in range(trials):
            k1 = rng.randint(1, inst.q)
            k2 = rng.randint(1, inst.q)
            while k2 == k1:
                k2 = rng.randint(1, inst.q)
            probes = {format(rng.getrandbits(8), "08b") for _ in range(16)}
            if any(prf.prf_eval(inst, k1, x) != prf.prf_eval(inst, k2, x) for x in probes):
                differing += 1
        assert differing / trials > 0.99


# The walker's row width is the byte count of q, which has n - 1 bits.
WIDTHS = {3: 1, 6: 1, 16: 2, 24: 3, 32: 4, 40: 5, 48: 6, 56: 7, 63: 8, 64: 8, 65: 8, 72: 9, 128: 16}

# What one table build makes: the rows of g and of g_a, then their product.
ONE_BUILD = ["_pow_rows", "_pow_rows", "_row_product"]


class TestKeyedWalker:
    @pytest.mark.parametrize("n", sorted(WIDTHS))
    def test_every_walk_matches_prf_eval(self, n):
        # Below n = 64 walk 1 is prf_eval itself and walk 2 builds the
        # tables; from n = 64 on walk 1 builds them.  Every later walk uses
        # them, through the row product of width WIDTHS[n].
        for seed in range(3):
            inst = generate_instance(n, make_rng(seed, "keyed-walker"))
            rng = random.Random(seed)
            for key in (1, inst.q, rng.randint(1, inst.q)):
                walk = prf.KeyedWalker(inst, key)
                for i in range(50):
                    x = format(rng.getrandbits(n), f"0{n}b")
                    assert walk(x) == prf.prf_eval(inst, key, x), (key, x, i)
                    if i == 0:
                        assert (walk.tables is not None) == (n >= 64)
                assert walk.walks == 50 and walk.tables is not None
                assert [len(rows) for rows in walk.tables[:2]] == [WIDTHS[n]] * 2

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        # (helper, arguments) of every ``prf._pow_rows`` and
        # ``prf._row_product`` call: one per row build or product compile.
        built = []
        for name in ("_pow_rows", "_row_product"):

            def counting(*args, name=name, helper=getattr(prf, name)):
                built.append((name, args))
                return helper(*args)

            monkeypatch.setattr(prf, name, counting)
        return built

    @pytest.mark.parametrize("n", [6, 64])
    def test_one_product_per_walker_with_its_rows(self, n, built):
        # The walk that builds a walker's rows compiles one product of their
        # width with them, and no later walk builds either again.
        inst = generate_instance(n, make_rng(n, "one-product"))
        width = WIDTHS[n]
        first = 1 if n < 64 else 0  # the index of the building walk
        rng = random.Random(n)
        for key in (1, inst.q):
            walk = prf.KeyedWalker(inst, key)
            for i in range(5):
                x = format(rng.getrandbits(n), f"0{n}b")
                assert walk(x) == prf.prf_eval(inst, key, x)
                assert built == ([] if i < first else [
                    ("_pow_rows", (inst.p, inst.g, width)),
                    ("_pow_rows", (inst.p, inst.g_a, width)),
                    ("_row_product", (width,)),
                ]), i
            built.clear()

    def test_inputs_checked_on_every_walk(self, inst7, built):
        # The walker trusts its n-bit inputs: each keyed spec's ``eval``
        # checks the seed before its walker sees it, before the first walk
        # (prf_eval below n = 64) and after it, and a refused draw builds no rows.
        for make in (kgen_spec, gen_spec):
            spec = make(inst7, 2)
            for _ in range(2):
                for bad in ("0000", "01x", "01"):
                    with pytest.raises(ValueError):
                        spec.eval(bad)
                assert built == []
                assert spec.eval("101")[:6] == "101001"  # F(2, "101") = 1
            # the second walk built the rows of g and g_a and their product
            assert [name for name, _ in built] == ONE_BUILD
            built.clear()

    def test_key_checked_at_construction(self):
        # The walker checks its key once, when it is built, and both keyed
        # specs build theirs first, so a bad key is refused before any walk:
        # below n = 64, where walk 1 is prf_eval, and from n = 64 on.
        for n in (3, 64):
            inst = generate_instance(n, make_rng(n, "walker-key"))
            for key in (0, inst.q + 1, -1):
                for make in (prf.KeyedWalker, kgen_spec, gen_spec):
                    with pytest.raises(ValueError, match="outside canonical range"):
                        make(inst, key)

    def test_first_table_walk_checks_input(self, built):
        # At n = 64 the first walk builds rows instead of calling prf_eval;
        # each spec refuses what prf_eval refuses and then builds neither the
        # rows nor their product.
        inst = generate_instance(64, make_rng(64, "first-walk"))
        good = "01" * 32
        for make in (kgen_spec, gen_spec):
            spec = make(inst, 5)
            for x in ("01x" + good[3:], good[1:], good + "0"):
                with pytest.raises(ValueError):
                    prf.prf_eval(inst, 5, x)
                for _ in range(2):
                    with pytest.raises(ValueError):
                        spec.eval(x)
            assert built == []
            assert spec.eval(good)[64:128] == format(prf.prf_eval(inst, 5, good), "064b")
            assert [name for name, _ in built] == ONE_BUILD
            built.clear()


class TestLazyRandomFunction:
    def test_memoized(self):
        fn = prf.LazyRandomFunction(4, 11, random.Random(3))
        values = {x: fn(format(x, "04b")) for x in range(16)}
        for x in range(16):
            assert fn(format(x, "04b")) == values[x]

    def test_range_and_freshness(self):
        fn = prf.LazyRandomFunction(10, 23, random.Random(1))
        seen = {fn(format(x, "010b")) for x in range(200)}
        assert all(1 <= v <= 23 for v in seen)
        assert len(seen) > 10  # fresh inputs get fresh draws, not a constant

    def test_domain_checked(self):
        fn = prf.LazyRandomFunction(4, 11, random.Random(0))
        with pytest.raises(ValueError):
            fn("001")


class TestOracles:
    def test_membership_matches_function(self, inst7):
        oracle = prf.MembershipOracle(partial(prf.prf_eval, inst7, 1), max_queries=2)
        assert oracle.query("111") == 3
        assert oracle.query("000") == 1

    def test_counting_and_transcript(self, inst7):
        oracle = prf.MembershipOracle(partial(prf.prf_eval, inst7, 1), max_queries=5)
        for _ in range(5):
            oracle.query("101")
        assert oracle.count == 5
        assert oracle.queried == {"101"}

    def test_budget(self, inst7):
        oracle = prf.MembershipOracle(partial(prf.prf_eval, inst7, 1), max_queries=2)
        oracle.query("000")
        oracle.query("001")
        with pytest.raises(prf.QueryBudgetExceeded):
            oracle.query("010")

    def test_domain_violation(self, inst7):
        # The oracle leaves the domain check to its function and calls it
        # before the budget test: a bad point raises ValueError with budget
        # left and with none, a good point over budget raises
        # QueryBudgetExceeded, and neither is counted or recorded.
        bad_points = ("0101", "01", "01x", 5, None, b"010")
        for fn in (partial(prf.prf_eval, inst7, 1), prf.LazyRandomFunction(3, 7, random.Random(0))):
            oracle = prf.MembershipOracle(fn, max_queries=1)
            for bad in bad_points:
                with pytest.raises(ValueError):
                    oracle.query(bad)
            assert (oracle.count, oracle.queried) == (0, set())
            oracle.query("010")
            for bad in bad_points:
                with pytest.raises(ValueError):
                    oracle.query(bad)
            with pytest.raises(prf.QueryBudgetExceeded):
                oracle.query("011")
            assert (oracle.count, oracle.queried) == (1, {"010"})

    def test_memoized_random_function_through_oracle(self):
        fn = prf.LazyRandomFunction(3, 7, random.Random(0))
        oracle = prf.MembershipOracle(fn, max_queries=2)
        assert oracle.query("010") == oracle.query("010")

    def test_random_examples_consistent(self, inst7):
        oracle = prf.RandomExampleOracle(
            partial(prf.prf_eval, inst7, 2), 3, random.Random(9), max_queries=50
        )
        for _ in range(50):
            x, value = oracle.draw()
            assert value == prf.prf_eval(inst7, 2, x)
        assert oracle.count == 50

    def test_random_examples_uniform(self, inst7):
        draws = 10_000
        oracle = prf.RandomExampleOracle(
            partial(prf.prf_eval, inst7, 1), 3, random.Random(4), max_queries=draws
        )
        counts = {}
        for _ in range(draws):
            x, _ = oracle.draw()
            counts[x] = counts.get(x, 0) + 1
        expected = draws / 8
        four_sigma = 4 * math.sqrt(draws * (1 / 8) * (7 / 8))
        assert len(counts) == 8
        for c in counts.values():
            assert abs(c - expected) <= four_sigma

    def test_example_budget(self, inst7):
        oracle = prf.RandomExampleOracle(
            partial(prf.prf_eval, inst7, 1), 3, random.Random(0), max_queries=1
        )
        oracle.draw()
        with pytest.raises(prf.QueryBudgetExceeded):
            oracle.draw()
