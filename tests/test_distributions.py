import itertools
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen_eval
from genlearn import boolfn, games, learner
from genlearn import distributions as dist
from genlearn import prf
from genlearn.numtheory import GroupInstance, generate_instance
from genlearn.prf import prf_eval
from genlearn.seeding import make_rng


class TestBinEncoding:
    def test_examples(self):
        assert dist.bin_n(3, 3) == "011"
        assert dist.bin_n(0, 4) == "0000"
        with pytest.raises(ValueError):
            dist.bin_n(7, 2)

    @given(v=st.integers(0, 2**24 - 1), extra=st.integers(0, 8))
    def test_roundtrip(self, v, extra):
        width = max(v.bit_length(), 1) + extra
        assert int(dist.bin_n(v, width), 2) == v


class TestParameterEncoding:
    def test_worked_example(self, inst7):
        assert dist.encode_params(inst7) == "111010100"

    def test_roundtrip_and_length(self):
        for n in (3, 5, 8, 11):
            inst = generate_instance(n, make_rng(n, "enc"))
            encoded = dist.encode_params(inst)
            assert len(encoded) == 3 * n
            assert dist.decode_params(encoded) == (inst.p, inst.g, inst.g_a)

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            dist.decode_params("0101")  # not a multiple of 3


class TestGeneratorEvals:
    def test_kgen_examples(self, inst7):
        assert dist.kgen_eval(inst7, 1, "000") == "000001"
        assert dist.kgen_eval(inst7, 1, "111") == "111011"
        for x in ("000", "010", "110"):
            assert len(dist.kgen_eval(inst7, 1, x)) == 6

    def test_gen_examples(self, inst7):
        assert gen_eval(inst7, 1, "111") == "111011111010100"
        assert gen_eval(inst7, 1, "000") == "000001111010100"

    def test_gen_suffix_constant(self, inst7):
        suffix = dist.encode_params(inst7)
        for v in range(8):
            assert gen_eval(inst7, 2, dist.bin_n(v, 3)).endswith(suffix)

    def test_length_mismatch(self, inst7):
        with pytest.raises(ValueError):
            dist.kgen_eval(inst7, 1, "00")

    def test_spec_lengths(self, inst7):
        assert (dist.kgen_spec(inst7, 1).seed_bits, dist.kgen_spec(inst7, 1).out_bits) == (3, 6)
        assert (dist.gen_spec(inst7, 1).seed_bits, dist.gen_spec(inst7, 1).out_bits) == (3, 15)

    def test_spec_output_length_checked(self):
        bad = dist.GeneratorSpec(seed_bits=2, out_bits=3, eval_fn=lambda s: s)
        with pytest.raises(ValueError):
            bad.eval("01")


class TestSpecWalks:
    @pytest.mark.parametrize("n", [3, 12, 64])
    def test_first_second_and_fiftieth_eval(self, n):
        inst = generate_instance(n, make_rng(n, "spec-walks"))
        rng = random.Random(n)
        key = rng.randint(1, inst.q)
        specs = ((dist.kgen_spec(inst, key), dist.kgen_eval),
                 (dist.gen_spec(inst, key), gen_eval))
        for spec, reference in specs:
            for i in range(1, 51):
                x = format(rng.getrandbits(n), f"0{n}b")
                out = spec.eval(x)
                if i in (1, 2, 50):
                    assert out == reference(inst, key, x), (reference.__name__, i)

    def test_one_table_pair_per_repeated_spec(self, monkeypatch):
        # Below n = 64 tables are built on a spec's second walk, one for g
        # and one for g_a, and shared by every later walk; a spec walked once
        # builds none, and an exact table, which expands the tree, walks no
        # seed.  From n = 64 on the first walk builds the one pair.
        built = []
        pow_rows = prf._pow_rows

        def counting_rows(p, base, width):
            built.append(base)
            return pow_rows(p, base, width)

        monkeypatch.setattr(prf, "_pow_rows", counting_rows)
        inst = generate_instance(12, make_rng(3, "table-count"))
        for make in (dist.kgen_spec, dist.gen_spec):
            once = make(inst, 5)
            once.eval("0" * 12)
            assert built == []
            many = make(inst, 5)
            for v in range(50):
                many.eval(dist.bin_n(v, 12))
            assert sorted(built) == sorted([inst.g, inst.g_a])
            built.clear()
        dist.exact_table(dist.kgen_spec(inst, 7))
        assert built == []
        oracle = dist.SampleOracle(dist.gen_spec(inst, 7), random.Random(1))
        for _ in range(50):
            oracle.sample()
        assert sorted(built) == sorted([inst.g, inst.g_a])
        built.clear()
        inst = generate_instance(64, make_rng(3, "table-count"))
        for make in (dist.kgen_spec, dist.gen_spec):
            make(inst, 5).eval("0" * 64)
            assert sorted(built) == sorted([inst.g, inst.g_a])
            built.clear()


class TestSampleOracle:
    def test_kgen_sampling_uniform(self, inst7):
        draws = 8000
        oracle = dist.SampleOracle(dist.kgen_spec(inst7, 1), random.Random(11))
        counts = {}
        for _ in range(draws):
            s = oracle.sample()
            counts[s] = counts.get(s, 0) + 1
        assert oracle.count == draws
        support = {dist.kgen_eval(inst7, 1, dist.bin_n(v, 3)) for v in range(8)}
        assert set(counts) == support
        four_sigma = 4 * math.sqrt(draws * (1 / 8) * (7 / 8))
        for c in counts.values():
            assert abs(c - draws / 8) <= four_sigma

    def test_constant_generator(self):
        spec = dist.GeneratorSpec(seed_bits=4, out_bits=2, eval_fn=lambda s: "10")
        oracle = dist.SampleOracle(spec, random.Random(0))
        assert {oracle.sample() for _ in range(20)} == {"10"}

    def test_point_mass_samples(self):
        # A generator with no seed bits has one seed, "", and one output.
        spec = dist.GeneratorSpec(seed_bits=0, out_bits=2, eval_fn=lambda s: s + "10")
        assert list(spec.outputs()) == ["10"]
        assert dist.exact_table(spec).probs == {"10": 1}
        oracle = dist.SampleOracle(spec, random.Random(0))
        assert {oracle.sample() for _ in range(5)} == {"10"}

    def test_gen_samples_share_suffix(self, inst7):
        oracle = dist.SampleOracle(dist.gen_spec(inst7, 2), random.Random(3))
        suffix = dist.encode_params(inst7)
        assert all(oracle.sample().endswith(suffix) for _ in range(50))

    @pytest.mark.parametrize("n", [12, 64])
    def test_each_field_checked_once(self, n, monkeypatch):
        # The sample-path twin of ``learn_from_sample``'s: a draw checks its
        # seed in ``GeneratorSpec.eval`` and its output, and the walker trusts
        # the checked seed.  Below n = 64 the first draw walks through
        # ``prf_eval``, whose ``ggm_walk`` checks the bits once more.
        checked = []
        check_bits = prf.check_bits

        def counting(bits, length=None):
            checked.append((bits, length))
            check_bits(bits, length)

        for module in (dist, prf):
            monkeypatch.setattr(module, "check_bits", counting)
        inst = generate_instance(n, make_rng(n, "sample-checks"))
        oracle = dist.SampleOracle(dist.gen_spec(inst, 5), random.Random(n))
        for i in range(20):
            checked.clear()
            out = oracle.sample()
            walk_check = [(out[:n], None)] if i == 0 and n < 64 else []
            assert checked == [(out[:n], n)] + walk_check + [(out, 5 * n)], i


class TestExactTable:
    def test_kgen_table_uniform(self, inst7):
        table = dist.exact_table(dist.kgen_spec(inst7, 1))
        assert table.is_exact()
        # Independent support enumeration: x || BIN_3(F(1, x)) over all x.
        want = {
            dist.bin_n(v, 3) + dist.bin_n(prf_eval(inst7, 1, dist.bin_n(v, 3)), 3): Fraction(1, 8)
            for v in range(8)
        }
        assert table.probs == want
        assert sum(table.probs.values()) == 1

    @staticmethod
    def _counted(spec):
        # The count path: one Fraction per distinct count, first-occurrence order.
        counts = Counter(spec.outputs())
        shared = {c: Fraction(c, 1 << spec.seed_bits) for c in set(counts.values())}
        return {y: shared[c] for y, c in counts.items()}

    def test_distinct_outputs_take_one_shared_value(self, inst7):
        inst12 = generate_instance(12, make_rng(12, "injective"))
        c = boolfn.BoolFn(2, "0110")
        specs = [
            dist.GeneratorSpec(2, 2, lambda s: "00" if s == "11" else s),  # one repeat
            dist.GeneratorSpec(3, 1, lambda s: s[0]),
            dist.kgen_spec(inst7, 2),
            dist.gen_spec(inst12, 5),
            dist.uniform_spec(4),
            boolfn.gen_from_function(c),
            boolfn.padded_generator(c, 4),
            boolfn.optimal_short_generator(c, 1),
        ]
        for spec in specs:
            want = self._counted(spec)
            probs = dist.exact_table(spec).probs
            assert probs == want and list(probs) == list(want)
            # One value object per distinct count, shared by its entries.
            assert len(set(map(id, probs.values()))) == len(set(want.values()))

    def test_float_mode(self, inst7):
        table = dist.exact_table(dist.kgen_spec(inst7, 1)).to_float()
        assert not table.is_exact()
        assert all(abs(v - 0.125) < 1e-15 for v in table.probs.values())

    def test_budget(self):
        spec = dist.uniform_spec(21)
        with pytest.raises(ValueError):
            dist.exact_table(spec)

    def test_tree_outputs_budget(self):
        # The check comes before the 2(q + 1)-entry fold rows and 2^n leaves.
        inst = generate_instance(22, make_rng(22, "tree-budget"))
        for make in (dist.kgen_spec, dist.gen_spec):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"seed space 2\^22 exceeds the 2\^20 enumeration budget"):
                make(inst, 1).outputs()
            assert time.perf_counter() - start < 0.5

    def test_exact_beyond_2_16_seeds(self):
        table = dist.exact_table(dist.uniform_spec(17))
        assert table.is_exact() and table.prob("0" * 17) == Fraction(1, 1 << 17)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            dist.DistTable(2, {"00": Fraction(1, 2)})  # mass missing
        with pytest.raises(ValueError):
            dist.DistTable(2, {"00": Fraction(3, 2), "01": Fraction(-1, 2)})
        with pytest.raises(ValueError):
            dist.DistTable(2, {"0": Fraction(1, 2), "01": Fraction(1, 2)})  # ragged

    @pytest.mark.parametrize("probs, message", [
        ({"00": Fraction(1, 2)}, "exact table sums to 1/2, not 1"),
        ({"00": Fraction(1, 3), "01": Fraction(1, 6), "10": Fraction(1, 3)},
         "exact table sums to 5/6, not 1"),
        ({"00": Fraction(2, 3), "01": Fraction(2, 3)}, "exact table sums to 4/3, not 1"),
        ({}, "exact table sums to 0, not 1"),
        ({"00": 0.5}, "table sums to 0.5, outside tolerance"),
        ({"00": Fraction(1, 2), "01": 0.25}, "table sums to 0.75, outside tolerance"),
        ({"00": Fraction(3, 2), "01": Fraction(-1, 2)}, "negative probability for 01"),
        ({"00": 1.5, "01": -0.5}, "negative probability for 01"),
        ({"0": Fraction(1, 2), "01": Fraction(1, 2)},
         "bitstring '0' has length 1, expected 2"),
        ({"0x": Fraction(1)}, "not a bitstring: '0x'"),
        # The first malformed entry decides the error, before any sum.
        ({"00": Fraction(-1, 2), "0x": Fraction(3, 2)}, "negative probability for 00"),
        ({"0x": Fraction(3, 2), "01": Fraction(-1, 2)}, "not a bitstring: '0x'"),
        ({"01": Fraction(1, 4), "1": Fraction(-1, 4)}, "bitstring '1' has length 1"),
        # nan < 0 and abs(nan - 1) > 1e-12 are both false: only an entry check sees NaN.
        ({"00": math.nan}, "probability for 00 is NaN"),
        ({"00": math.nan, "01": 0.5}, "probability for 00 is NaN"),
        ({"01": Fraction(1, 2), "00": math.nan}, "probability for 00 is NaN"),
    ])
    def test_validation_messages(self, probs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            dist.DistTable(2, probs)

    @pytest.mark.parametrize("probs", [
        {"00": Fraction(1, 3), "01": Fraction(1, 6), "10": Fraction(1, 2)},
        {"00": Fraction(1, 2), "01": 0.5},
        {"00": Fraction(0), "11": Fraction(1)},
        {"10": 1},
    ])
    def test_valid_mixed_denominators_and_types(self, probs):
        assert dist.DistTable(2, probs).probs == probs

    @pytest.mark.parametrize("fields", [
        (1, {"0": -1.0, "1": 2.0}),
        (1, {"x": 1.0}),
        (2, {"00": Fraction(1, 2)}),
        (2, {"0": Fraction(1, 2), "01": Fraction(1, 2)}),
    ])
    def test_make_and_replace_validate_like_the_constructor(self, fields):
        with pytest.raises(ValueError) as want:
            dist.DistTable(*fields)
        message = "^" + re.escape(str(want.value)) + "$"
        valid = dist.DistTable(1, {"0": 0.5, "1": 0.5})
        with pytest.raises(ValueError, match=message):
            dist.DistTable._make(fields)
        with pytest.raises(ValueError, match=message):
            valid._replace(n_bits=fields[0], probs=fields[1])
        if fields[0] == 1:
            with pytest.raises(ValueError, match=message):
                valid._replace(probs=fields[1])

    def test_make_and_replace_build_tables(self):
        table = dist.DistTable._make((1, {"0": Fraction(1, 2), "1": Fraction(1, 2)}))
        assert type(table) is dist.DistTable and table.is_exact()
        assert table._replace(probs={"1": 1.0}) == dist.DistTable(1, {"1": 1.0})

    @staticmethod
    def _per_entry_reference(n_bits, probs):
        # The validation as one loop per entry, then the sum; NaN is rejected
        # per entry after the sign.
        for bits, prob in probs.items():
            prf.check_bits(bits, n_bits)
            if prob < 0:
                raise ValueError(f"negative probability for {bits}")
            if prob != prob:
                raise ValueError(f"probability for {bits} is NaN")
        if all(isinstance(v, Fraction) for v in probs.values()):
            total = sum(probs.values(), Fraction(0))
            if total != 1:
                raise ValueError(f"exact table sums to {total}, not 1")
        else:
            total = 0
            for prob in probs.values():
                total += prob
            if abs(total - 1) > 1e-12:
                raise ValueError(f"table sums to {total}, outside tolerance")

    _keys = st.one_of(
        st.text("01", min_size=3, max_size=3),  # good at n_bits = 3
        st.text("01", max_size=5),  # ragged
        st.text("01x2 _", min_size=1, max_size=4),  # non-bit characters
        st.integers(0, 9), st.none(), st.binary(max_size=3),  # not str
    )
    _values = st.one_of(
        st.fractions(0, 1, max_denominator=12),
        st.floats(0, 1),
        st.fractions(-1, 0, max_denominator=12),
        st.floats(-1, 0),
        st.just(math.nan),
        st.integers(-1, 1), st.booleans(), st.none(), st.text("01", max_size=1),  # other types
    )

    @settings(max_examples=400, deadline=None)
    @given(probs=st.dictionaries(_keys, _values, max_size=5))
    def test_validation_matches_per_entry_reference(self, probs):
        self._check_against_reference(probs)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        exact=st.lists(st.booleans(), min_size=8, max_size=8),
        bad=st.sampled_from([None, "key", "ragged", "negative", "nan"]),
        where=st.integers(0, 7),
    )
    def test_validation_matches_reference_near_valid_tables(self, weights, exact, bad, where):
        # Tables that sum to 1 (or nearly), with at most one bad entry.
        weights[0] += 1
        total = sum(weights)
        probs = {
            dist.bin_n(v, 3): Fraction(w, total) if exact[v] else w / total
            for v, w in enumerate(weights)
        }
        keys = list(probs)
        key = keys[where % len(keys)]
        if bad == "key":
            probs["0x1"] = probs.pop(key)
        elif bad == "ragged":
            probs["0"] = probs.pop(key)
        elif bad in ("negative", "nan"):
            probs[key] = -probs[key] if bad == "negative" else math.nan
        self._check_against_reference(probs)

    def _check_against_reference(self, probs, n_bits=3):
        def outcome(build):
            try:
                build(n_bits, probs)
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            return None

        want = outcome(self._per_entry_reference)
        assert outcome(dist.DistTable) == want
        return want

    @pytest.mark.parametrize("bad", ["2", "x", " ", "\u00e9", "\ud800", "\x00"])
    @pytest.mark.parametrize("index", [0, 255, 256, 257, 599])
    def test_key_check_at_chunk_edges(self, index, bad):
        # The bit characters are checked 256 joined keys at a time: one bad
        # key of the right length on either side of a chunk edge, and in the
        # short last chunk, still raises the per-entry error.
        keys = [dist.bin_n(v, 10) for v in range(600)]
        keys[index] = keys[index][:4] + bad + keys[index][5:]
        probs = dict.fromkeys(keys, Fraction(1, 600))
        assert self._check_against_reference(probs, 10) == (
            ValueError, f"not a bitstring: {keys[index]!r}"
        )

    @pytest.mark.parametrize("key", ["0\u00e91", "0\ud8001"])
    def test_key_check_non_ascii(self, key):
        # Neither a non-ASCII character nor a lone surrogate may reach an
        # encoder error.
        want = (ValueError, f"not a bitstring: {key!r}")
        assert self._check_against_reference({key: Fraction(1)}) == want
        assert self._check_against_reference({"000": Fraction(1, 2), key: Fraction(1, 2)}) == want

    def test_table_build_peak_stays_near_its_size(self):
        # The outputs stream into the counts, and the key check holds one
        # chunk at a time: the build's tracemalloc peak stays within 1.2x of
        # what the finished table keeps.  A lookup table of all 2^n n-bit
        # strings read 1.53x at n = 12, one join of every key 1.89x.
        inst = generate_instance(12, make_rng(12, "table-peak"))
        spec = dist.gen_spec(inst, 5)
        dist.exact_table(spec)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = dist.exact_table(spec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.probs) == 1 << 12
        assert peak - start <= 1.2 * (kept - start)

    def test_key_out_of_range(self, inst7):
        for make in (dist.kgen_spec, dist.gen_spec):
            for key in (0, inst7.q + 1):
                with pytest.raises(ValueError, match="outside canonical range"):
                    dist.exact_table(make(inst7, key))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_tree_expansion_matches_per_seed_walks(self, n):
        # Reference: every seed walked from the root by kgen_eval/gen_eval,
        # one unit added per seed, as exact tables were built before.
        inst = generate_instance(n, make_rng(n, "tree-expansion"))
        key = random.Random(n).randint(1, inst.q)
        for make, reference in ((dist.kgen_spec, dist.kgen_eval),
                                (dist.gen_spec, gen_eval)):
            # Keys 1 and q reach the first and the last entry of the fold rows.
            for k in (1, inst.q):
                want = [reference(inst, k, dist.bin_n(v, n)) for v in range(1 << n)]
                assert list(make(inst, k).outputs()) == want
            outputs = [reference(inst, key, dist.bin_n(v, n)) for v in range(1 << n)]
            assert list(make(inst, key).outputs()) == outputs
            for exact in (True, False):
                unit = Fraction(1, 1 << n) if exact else 1.0 / (1 << n)
                want: dict = {}
                for y in outputs:
                    want[y] = want.get(y, 0) + unit
                table = dist.exact_table(make(inst, key))
                table = table if exact else table.to_float()
                assert table.probs == want
                assert list(table.probs) == list(want)
                assert {type(v) for v in table.probs.values()} == {type(unit)}

    @pytest.mark.parametrize("exact", [True, False])
    def test_prob_lookup(self, inst7, exact):
        table = dist.exact_table(dist.kgen_spec(inst7, 1))
        table = table if exact else table.to_float()
        assert table.prob("000001") == Fraction(1, 8)  # present: F(1, 000) = 1
        assert table.prob("000010") == 0  # absent from the support
        with pytest.raises(ValueError):
            table.prob("0000")


class TestEmpiricalTable:
    def test_concentrates_on_truth(self):
        # 1e5 SampleOracle draws from a known table at n = 4, counted here,
        # land within TV 0.02 of the exact table.
        inst = generate_instance(4, make_rng(0, "emp"))
        spec = dist.kgen_spec(inst, 3)
        truth = dist.exact_table(spec)
        oracle = dist.SampleOracle(spec, random.Random(8))
        draws = 100_000
        counts = Counter(oracle.sample() for _ in range(draws))
        observed = dist.DistTable(8, {s: Fraction(c, draws) for s, c in counts.items()})
        assert dist.tv_distance(truth, observed) < 0.02


class TestDistances:
    def test_kl_zero_on_equal(self, inst7):
        table = dist.exact_table(dist.kgen_spec(inst7, 1))
        assert dist.kl_divergence(table, table) == 0.0

    def test_kl_worked_example(self):
        half = dist.DistTable(2, {"00": Fraction(1, 2), "01": Fraction(1, 2)})
        full = dist.exact_table(dist.uniform_spec(2))
        assert dist.kl_divergence(half, full) == pytest.approx(1.0, abs=1e-15)

    def test_kl_disjoint_is_infinite(self):
        a = dist.DistTable(1, {"0": Fraction(1)})
        b = dist.DistTable(1, {"1": Fraction(1)})
        assert dist.kl_divergence(a, b) == math.inf

    def test_kl_asymmetry_witness(self):
        p = dist.DistTable(1, {"0": Fraction(3, 4), "1": Fraction(1, 4)})
        q = dist.DistTable(1, {"0": Fraction(1, 4), "1": Fraction(3, 4)})
        r = dist.DistTable(1, {"0": Fraction(9, 10), "1": Fraction(1, 10)})
        assert dist.kl_divergence(p, r) != dist.kl_divergence(r, p)
        assert dist.kl_divergence(p, q) == pytest.approx(dist.kl_divergence(q, p))

    def test_kl_domain_mismatch(self):
        with pytest.raises(ValueError):
            dist.kl_divergence(
                dist.exact_table(dist.uniform_spec(2)), dist.exact_table(dist.uniform_spec(3))
            )

    def test_tv_examples(self):
        table = dist.exact_table(dist.uniform_spec(2))
        assert dist.tv_distance(table, table) == 0
        a = dist.DistTable(1, {"0": Fraction(1)})
        b = dist.DistTable(1, {"1": Fraction(1)})
        assert dist.tv_distance(a, b) == 1
        half = dist.DistTable(2, {"00": Fraction(1, 2), "01": Fraction(1, 2)})
        assert dist.tv_distance(half, table) == Fraction(1, 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_tv_matches_sorted_union_fraction_formula(self, seed):
        def reference(p, q):
            total = 0
            for bits in sorted(set(p.probs) | set(q.probs)):
                total += abs(p.probs.get(bits, 0) - q.probs.get(bits, 0))
            return total / 2

        rng = random.Random(seed)
        n = rng.randint(1, 5)

        def random_table(exact):
            keys = [dist.bin_n(v, n) for v in range(1 << n) if rng.random() < 0.7]
            keys = keys or [dist.bin_n(rng.randrange(1 << n), n)]
            # Mixed denominators: each entry has its own.
            parts = [Fraction(rng.randint(0, 5), rng.randint(1, 9)) for _ in keys[1:]]
            rest = 1 - sum(parts, Fraction(0))
            while rest < 0:
                parts = [part / 2 for part in parts]
                rest = 1 - sum(parts, Fraction(0))
            probs = dict(zip(keys, [rest, *parts]))
            if not exact:
                probs = {k: float(v) for k, v in probs.items()}
            return dist.DistTable(n, probs)

        for p_exact, q_exact in itertools.product((True, False), repeat=2):
            p, q = random_table(p_exact), random_table(q_exact)
            for a, b in ((p, q), (q, p), (p, p)):
                got, want = dist.tv_distance(a, b), reference(a, b)
                assert got == want and type(got) is type(want)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
    def test_pinsker_on_random_pairs(self, seed, n):
        rng = random.Random(seed)
        size = 1 << n

        def random_table():
            weights = [rng.random() + 1e-9 for _ in range(size)]
            total = sum(weights)
            probs = {dist.bin_n(v, n): w / total for v, w in zip(range(size), weights)}
            # pin the float sum to 1 exactly
            probs[dist.bin_n(0, n)] += 1.0 - sum(probs.values())
            return dist.DistTable(n, probs)

        p, q = random_table(), random_table()
        kl = dist.kl_divergence(p, q)
        assert dist.tv_distance(p, q) <= math.log(2) * math.sqrt(kl) + 1e-12

    @staticmethod
    def _kl_reference(p, q):
        # One term per entry, in entry order, each from the Fraction ratio.
        total = 0.0
        for bits, prob in p.probs.items():
            if prob == 0:
                continue
            q_prob = q.probs.get(bits, 0)
            if q_prob == 0:
                return math.inf
            total += float(prob) * math.log2(float(Fraction(prob) / Fraction(q_prob)))
        if -1e-9 < total < 0.0:
            return 0.0
        return total

    @pytest.mark.parametrize("seed", range(40))
    def test_kl_matches_fraction_formula_bit_for_bit(self, seed):
        reference = self._kl_reference
        rng = random.Random(seed)
        n = rng.randint(1, 6)

        def random_keys():
            keys = [dist.bin_n(v, n) for v in range(1 << n) if rng.random() < 0.8]
            return keys or [dist.bin_n(0, n)]

        def random_table(exact, keys):
            # Some entries are zero.
            weights = [rng.choice([0, 1, 2, 3, 7, 1000]) for _ in keys]
            weights[0] += 1
            total = sum(weights)
            if exact:
                return dist.DistTable(n, {k: Fraction(w, total) for k, w in zip(keys, weights)})
            probs = {k: w / total for k, w in zip(keys, weights)}
            probs[keys[0]] += 1.0 - sum(probs.values())
            return dist.DistTable(n, probs)

        for p_exact, q_exact in itertools.product((True, False), repeat=2):
            keys = random_keys()
            p, q = random_table(p_exact, keys), random_table(q_exact, keys)
            r = random_table(q_exact, random_keys())
            for a, b in ((p, q), (q, p), (p, p), (p, r), (r, p)):
                assert dist.kl_divergence(a, b).hex() == reference(a, b).hex()

    @pytest.mark.parametrize("seed", range(20))
    def test_kl_with_shared_values_matches_reference(self, seed):
        # Exact tables share one value object per count.  Here both tables
        # draw each entry from a small pool of shared objects or as a fresh
        # equal copy, so one P object meets several Q objects and the reverse.
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        keys = [dist.bin_n(v, n) for v in range(1 << n)]

        def shared_table(exact):
            weights = [rng.choice([0, 1, 1, 2, 3]) for _ in keys]
            weights[0] += 1
            total = sum(weights)
            pool = {w: Fraction(w, total) if exact else w / total for w in set(weights)}
            probs = {}
            for k, w in zip(keys, weights):
                value = pool[w]
                probs[k] = value if rng.random() < 0.7 else value * 1  # an equal copy
            if not exact:
                probs[keys[0]] += 1.0 - sum(probs.values())
            return dist.DistTable(n, probs)

        for p_exact, q_exact in itertools.product((True, False), repeat=2):
            p, q = shared_table(p_exact), shared_table(q_exact)
            for a, b in ((p, q), (q, p), (p, p)):
                assert dist.kl_divergence(a, b).hex() == self._kl_reference(a, b).hex()
        # The CLI's case: two enumerated tables, equal or disjoint.
        inst = generate_instance(8, make_rng(8, "kl-shared"))
        a, b = (dist.exact_table(dist.gen_spec(inst, key)) for key in (3, 4))
        assert dist.kl_divergence(a, a) == self._kl_reference(a, a) == 0.0
        assert dist.kl_divergence(a, b) == math.inf


class TestFiles:
    def test_sample_file_roundtrip(self, tmp_path, inst7):
        oracle = dist.SampleOracle(dist.gen_spec(inst7, 1), random.Random(1))
        samples = [oracle.sample() for _ in range(10)]
        path = tmp_path / "samples.txt"
        dist.write_samples(path, samples)
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 10
        assert dist.read_samples(path) == samples


def _records():
    inst = GroupInstance(n=3, p=7, q=3, g=2, g_a=4)
    spec = dist.uniform_spec(1)
    return [
        inst,
        spec,
        dist.DistTable(1, {"0": 0.5, "1": 0.5}),
        boolfn.BoolFn(1, "01"),
        boolfn.classify_exact_generators(boolfn.BoolFn(1, "01"), 1),
        learner.LearnedGenerator(inst, 1, spec),
        games.run_distinguisher_game(games.coin_flip_adversary, "mq", 3, 2, seed=1),
        games.run_inference_game(games.RandomGuessStrategy(), 3, 2, seed=1),
    ]


class TestRecords:
    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
