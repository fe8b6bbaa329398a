import itertools
import random
import re
from fractions import Fraction

import pytest

from genlearn import boolfn as bf
from genlearn.distributions import GeneratorSpec, bin_n, exact_table, tv_distance


def all_functions(n):
    for v in range(1 << (1 << n)):
        yield bf.BoolFn(n, format(v, f"0{1 << n}b"))


class TestBoolFn:
    def test_construction_and_call(self):
        c = bf.BoolFn(2, "0110")
        assert [c(bin_n(v, 2)) for v in range(4)] == ["0", "1", "1", "0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            bf.BoolFn(2, "011")
        with pytest.raises(ValueError):
            bf.BoolFn(1, "0x")
        with pytest.raises(ValueError):
            bf.BoolFn(2, "0110")("011")
        # int(bits, 2) accepts each of these 3-character strings.
        for bits in ("-10", "+10", " 10", "0b1", "1_0"):
            with pytest.raises(ValueError):
                bf.BoolFn(3, "01101001")(bits)

    @pytest.mark.parametrize("fields", [(1, "0"), (2, "011"), (1, "0x"), (0, "01")])
    def test_make_and_replace_validate_like_the_constructor(self, fields):
        with pytest.raises(ValueError) as want:
            bf.BoolFn(*fields)
        message = "^" + re.escape(str(want.value)) + "$"
        with pytest.raises(ValueError, match=message):
            bf.BoolFn._make(fields)
        with pytest.raises(ValueError, match=message):
            bf.BoolFn(1, "01")._replace(n=fields[0], table=fields[1])
        if fields[0] == 1:
            with pytest.raises(ValueError, match=message):
                bf.BoolFn(1, "01")._replace(table=fields[1])

    def test_make_and_replace_build_functions(self):
        c = bf.BoolFn._make((2, "0110"))
        assert type(c) is bf.BoolFn and c("01") == "1"
        assert c._replace(table="0001") == bf.BoolFn(2, "0001")


class TestFunctionGenerators:
    def test_constant_zero_n1(self):
        table = bf.function_table(bf.BoolFn(1, "00"))
        assert table.probs == {"00": Fraction(1, 2), "10": Fraction(1, 2)}

    def test_identity_bit_n1(self):
        table = bf.function_table(bf.BoolFn(1, "01"))
        assert table.probs == {"00": Fraction(1, 2), "11": Fraction(1, 2)}

    def test_support_size(self):
        for c in (bf.BoolFn(3, "01100011"), bf.BoolFn(2, "1111")):
            assert len(bf.function_table(c).support()) == 1 << c.n


class TestDisagreement:
    def test_examples(self):
        c = bf.BoolFn(2, "0110")
        assert bf.disagreement_prob(c, c) == 0
        complement = bf.BoolFn(2, "1001")
        assert bf.disagreement_prob(c, complement) == 1
        one_off = bf.BoolFn(2, "0111")
        assert bf.disagreement_prob(c, one_off) == Fraction(1, 4)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            bf.disagreement_prob(bf.BoolFn(1, "01"), bf.BoolFn(2, "0110"))

    def test_tv_identity_spot(self):
        # TV(D_h, D_c) = Pr[h != c]; the exhaustive run lives in acceptance.
        rng = random.Random(12)
        for _ in range(25):
            h, c = bf.BoolFn.random(3, rng), bf.BoolFn.random(3, rng)
            assert tv_distance(
                bf.function_table(h), bf.function_table(c)
            ) == bf.disagreement_prob(h, c)

    def test_pac_error_equals_tv_error(self):
        # Wrapping a hypothesis as a generator turns PAC error into TV error.
        target = bf.BoolFn(4, format(0xBEEF, "016b"))
        hypothesis = bf.BoolFn(4, format(0xBEED, "016b"))
        pac_error = bf.disagreement_prob(hypothesis, target)
        generator_error = tv_distance(
            exact_table(bf.gen_from_function(hypothesis)),
            bf.function_table(target),
        )
        assert generator_error == pac_error


class TestPaddedAndPermuted:
    def test_padded_equals_plain_at_m_n(self):
        c = bf.BoolFn(2, "0101")
        assert exact_table(bf.padded_generator(c, 2)) == bf.function_table(c)

    def test_padding_does_not_move_table(self):
        c = bf.BoolFn(2, "1010")
        assert exact_table(bf.padded_generator(c, 4)) == bf.function_table(c)

    def test_under_padding_rejected(self):
        with pytest.raises(ValueError):
            bf.padded_generator(bf.BoolFn(2, "1010"), 1)

    def test_random_permutations_stay_exact(self):
        # The padded generator read through any seed permutation induces the
        # same table; classify_exact_generators checks every permutation at
        # m <= 2, this spot-checks m = 3.
        rng = random.Random(3)
        c = bf.BoolFn(2, "0110")
        target = bf.function_table(c)
        padded = bf.padded_generator(c, 3)
        for _ in range(10):
            images = rng.sample(range(8), 8)
            permuted = GeneratorSpec(
                3, 3, lambda s, im=images: padded.eval(bin_n(im[int(s, 2)], 3))
            )
            assert exact_table(permuted) == target


class TestShortGenerators:
    def test_tv_examples(self):
        c2 = bf.BoolFn(2, "0110")
        achieved = tv_distance(
            exact_table(bf.optimal_short_generator(c2, 1)), bf.function_table(c2)
        )
        assert achieved == Fraction(1, 2)
        c3 = bf.BoolFn(3, "01100011")
        achieved = tv_distance(
            exact_table(bf.optimal_short_generator(c3, 1)), bf.function_table(c3)
        )
        assert achieved == Fraction(3, 4)

    def test_zero_seed_bits_is_a_point_mass(self):
        # The one 0-bit seed is "": the generator puts all its mass on 0^n || c(0^n).
        for n in (1, 2, 3):
            for c in all_functions(n):
                spec = bf.optimal_short_generator(c, 0)
                assert spec.eval("") == "0" * n + c.table[0]
                achieved = tv_distance(exact_table(spec), bf.function_table(c))
                assert achieved == 1 - Fraction(1, 1 << n)

    def test_short_requires_m_below_n(self):
        with pytest.raises(ValueError):
            bf.optimal_short_generator(bf.BoolFn(2, "0110"), 2)

    def test_nothing_beats_the_floor_at_n2_m1(self):
        # All 64 generators {0,1} -> {0,1}^3, against every target c.
        outputs = ["".join(bits) for bits in itertools.product("01", repeat=3)]
        for c in all_functions(2):
            target = bf.function_table(c)
            best = Fraction(2)
            for combo in itertools.product(outputs, repeat=2):
                spec = GeneratorSpec(1, 3, lambda s, o=combo: o[int(s, 2)])
                best = min(best, tv_distance(exact_table(spec), target))
            assert best == Fraction(1, 2)


class TestExactClassification:
    def test_budget(self):
        with pytest.raises(ValueError):
            bf.classify_exact_generators(bf.BoolFn(2, "0110"), 3)

    def test_n1_m1_counts(self):
        for c in all_functions(1):
            report = bf.classify_exact_generators(c, 1)
            assert report.exact_count == 2
            assert report.raw_permutation_count == 2
            assert report.matches_characterization

    def test_n1_m2_counts(self):
        # Distinct count 6 was established by this same enumeration oracle
        # before being frozen here: 24 raw seed permutations collapse onto
        # C(4, 2) = 6 distinct maps (choice of which two seeds hit each
        # support string).
        for c in all_functions(1):
            report = bf.classify_exact_generators(c, 2)
            assert report.exact_count == 6
            assert report.raw_permutation_count == 24
            assert report.distinct_permuted_count == 6
            assert report.matches_characterization

    def test_n2_m2_characterization(self):
        for c in all_functions(2):
            report = bf.classify_exact_generators(c, 2)
            assert report.exact_count == 24
            assert report.matches_characterization

    def test_under_seeded_has_no_exact_generator(self):
        # 2^n does not divide the 2^m seeds: no map hits each of the 2^n
        # support strings equally often, and no padded generator exists.
        for c in all_functions(2):
            report = bf.classify_exact_generators(c, 1)
            assert report.exact_functions == ()
            assert report.distinct_permuted_count == 0
            assert report.matches_characterization

    def test_report_dict(self):
        report = bf.classify_exact_generators(bf.BoolFn(1, "01"), 1)
        assert report.exact_count == 2
