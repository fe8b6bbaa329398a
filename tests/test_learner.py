import random
import weakref

import pytest

from conftest import brute_log, gen_eval
from genlearn import distributions as dist
from genlearn import learner
from genlearn.learner import (
    InvalidSampleError,
    learn_from_sample,
    learn_key,
    pac_generator_learn,
)
from genlearn.numtheory import DlogTable, generate_instance, is_qr
from genlearn.prf import check_bits, prf_eval
from genlearn.seeding import make_rng


def brute_learn_key(inst, x: str, fx: int) -> int:
    """Reference key recovery: ``learn_key``'s reversal with every level's
    log taken by ``brute_log`` in the base the input bit selects."""
    b = fx
    for ch in reversed(x):
        y = b if is_qr(inst.p, b) else inst.p - b
        b = brute_log(inst.p, inst.g if ch == "0" else inst.g_a, y)
    return b


class TestLearnKey:
    def test_worked_reversals(self, inst7):
        assert learn_key(inst7, "111", 3) == 1
        assert learn_key(inst7, "000", 1) == 1
        assert learn_key(inst7, "101", 1) == 2

    def test_inverts_forward_walk_exhaustively(self, inst7):
        for key in (1, 2, 3):
            for v in range(8):
                x = dist.bin_n(v, 3)
                assert learn_key(inst7, x, prf_eval(inst7, key, x)) == key

    @pytest.mark.parametrize("recover", [brute_learn_key, learn_key], ids=["brute", "bsgs"])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_exact_on_random_instances(self, n, recover):
        # ``brute_learn_key`` is the reference reversal above, checked against
        # the known keys before other tests trust it.
        for seed in range(5):
            inst = generate_instance(n, make_rng(seed, f"lk{n}"))
            rng = random.Random(seed)
            for _ in range(10):
                key = rng.randint(1, inst.q)
                x = format(rng.getrandbits(n), f"0{n}b")
                fx = prf_eval(inst, key, x)
                assert recover(inst, x, fx) == key

    def test_path_independence(self):
        # Samples at different inputs recover the same key.
        inst = generate_instance(10, make_rng(1, "path"))
        key = 17 % inst.q + 1
        keys = {
            learn_key(inst, x, prf_eval(inst, key, x))
            for x in (format(v, "010b") for v in (0, 37, 511, 1023))
        }
        assert keys == {key}

    def test_one_table_per_key(self, monkeypatch):
        # Each call builds exactly one table and none outlives it.
        built = []

        class CountingTable(DlogTable):
            def __init__(self, p, g):
                super().__init__(p, g)
                built.append(weakref.ref(self))

        monkeypatch.setattr(learner, "DlogTable", CountingTable)
        for n in (3, 12, 20):
            inst = generate_instance(n, make_rng(n, "one-table"))
            x = format(make_rng(n, "one-table-x").getrandbits(n), f"0{n}b")
            key = inst.q // 2 + 1
            fx = prf_eval(inst, key, x)
            before = len(built)
            assert learn_key(inst, x, fx) == key
            assert len(built) == before + 1
            assert all(ref() is None for ref in built)

    def test_keys_match_brute_on_acceptance_instances(self):
        # The instance and triple streams of acceptance criterion 1 (first
        # five instances per n) and the samples of criterion 2.
        for n in range(3, 17):
            for i in range(5):
                inst = generate_instance(n, make_rng(1000 + n, "inst", i))
                rng = make_rng(1000 + n, "triple", i)
                for _ in range(5):
                    key = rng.randint(1, inst.q)
                    x = format(rng.getrandbits(n), f"0{n}b")
                    fx = prf_eval(inst, key, x)
                    assert learn_key(inst, x, fx) == key
                    assert brute_learn_key(inst, x, fx) == key
        sizes = [3, 4, 5, 6, 7, 8, 9, 10]
        for i in range(100):
            inst = generate_instance(sizes[i % 8], make_rng(2000, "inst", i))
            key = make_rng(2000, "key", i).randint(1, inst.q)
            oracle = dist.SampleOracle(dist.gen_spec(inst, key), make_rng(2000, "draw", i))
            sample = oracle.sample()
            n = inst.n
            assert learn_from_sample(sample).key == key
            assert brute_learn_key(inst, sample[:n], int(sample[n : 2 * n], 2)) == key

    def test_value_range_checked(self, inst7):
        with pytest.raises(ValueError):
            learn_key(inst7, "000", 0)
        with pytest.raises(ValueError):
            learn_key(inst7, "000", 4)

    def test_input_length_checked(self, inst7):
        with pytest.raises(ValueError):
            learn_key(inst7, "0000", 1)


class TestLearnFromSample:
    def test_worked_sample(self, inst7):
        learned = learn_from_sample("111011111010100")
        assert (learned.inst.p, learned.inst.g, learned.inst.g_a) == (7, 2, 4)
        assert learned.key == 1
        assert learned.samples_used == 1

    def test_learned_spec_replays_generator(self, inst7):
        learned = learn_from_sample(gen_eval(inst7, 2, "010"))
        for v in range(8):
            x = dist.bin_n(v, 3)
            assert learned.spec.eval(x) == gen_eval(inst7, 2, x)

    def test_truncated_sample(self):
        with pytest.raises(InvalidSampleError):
            learn_from_sample("111011111010")  # 12 bits, not 5n

    def test_invalid_instance_suffix(self):
        # Suffix encodes p = 9 (not prime): "100 100 100" with g = g_a = 4.
        sample = "000" + "001" + "100100100"
        with pytest.raises(InvalidSampleError, match="instance"):
            learn_from_sample(sample)

    def test_value_field_out_of_range(self, inst7):
        suffix = dist.encode_params(inst7)
        with pytest.raises(InvalidSampleError, match="range"):
            learn_from_sample("000" + "100" + suffix)  # 4 > q = 3
        with pytest.raises(InvalidSampleError, match="range"):
            learn_from_sample("000" + "000" + suffix)  # 0 is not canonical

    def test_each_field_checked_once(self, monkeypatch):
        # The whole sample, the parameter suffix at ``decode_params``'s entry
        # and the input x in ``learn_key``: the slices that ``int(bits, 2)``
        # converts come from strings already checked.
        checked = []

        def counting(bits, length=None):
            checked.append(bits)
            check_bits(bits, length)

        for module in (dist, learner):
            monkeypatch.setattr(module, "check_bits", counting)
        assert learn_from_sample("111011111010100").key == 1
        assert checked == ["111011111010100", "111010100", "111"]

    def test_non_bit_characters(self):
        with pytest.raises(InvalidSampleError):
            learn_from_sample("00a" + "001" + "111010100")

    def test_feasibility_cap(self, inst7):
        with pytest.raises(ValueError, match="cap"):
            learn_from_sample("0" * 5 * 41)


class TestPacGeneratorLearn:
    def test_exact_table_match_small(self, inst7):
        oracle = dist.SampleOracle(dist.gen_spec(inst7, 1), random.Random(5))
        learned = pac_generator_learn(oracle)
        assert learned.key == 1
        target = dist.exact_table(dist.gen_spec(inst7, 1))
        assert dist.exact_table(learned.spec) == target
        assert dist.kl_divergence(target, dist.exact_table(learned.spec)) == 0.0

    def test_sample_complexity_is_one(self, inst7):
        oracle = dist.SampleOracle(dist.gen_spec(inst7, 3), random.Random(0))
        learned = pac_generator_learn(oracle)
        assert learned.samples_used == 1
        assert oracle.count == 1

    def test_hundred_random_instances_n8(self):
        # Exactness as a property run: 100/100 at n = 8.
        exact = 0
        for i in range(100):
            inst = generate_instance(8, make_rng(i, "pac8"))
            key = make_rng(i, "pac8-key").randint(1, inst.q)
            oracle = dist.SampleOracle(dist.gen_spec(inst, key), make_rng(i, "pac8-draw"))
            learned = pac_generator_learn(oracle)
            if learned.key == key and learned.inst == inst:
                exact += 1
        assert exact == 100

    def test_parse_errors_propagate(self):
        bad_spec = dist.GeneratorSpec(seed_bits=3, out_bits=15, eval_fn=lambda s: "0" * 15)
        oracle = dist.SampleOracle(bad_spec, random.Random(1))
        with pytest.raises(InvalidSampleError):
            pac_generator_learn(oracle)
