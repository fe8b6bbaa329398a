import json
import math

import pytest

from conftest import gen_eval
from genlearn import games, prf
from genlearn.distributions import GeneratorSpec, bin_n, kgen_eval, uniform_spec
from genlearn.numtheory import generate_instance
from genlearn.seeding import make_rng


class ReplayStrategy:
    """Misbehaving strategy: replays a queried point as its exam."""

    def choose_exam(self, params, oracle, rng):
        x = format(rng.getrandbits(params.n), f"0{params.n}b")
        oracle.query(x)
        return x

    def guess(self, pair, rng):
        return rng.randrange(2)


class TestHoeffding:
    def test_halfwidth_formula(self):
        assert games.hoeffding_halfwidth(400) == pytest.approx(
            math.sqrt(math.log(2 / 0.01) / 800)
        )

    def test_default_budget(self):
        assert games.default_query_budget(8) == 640


class TestDistinguisherGame:
    def test_key_learner_has_near_perfect_advantage(self):
        result = games.run_distinguisher_game(
            games.key_learner_adversary, "mq", 8, 200, seed=101
        )
        assert result.advantage >= 0.9
        assert 0 <= result.p_random <= 0.1
        assert result.p_real >= 0.95

    def test_key_learner_with_random_examples(self):
        result = games.run_distinguisher_game(
            games.key_learner_adversary, "pex", 8, 200, seed=5
        )
        assert result.advantage >= 0.9

    @pytest.mark.parametrize("flavor", ["mq", "pex"])
    def test_constant_adversary_has_no_advantage(self, flavor):
        result = games.run_distinguisher_game(
            games.make_constant_adversary(1), flavor, 6, 100, seed=2
        )
        assert result.advantage == 0.0
        assert result.p_real == result.p_random == 1.0

    def test_coin_flip_adversary_within_ci(self):
        result = games.run_distinguisher_game(
            games.coin_flip_adversary, "mq", 6, 200, seed=3
        )
        assert abs(result.advantage) <= result.ci_halfwidth

    def test_ci_formula(self):
        result = games.run_distinguisher_game(
            games.make_constant_adversary(0), "mq", 4, 80, seed=0
        )
        assert result.ci_halfwidth == pytest.approx(2 * games.hoeffding_halfwidth(40))

    def test_rates_lie_in_unit_interval(self):
        result = games.run_distinguisher_game(
            games.coin_flip_adversary, "pex", 4, 60, seed=9
        )
        assert 0.0 <= result.p_real <= 1.0
        assert 0.0 <= result.p_random <= 1.0
        assert abs(result.advantage) <= 1.0

    def test_arms_see_identical_instance_stream(self):
        seen = []

        def spy(params, oracle, rng):
            seen.append(params)
            return 0

        games.run_distinguisher_game(spy, "mq", 5, 40, seed=4)
        assert seen[:20] == seen[20:]  # first the real arm, then the random arm

    def test_reproducible_bit_for_bit(self):
        run = lambda: games.run_distinguisher_game(
            games.key_learner_adversary, "mq", 6, 60, seed=77
        )
        assert run() == run()
        other = games.run_distinguisher_game(
            games.key_learner_adversary, "mq", 6, 60, seed=78
        )
        assert other != run()

    def test_budget_overrun_invalidates_trial(self):
        def greedy(params, oracle, rng):
            for v in range(1000):
                oracle.query(format(v % (1 << params.n), f"0{params.n}b"))
            return 1

        result = games.run_distinguisher_game(greedy, "mq", 4, 20, seed=1)
        assert result.invalid_real == result.invalid_random == 10
        # The key learner needs at most 2 membership queries, so no budget
        # of 2 or more invalidates its trials.
        counts = []

        def counting(params, oracle, rng):
            accept = games.key_learner_adversary(params, oracle, rng)
            counts.append(oracle.count)
            return accept

        result = games.run_distinguisher_game(counting, "mq", 4, 20, seed=1)
        assert result.invalid_real == result.invalid_random == 0
        assert len(counts) == 20 and max(counts) <= 2

    @staticmethod
    def overrun_first(k):
        # The real arm runs first: its first k trials overrun the budget.
        calls = []

        def adversary(params, oracle, rng):
            calls.append(None)
            if len(calls) <= k:
                for _ in range(oracle.max_queries + 1):
                    oracle.query("0" * params.n)
            return 1

        return adversary

    def test_rates_and_ci_over_valid_trials(self):
        result = games.run_distinguisher_game(self.overrun_first(3), "mq", 4, 20, seed=1)
        assert (result.invalid_real, result.invalid_random) == (3, 0)
        assert result.p_real == result.p_random == 1.0
        assert result.ci_halfwidth == (
            games.hoeffding_halfwidth(7) + games.hoeffding_halfwidth(10)
        )

    def test_arm_without_valid_trials_has_no_rate(self):
        result = games.run_distinguisher_game(self.overrun_first(10), "mq", 4, 20, seed=1)
        assert result.invalid_real == 10 and result.invalid_random == 0
        assert result.p_real is None and result.p_random == 1.0
        assert result.advantage is None and result.ci_halfwidth is None
        record = json.loads(json.dumps(result.to_dict()))
        assert record["p_real"] is None and record["advantage"] is None and record["ci"] is None

    @pytest.mark.parametrize("output", ["0", True, False, 2, -1, 1.0, None])
    def test_output_that_is_not_a_bit_is_refused(self, output):
        # A string "0" is truthy: it once read p_real = p_random = 1.0.
        with pytest.raises(TypeError, match=f"adversary returned {output!r}, not the int 0 or 1"):
            games.run_distinguisher_game(games.make_constant_adversary(output), "mq", 6, 20, seed=1)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            games.run_distinguisher_game(games.coin_flip_adversary, "mq", 4, 5, seed=0)
        with pytest.raises(ValueError):
            games.run_distinguisher_game(games.coin_flip_adversary, "qmq", 4, 4, seed=0)


class TestInferenceGame:
    def test_key_learner_strategy_passes(self):
        result = games.run_inference_game(games.KeyLearnerStrategy(), 8, 200, seed=11)
        assert result.pass_rate >= 0.95
        assert result.violations == 0

    def test_random_guesser_near_half(self):
        result = games.run_inference_game(games.RandomGuessStrategy(), 8, 400, seed=12)
        assert abs(result.pass_rate - 0.5) <= result.ci_halfwidth

    def test_replaying_a_query_is_a_violation(self):
        result = games.run_inference_game(ReplayStrategy(), 6, 30, seed=13)
        assert result.violations == 30
        assert result.passes == 0 and result.pass_rate == 0.0

    def test_strategy_error_propagates(self):
        # Only a malformed or reused exam is a violation; a strategy bug is not.
        class BuggyStrategy(games.RandomGuessStrategy):
            def choose_exam(self, params, oracle, rng):
                raise ValueError("strategy bug")

        with pytest.raises(ValueError, match="strategy bug"):
            games.run_inference_game(BuggyStrategy(), 6, 5, seed=17)

    def test_malformed_exam_is_a_violation(self):
        # Whatever the exam is, if it is not an n-bit string the trial is a
        # violation, not a crash of the harness.
        class FixedExamStrategy(games.RandomGuessStrategy):
            def __init__(self, exam):
                self.exam = exam

            def choose_exam(self, params, oracle, rng):
                return self.exam

        for exam in ("0" * 5, 5, None, b"0" * 6, "01x010"):
            result = games.run_inference_game(FixedExamStrategy(exam), 6, 5, seed=18)
            assert result.violations == 5 and result.passes == 0, exam

    def test_each_point_checked_once(self, monkeypatch):
        # The games twin of ``SampleOracle``'s: the oracle's function checks
        # the query point once, and the harness's walk checks the exam once.
        checked = []
        check_bits = prf.check_bits

        def counting(bits, length=None):
            checked.append((bits, length))
            check_bits(bits, length)

        # games imports no check_bits; patching it there too counts one
        # that a later import brings back.
        for module in (prf, games):
            monkeypatch.setattr(module, "check_bits", counting, raising=False)

        class OneQueryStrategy(games.RandomGuessStrategy):
            guesses = 0

            def choose_exam(self, params, oracle, rng):
                checked.clear()
                oracle.query("0" * params.n)
                assert checked == [("0" * params.n, None)]
                checked.clear()
                return "1" * params.n

            def guess(self, pair, rng):
                assert checked == [("1" * 6, None)]
                self.guesses += 1
                return super().guess(pair, rng)

        strategy = OneQueryStrategy()
        result = games.run_inference_game(strategy, 6, 5, seed=19)
        assert strategy.guesses == 5 and result.violations == 0

    def test_transcripts_well_formed(self):
        # Each presented pair holds the true value, which the key learner
        # predicts, at one of its two positions.
        class CheckingStrategy(games.KeyLearnerStrategy):
            pairs = 0

            def choose_exam(self, params, oracle, rng):
                exam = super().choose_exam(params, oracle, rng)
                assert exam not in oracle.queried
                return exam

            def guess(self, pair, rng):
                assert self._predicted in pair and all(v >= 1 for v in pair)
                self.pairs += 1
                return super().guess(pair, rng)

        strategy = CheckingStrategy()
        result = games.run_inference_game(strategy, 6, 40, seed=14)
        assert result.violations == 0 and strategy.pairs == 40

    def test_decoy_collision_scores_half(self):
        # When the decoy equals the true value the pair is two equal
        # numbers; any strategy is then at the mercy of the shuffle.  The
        # key learner loses no other trial.
        class RecordingStrategy(games.KeyLearnerStrategy):
            def __init__(self):
                self.pairs = []

            def guess(self, pair, rng):
                self.pairs.append(pair)
                return super().guess(pair, rng)

        strategy = RecordingStrategy()
        result = games.run_inference_game(strategy, 6, 300, seed=15)
        assert len(strategy.pairs) == result.trials == 300
        collisions = sum(a == b for a, b in strategy.pairs)
        assert result.trials - result.passes <= collisions

    def test_no_scored_trial_has_no_rate(self):
        class HungryStrategy(games.RandomGuessStrategy):
            def choose_exam(self, params, oracle, rng):
                while True:
                    oracle.query("0" * params.n)

        result = games.run_inference_game(HungryStrategy(), 4, 6, seed=19)
        assert result.invalid == 6
        assert result.pass_rate is None and result.ci_halfwidth is None
        record = json.loads(json.dumps(result.to_dict()))
        assert record["pass_rate"] is None and record["ci"] is None

    def test_ci_and_rate_fields(self):
        result = games.run_inference_game(games.RandomGuessStrategy(), 4, 100, seed=16)
        assert result.ci_halfwidth == pytest.approx(games.hoeffding_halfwidth(100))
        assert 0.0 <= result.pass_rate <= 1.0

    @pytest.mark.parametrize("guess", [True, False, "1", 2, 0.0])
    def test_guess_that_is_not_a_bit_is_refused(self, guess):
        # A guess of True once scored as index 1 and passed 9 of 20 trials.
        class NonBitStrategy(games.RandomGuessStrategy):
            def guess(self, pair, rng):
                return guess

        with pytest.raises(TypeError, match=f"guess returned {guess!r}, not the int 0 or 1"):
            games.run_inference_game(NonBitStrategy(), 6, 20, seed=1)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            games.run_inference_game(games.RandomGuessStrategy(), 4, 0, seed=0)


class _ExactExpectations:
    # At each size tested below, only one usable safe prime p = 2q + 1 has
    # n bits, so q is the same in every trial.  The key learner is always right, so it fails
    # only when the decoy equals the true value (probability 1/q) and the
    # shuffled pair is then a coin toss: infer passes at 1 - 1/(2q).  In the
    # distinguisher it always accepts the keyed arm, and accepts a random
    # function when an independent uniform value hits its prediction: 1/q.
    n: int
    q: int
    seeds, trials = 200, 40

    def primes_drawn(self):
        return {generate_instance(self.n, make_rng(s, "instance", 0)).p for s in range(200)}

    def check(self, rates, halfwidths, want, variance):
        # The printed 99% Hoeffding intervals cover ``want`` at least at their
        # nominal rate, and the mean estimate lies within 4 standard errors.
        assert sum(abs(r - want) <= h for r, h in zip(rates, halfwidths)) >= 0.99 * self.seeds
        se = math.sqrt(variance / (self.seeds * self.trials))
        assert abs(sum(rates) / self.seeds - want) <= 4 * se

    def test_key_learner_infer(self):
        results = [games.run_inference_game(games.KeyLearnerStrategy(), self.n, self.trials, s)
                   for s in range(self.seeds)]
        want = 1 - 1 / (2 * self.q)
        rates = [r.pass_rate for r in results]
        self.check(rates, [r.ci_halfwidth for r in results], want, want * (1 - want))

    @pytest.mark.parametrize("flavor", ["mq", "pex"])
    def test_key_learner_distinguish(self, flavor):
        adversary = games.key_learner_adversary
        results = [games.run_distinguisher_game(adversary, flavor, self.n, 2 * self.trials, s)
                   for s in range(self.seeds)]
        assert {r.p_real for r in results} == {1.0}
        # p_real is exact, so the advantage varies only with p_random.
        p_random = 1 / self.q
        advantages = [r.advantage for r in results]
        halfwidths = [r.ci_halfwidth for r in results]
        self.check(advantages, halfwidths, 1 - p_random, p_random * (1 - p_random))

    def test_coin_flip_distinguish(self):
        # Each arm accepts with probability 1/2, so the advantage is 0, and
        # its estimate has variance 1/4 + 1/4 per trial of one arm.
        adversary = games.coin_flip_adversary
        results = [games.run_distinguisher_game(adversary, "mq", self.n, 2 * self.trials, s)
                   for s in range(self.seeds)]
        advantages = [r.advantage for r in results]
        self.check(advantages, [r.ci_halfwidth for r in results], 0.0, 0.5)

    @pytest.mark.parametrize("strategy, expected", [
        (games.RandomGuessStrategy, lambda n, q: 1 / 2),
        (lambda: games.learner_to_inference(games.uniform_distribution_learner, "kgen"),
         lambda n, q: 1 / 2),
        # The learner's exam repeats its one sampled x with probability
        # 1/2^n and then falls back to a coin flip; otherwise it passes as
        # the key learner does.  Enumerating every instance, key, sample,
        # draw, decoy, shuffle and coin at n = 4 gives the same 7/8.
        (lambda: games.learner_to_inference(games.exact_generator_learner, "gen"),
         lambda n, q: (1 - 2**-n) * (1 - 1 / (2 * q)) + 2**-n / 2),
    ], ids=["infer-random", "reduction-uniform", "reduction-exact"])
    def test_inference_expectation(self, strategy, expected):
        results = [games.run_inference_game(strategy(), self.n, self.trials, s)
                   for s in range(self.seeds)]
        want = expected(self.n, self.q)
        rates = [r.pass_rate for r in results]
        self.check(rates, [r.ci_halfwidth for r in results], want, want * (1 - want))


class TestExactExpectations(_ExactExpectations):
    n, q = 4, 5

    def test_only_instance_is_p11(self):
        assert self.primes_drawn() == {11}  # 13 is not safe


class TestExactExpectationsAtN5(_ExactExpectations):
    n, q = 5, 11

    def test_only_instance_is_p23(self):
        assert self.primes_drawn() == {23}  # 2q + 1 for q = 13 is 27


class TestLearnerInferenceReduction:
    def test_exact_learner_dominates(self):
        reduction = games.learner_to_inference(games.exact_generator_learner, form="gen")
        result = games.run_inference_game(reduction, 8, 200, seed=21)
        assert result.pass_rate >= 0.95
        cases = reduction.case_log
        assert len(cases) == 200
        # With one sample used, fresh-x-and-match should dominate:
        # 1 - |X|/2^n minus a small collision allowance.
        a_freq = cases.count("a") / len(cases)
        assert a_freq >= 1 - 1 / 256 - 0.02

    def test_learned_spec_walked_once_builds_no_tables(self, monkeypatch):
        # The exact learner's spec is evaluated once per trial, which is
        # cheaper with builtin pow than with fixed-base tables.
        built = []
        pow_rows = prf._pow_rows

        def counting_rows(*args):
            built.append(args)
            return pow_rows(*args)

        monkeypatch.setattr(prf, "_pow_rows", counting_rows)
        reduction = games.learner_to_inference(games.exact_generator_learner, form="gen")
        games.run_inference_game(reduction, 8, 50, seed=25)
        assert reduction.case_log.count("a") >= 45
        assert built == []

    def test_uniform_learner_near_half(self):
        reduction = games.learner_to_inference(games.uniform_distribution_learner, form="kgen")
        result = games.run_inference_game(reduction, 8, 400, seed=22)
        assert abs(result.pass_rate - 0.5) <= result.ci_halfwidth
        # A uniform 2n-bit string almost never matches either exam value.
        assert reduction.case_log.count("b") >= 390

    def test_point_mass_learner_is_scored(self):
        # A learner may return a generator with no seed bits; its one output
        # is the reduction's draw, here the fresh exam 1^n with the guess y = 1:
        # case a or b, never c.
        def point_mass_learner(oracle, n, epsilon, delta, rng):
            return GeneratorSpec(0, 2 * n, lambda s: "1" * n + bin_n(1, n))

        reduction = games.learner_to_inference(point_mass_learner, form="kgen")
        result = games.run_inference_game(reduction, 4, 100, seed=26)
        assert result.violations == result.invalid == 0
        assert sorted(set(reduction.case_log)) == ["a", "b"] and len(reduction.case_log) == 100

    def test_failing_learner_falls_back_to_case_c(self):
        def broken_learner(oracle, n, epsilon, delta, rng):
            oracle.sample()
            raise ValueError("no generator today")

        reduction = games.learner_to_inference(broken_learner, form="gen")
        result = games.run_inference_game(reduction, 6, 200, seed=23)
        assert reduction.case_log.count("c") == 200
        assert result.violations == 0  # fallback exams are fresh
        assert abs(result.pass_rate - 0.5) <= result.ci_halfwidth

    def test_no_fresh_exam_left_is_a_violation(self):
        # 80 samples at n = 3 query all 8 inputs, so no fresh exam exists.
        def exhaustive_learner(oracle, n, epsilon, delta, rng):
            for _ in range(80):
                oracle.sample()
            return uniform_spec(2 * n)

        reduction = games.learner_to_inference(exhaustive_learner, form="kgen")
        result = games.run_inference_game(reduction, 3, 2, 1)
        assert result.violations == 2
        assert reduction.case_log == []

    @staticmethod
    def probe_samples(form: str, n: int = 6, trials: int = 3, seed: int = 26):
        """Run a learner that draws 10 samples per trial and returns uniform
        noise; check that each trial spends one membership query per sample,
        at the sample's x, and yield its instance, key and samples."""
        drawn = []

        def probe_learner(oracle, n, epsilon, delta, rng):
            drawn.append([oracle.sample() for _ in range(10)])
            return uniform_spec(2 * n)

        class Probe:
            def __init__(self):
                self.reduction = games.learner_to_inference(probe_learner, form=form)

            def choose_exam(self, params, oracle, rng):
                exam = self.reduction.choose_exam(params, oracle, rng)
                assert oracle.count == 10
                assert oracle.queried == {s[: params.n] for s in drawn[-1]}
                return exam

            def guess(self, pair, rng):
                return self.reduction.guess(pair, rng)

        games.run_inference_game(Probe(), n, trials, seed)
        assert len(drawn) == trials
        for i, samples in enumerate(drawn):
            # The harness's per-trial instance and key.
            inst = generate_instance(n, make_rng(seed, "instance", i))
            key = make_rng(seed, "key", i).randint(1, inst.q)
            yield inst, key, samples

    def test_simulated_oracle_serves_generator_samples(self):
        for inst, key, samples in self.probe_samples("gen"):
            assert samples == [gen_eval(inst, key, s[: inst.n]) for s in samples]

    def test_kgen_form_has_no_suffix(self):
        for inst, key, samples in self.probe_samples("kgen"):
            assert samples == [kgen_eval(inst, key, s[: inst.n]) for s in samples]

    def test_budget_overrun_propagates_as_invalid(self):
        def hungry_learner(oracle, n, epsilon, delta, rng):
            while True:
                oracle.sample()

        reduction = games.learner_to_inference(hungry_learner, form="gen")
        result = games.run_inference_game(reduction, 4, 10, seed=24)
        assert result.invalid == 10
        assert reduction.case_log == []  # no trial reached guess

    def test_proof_default_epsilon(self):
        captured = {}

        def probe_learner(oracle, n, epsilon, delta, rng):
            captured["epsilon"] = epsilon
            captured["delta"] = delta
            return uniform_spec(2 * n)

        games.run_inference_game(
            games.learner_to_inference(probe_learner, form="kgen"), 8, 1, seed=25
        )
        assert captured["epsilon"] == pytest.approx(3.0)  # log2(8)
        assert captured["delta"] == 0.5


class TestResultSerialization:
    def test_advantage_json_fields(self):
        result = games.run_distinguisher_game(
            games.make_constant_adversary(1), "mq", 4, 20, seed=31
        )
        record = result.to_dict()
        for field in ("game", "n", "trials", "p_real", "p_random", "advantage", "ci", "seed"):
            assert field in record

    def test_inference_json_fields(self):
        record = games.run_inference_game(games.RandomGuessStrategy(), 4, 10, seed=32).to_dict()
        for field in ("game", "n", "trials", "pass_rate", "ci", "violations", "seed"):
            assert field in record
