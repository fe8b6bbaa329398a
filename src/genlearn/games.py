"""Monte-Carlo harnesses: distinguisher games, the inference exam, and the
learner-to-inference reduction.

Each game derives every trial's randomness from its master seed with
``seeding.make_rng``.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import NamedTuple

from .distributions import (
    GeneratorSpec,
    SampleOracle,
    bin_n,
    encode_params,
    uniform_spec,
)
from .learner import learn_key, pac_generator_learn
from .numtheory import GroupInstance, generate_instance
from .prf import (
    LazyRandomFunction,
    MembershipOracle,
    QueryBudgetExceeded,
    RandomExampleOracle,
    prf_eval,
    random_bits,
)
from .seeding import make_rng

__all__ = [
    "HOEFFDING_ALPHA",
    "hoeffding_halfwidth",
    "AdvantageEstimate",
    "InferenceResult",
    "run_distinguisher_game",
    "run_inference_game",
    "key_learner_adversary",
    "make_constant_adversary",
    "coin_flip_adversary",
    "KeyLearnerStrategy",
    "RandomGuessStrategy",
    "exact_generator_learner",
    "uniform_distribution_learner",
    "learner_to_inference",
]

HOEFFDING_ALPHA = 0.01  # two-sided 99% confidence throughout


def hoeffding_halfwidth(trials: int) -> float:
    """Half-width of the Hoeffding 99% interval for one empirical rate."""
    return math.sqrt(math.log(2 / HOEFFDING_ALPHA) / (2 * trials))


def default_query_budget(n: int) -> int:
    """Per-trial oracle budget standing in for "polynomial time": 10 n^2."""
    return 10 * n * n


def _trials(n: int, seed: int, count: int):
    """Each trial's (index, instance, uniform key), the same stream in every game."""
    for i in range(count):
        inst = generate_instance(n, make_rng(seed, "instance", i))
        yield i, inst, make_rng(seed, "key", i).randint(1, inst.q)


def _rate(hits: int, valid: int) -> tuple[float | None, float | None]:
    """A rate over ``valid`` trials and its Hoeffding half-width, or (None, None)."""
    return (hits / valid, hoeffding_halfwidth(valid)) if valid else (None, None)


def _bit(out, player: str) -> int:
    """A player's output if it is the int 0 or 1; a ``bool`` is refused too."""
    if type(out) is not int or out not in (0, 1):
        raise TypeError(f"{player} returned {out!r}, not the int 0 or 1")
    return out


def _fresh(rng: random.Random, n: int, queried: set[str]) -> str:
    """A uniform n-bit point outside ``queried``; ``min(queried)`` if there is none."""
    if len(queried) == 1 << n:
        return min(queried)
    while (x := random_bits(rng, n)) in queried:
        pass
    return x


def _probe(params: GroupInstance, oracle: MembershipOracle, rng: random.Random) -> tuple[int, str]:
    """Query one random point, recover the key from its value, and draw a
    fresh point: returns (key, fresh point)."""
    x1 = random_bits(rng, params.n)
    key = learn_key(params, x1, oracle.query(x1))
    return key, _fresh(rng, params.n, oracle.queried)


def _record(result) -> dict:
    """A result's fields in declaration order, with ``ci_halfwidth`` keyed "ci"."""
    return {("ci" if k == "ci_halfwidth" else k): v for k, v in result._asdict().items()}


# ---------------------------------------------------------------------------
# Distinguisher game (keyed function vs. random function)
# ---------------------------------------------------------------------------


class AdvantageEstimate(NamedTuple):
    """Acceptance rates of an adversary against the two arms of the game.

    ``trials`` is the total count, split evenly; rates are over each arm's
    valid trials, and ``ci_halfwidth`` is the 99% Hoeffding half-width for
    the *difference* of the two independent rates (the sum of the
    single-rate half-widths at the two valid counts).  An arm with no
    valid trials has no rate: it, the advantage and the half-width are
    ``None``.
    """

    game: str
    flavor: str
    n: int
    trials: int
    p_real: float | None
    p_random: float | None
    advantage: float | None
    ci_halfwidth: float | None
    invalid_real: int
    invalid_random: int
    seed: int

    to_dict = _record


def run_distinguisher_game(
    adversary, flavor: str, n: int, trials: int, seed: int
) -> AdvantageEstimate:
    """Estimate an adversary's advantage at telling the keyed function, with
    a uniform key, from a lazily tabulated random function.

    ``adversary(params, oracle, rng) -> accept bit`` receives the public
    instance and a flavored oracle: "mq" serves membership queries, "pex"
    random examples.  Both arms replay one per-index stream of instances
    and keys (coupled randomness): the whole real arm plays first, then
    the whole random arm.  A trial whose adversary overruns the query
    budget is invalid.  An output other than the int 0 or 1 (``True``
    included) raises ``TypeError`` and is never scored.
    """
    if flavor not in ("mq", "pex"):
        raise ValueError(f"unknown oracle flavor {flavor!r}")
    if trials < 2 or trials % 2 != 0:
        raise ValueError("trials must be an even count >= 2")
    budget = default_query_budget(n)
    stream = list(_trials(n, seed, trials // 2))

    def run_arm(arm: str) -> tuple[int, int]:
        accepts = invalid = 0
        for i, inst, key in stream:
            if arm == "real":
                fn = partial(prf_eval, inst, key)
            else:
                fn = LazyRandomFunction(n, inst.q, make_rng(seed, "randfn", i))
            if flavor == "mq":
                oracle = MembershipOracle(fn, budget)
            else:
                oracle = RandomExampleOracle(fn, n, make_rng(seed, f"pex-{arm}", i), budget)
            rng = make_rng(seed, f"adversary-{arm}", i)
            try:
                accepts += _bit(adversary(inst, oracle, rng), "adversary")
            except QueryBudgetExceeded:
                invalid += 1
        return accepts, invalid

    accepts_real, invalid_real = run_arm("real")
    accepts_random, invalid_random = run_arm("random")
    p_real, h_real = _rate(accepts_real, len(stream) - invalid_real)
    p_random, h_random = _rate(accepts_random, len(stream) - invalid_random)
    both = p_real is not None and p_random is not None
    return AdvantageEstimate(
        game="distinguish",
        flavor=flavor,
        n=n,
        trials=trials,
        p_real=p_real,
        p_random=p_random,
        advantage=p_real - p_random if both else None,
        ci_halfwidth=h_real + h_random if both else None,
        invalid_real=invalid_real,
        invalid_random=invalid_random,
        seed=seed,
    )


def key_learner_adversary():
    """Adversary that recovers a key from one example and spot-checks it.

    Works against both flavors: under "mq" it picks its own probe points,
    under "pex" it uses two drawn examples.  Against the keyed arm the
    spot check always matches; against a random function it matches with
    probability about 1/q.
    """

    def adversary(params: GroupInstance, oracle, rng: random.Random) -> int:
        if isinstance(oracle, MembershipOracle):
            key, x2 = _probe(params, oracle, rng)
            v2 = oracle.query(x2)
        else:
            x1, v1 = oracle.draw()
            while True:
                x2, v2 = oracle.draw()
                if x2 != x1:
                    break
            key = learn_key(params, x1, v1)
        return 1 if prf_eval(params, key, x2) == v2 else 0

    return adversary


def make_constant_adversary(output: int):
    """Adversary that ignores the oracle and always answers ``output``."""

    def adversary(params, oracle, rng) -> int:
        return output

    return adversary


def coin_flip_adversary(params, oracle, rng: random.Random) -> int:
    return rng.randrange(2)


# ---------------------------------------------------------------------------
# Inference game (query phase, then a self-chosen exam)
# ---------------------------------------------------------------------------


class InferenceResult(NamedTuple):
    game: str
    n: int
    trials: int
    passes: int
    violations: int
    invalid: int
    pass_rate: float | None
    ci_halfwidth: float | None
    seed: int

    to_dict = _record


def run_inference_game(strategy, n: int, trials: int, seed: int) -> InferenceResult:
    """Play the exam game: fresh instance and key per trial.

    One strategy object plays every trial: ``choose_exam(params, oracle,
    rng)`` starts a trial and ``guess(pair, rng) -> index`` ends it.  The
    harness enforces the exam rules (an exam that is not an n-bit string,
    or a reused query point, is a protocol violation, scored as a failed
    trial that never reaches ``guess``), draws the decoy value uniformly
    from {1, ..., q}, and shuffles the pair before presenting it.  Each
    point is checked once, by the keyed function: the oracle calls it on
    a query point before it tests the budget, and the harness scores the
    exam with it before it tests freshness.  A budget overrun in
    ``choose_exam`` invalidates the trial; any other exception from the
    strategy propagates, and so does the ``TypeError`` for a guess other
    than the int 0 or 1 (``True`` included), which is never scored.  The
    result holds counts only; a caller that needs per-trial detail wraps
    the strategy, which sees the oracle and the presented pair.  The rate
    and its Hoeffding half-width are over the scored (not invalid) trials,
    and ``None`` when there are none.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    budget = default_query_budget(n)
    passes = violations = invalid = 0

    for i, inst, key in _trials(n, seed, trials):
        oracle = MembershipOracle(partial(prf_eval, inst, key), budget)
        rng = make_rng(seed, "strategy", i)
        exam_rng = make_rng(seed, "exam", i)
        try:
            exam = strategy.choose_exam(inst, oracle, rng)
        except QueryBudgetExceeded:
            invalid += 1
            continue
        try:
            true_value = prf_eval(inst, key, exam)
        except ValueError:
            violations += 1
            continue
        if exam in oracle.queried:
            violations += 1
            continue
        decoy = exam_rng.randint(1, inst.q)
        true_index = exam_rng.randrange(2)
        pair = (true_value, decoy) if true_index == 0 else (decoy, true_value)
        passes += _bit(strategy.guess(pair, rng), "guess") == true_index

    pass_rate, halfwidth = _rate(passes, trials - invalid)
    return InferenceResult(
        game="infer",
        n=n,
        trials=trials,
        passes=passes,
        violations=violations,
        invalid=invalid,
        pass_rate=pass_rate,
        ci_halfwidth=halfwidth,
        seed=seed,
    )


class KeyLearnerStrategy:
    """Inference via exact key recovery: one query, then a certain answer.

    Predicts the function value at a fresh exam point from the recovered
    key; fails only when the decoy collides with the true value (the pair
    is then two equal numbers and the shuffled index is a coin toss).
    """

    _predicted: int | None = None

    def choose_exam(self, params: GroupInstance, oracle: MembershipOracle, rng) -> str:
        key, exam = _probe(params, oracle, rng)
        self._predicted = prf_eval(params, key, exam)
        return exam

    def guess(self, pair: tuple[int, int], rng) -> int:
        if self._predicted in pair and pair[0] != pair[1]:
            return pair.index(self._predicted)
        return rng.randrange(2)


class RandomGuessStrategy:
    """Queries nothing, picks a random exam string, guesses a coin flip."""

    def choose_exam(self, params: GroupInstance, oracle, rng) -> str:
        return random_bits(rng, params.n)

    def guess(self, pair, rng) -> int:
        return rng.randrange(2)


# ---------------------------------------------------------------------------
# Learner-to-inference reduction
# ---------------------------------------------------------------------------


def exact_generator_learner(oracle, n: int, epsilon, delta, rng):
    """Generator learner backed by one-sample exact key recovery (needs
    parameter-suffix samples).

    Takes the reduction's learner interface and ignores ``epsilon`` and
    ``delta``: one sample recovers the generator exactly, which meets any
    accuracy and confidence target.
    """
    return pac_generator_learn(oracle).spec


def uniform_distribution_learner(oracle, n: int, epsilon, delta, rng) -> GeneratorSpec:
    """Degenerate learner: ignores its samples, returns uniform 2n-bit noise."""
    return uniform_spec(2 * n)


class _Reduction:
    """A generator learner played as an inference strategy; see
    ``learner_to_inference``.  Each trial's ``choose_exam`` resets the
    value that ``guess`` reads.
    """

    def __init__(self, dist_learner, form: str):
        self.dist_learner = dist_learner
        self.form = form
        self.case_log: list[str] = []
        self._y: int | None = None

    def choose_exam(self, params: GroupInstance, oracle: MembershipOracle, rng) -> str:
        n = params.n
        # SAMPLE through the membership handle: its ``queried`` set is
        # exactly the points the learner saw.
        suffix = encode_params(params) if self.form == "gen" else ""
        target = GeneratorSpec(n, 2 * n + len(suffix),
                               lambda x: x + bin_n(oracle.query(x), n) + suffix)
        try:
            spec = self.dist_learner(SampleOracle(target, rng), n, math.log2(n), 0.5, rng)
            drawn = spec.eval(random_bits(rng, spec.seed_bits))
            self._y = int(drawn[n : 2 * n], 2)
        except ValueError:
            drawn = None  # learner failure: uniform-guess fallback
        if drawn is not None and drawn[:n] not in oracle.queried:
            return drawn[:n]
        self._y = None
        return _fresh(rng, n, oracle.queried)

    def guess(self, pair: tuple[int, int], rng) -> int:
        guess = rng.randrange(2)
        if self._y is None:
            case = "c"
        elif self._y in pair:
            case = "a"
            if pair[0] != pair[1]:
                guess = pair.index(self._y)
        else:
            case = "b"
        self.case_log.append(case)
        return guess


def learner_to_inference(dist_learner, form: str) -> _Reduction:
    """Wrap a generator learner as an inference strategy.

    Per trial: hand the learner a ``SampleOracle`` whose generator draws x
    uniformly and answers x || BIN_n(F(k, x)) by one membership query
    ("gen" samples carry the parameter suffix, "kgen" samples do not),
    with the proof's accuracy targets epsilon = log2(n) and delta = 1/2;
    draw one string x || y from the generator it returns, then play out
    three cases: a fresh x becomes the exam and y is matched against the
    presented pair (case a/b); a reused x, or a learner failure, falls
    back to a fresh random exam and a coin-flip guess (case c).  With all
    2^n inputs queried no exam is fresh: a queried one is returned and
    scored as a violation.
    ``case_log`` on the returned object collects one of "a"/"b"/"c" per
    trial that reaches ``guess``: a trial invalidated by a budget overrun
    or scored as a violation leaves no entry, so the cases sum to
    ``trials - invalid - violations``.
    """
    if form not in ("kgen", "gen"):
        raise ValueError(f"unknown sample form {form!r}")
    return _Reduction(dist_learner, form)
