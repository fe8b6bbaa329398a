"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances.  Each test prints a single pass line on success (failures show
up as ordinary pytest failures)."""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from genlearn import boolfn as bf
from genlearn import distributions as dist
from genlearn import games
from genlearn import numtheory as nt
from genlearn.learner import learn_key, pac_generator_learn
from genlearn.prf import prf_eval
from genlearn.seeding import make_rng


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_key_learner_exactness():
    t0 = time.monotonic()
    triples = 0
    for n in range(3, 17):
        for i in range(100):
            inst = nt.generate_instance(n, make_rng(1000 + n, "inst", i))
            rng = make_rng(1000 + n, "triple", i)
            for _ in range(5):
                key = rng.randint(1, inst.q)
                x = format(rng.getrandbits(n), f"0{n}b")
                fx = prf_eval(inst, key, x)
                assert learn_key(inst, x, fx) == key, (n, inst.p, key, x)
                triples += 1
    elapsed = time.monotonic() - t0
    assert triples == 500 * 14
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"{triples} reversals exact, zero failures, {elapsed:.1f}s < 60s (bsgs)")


def test_criterion_02_one_sample_pac_learning():
    sizes = itertools.cycle(range(3, 11))
    for i in range(100):
        n = next(sizes)
        inst = nt.generate_instance(n, make_rng(2000, "inst", i))
        key = make_rng(2000, "key", i).randint(1, inst.q)
        target_spec = dist.gen_spec(inst, key)
        oracle = dist.SampleOracle(target_spec, make_rng(2000, "draw", i))
        learned = pac_generator_learn(oracle)
        assert learned.samples_used == 1
        target = dist.exact_table(target_spec)
        mine = dist.exact_table(learned.spec)
        assert mine == target
        assert dist.kl_divergence(target, mine) == 0.0
    report(2, "100/100 instances at n <= 10: exact table, KL = 0, sample complexity 1")


def test_criterion_03_fp_bijection_and_group_facts():
    primes = nt.safe_primes_below(1 << 12)
    assert primes[0] == 7 and len(primes) > 50
    for p in primes:
        q = (p - 1) // 2
        residues = nt.qr_set(p)
        assert len(residues) == q
        folded = {nt.f_p(p, x) for x in residues}
        assert folded == set(range(1, q + 1)), p
        for x in residues:
            assert nt.f_p_inv(p, nt.f_p(p, x)) == x
        # Every non-identity residue generates: the group has prime order
        # q, so order(g) | q forces order q for any g != 1; g^q == 1
        # certifies membership of the orbit in the group.
        for g in residues:
            assert pow(g, q, p) == 1
    # Direct orbit enumeration cross-checks the order argument on the
    # smaller primes.
    for p in (x for x in primes if x < (1 << 9)):
        residues = nt.qr_set(p)
        q = (p - 1) // 2
        for g in residues - {1}:
            orbit = set()
            acc = 1
            for _ in range(q):
                acc = acc * g % p
                orbit.add(acc)
            assert orbit == residues, (p, g)
    # Euler's criterion against brute-force squares, exhaustively below 2^10.
    for p in (x for x in primes if x < (1 << 10)):
        assert {x for x in range(1, p) if nt.is_qr(p, x)} == nt.qr_set(p)
    # p = 5 is the lone safe prime excluded: its fold map is not injective.
    assert nt.f_p(5, 1) == nt.f_p(5, 4)
    report(3, f"fold bijection + generator facts exhaustive over {len(primes)} safe primes < 2^12")


def test_criterion_04_kgen_distribution_shape():
    for n in range(3, 11):
        inst = nt.generate_instance(n, make_rng(4000 + n, "inst"))
        key = make_rng(4000 + n, "key").randint(1, inst.q)
        table = dist.exact_table(dist.kgen_spec(inst, key))
        assert table.is_exact()
        unit = Fraction(1, 1 << n)
        assert len(table.probs) == 1 << n
        for y, prob in table.probs.items():
            assert prob == unit
            x = y[:n]
            assert y == x + dist.bin_n(prf_eval(inst, key, x), n)
    report(4, "KGEN tables exactly uniform on 2^n support strings, n = 3..10, zero tolerance")


def tv_pair(h, c):
    return dist.tv_distance(bf.function_table(h), bf.function_table(c))


def test_criterion_05_tv_equals_disagreement():
    fns2 = [bf.BoolFn(2, format(v, "04b")) for v in range(16)]
    for h, c in itertools.product(fns2, repeat=2):
        assert tv_pair(h, c) == bf.disagreement_prob(h, c)
    rng = random.Random(5005)
    for _ in range(200):
        h, c = bf.BoolFn.random(4, rng), bf.BoolFn.random(4, rng)
        exact = tv_pair(h, c)
        assert exact == bf.disagreement_prob(h, c)
        float_tv = dist.tv_distance(
            bf.function_table(h).to_float(), bf.function_table(c).to_float()
        )
        assert abs(float_tv - float(exact)) <= 1e-12
    report(5, "TV(D_h, D_c) = Pr[h != c]: 256/256 exact at n=2, 200/200 at n=4 (float <= 1e-12)")


def test_criterion_06_short_generator_error_floor():
    rng = random.Random(6006)
    for n in range(2, 5):
        size = 1 << (1 << n)
        tables = (
            [format(v, f"0{1 << n}b") for v in range(size)]
            if n <= 3
            else [format(rng.getrandbits(1 << n), f"0{1 << n}b") for _ in range(100)]
        )
        for m in range(1, n):
            want = 1 - Fraction(1, 1 << (n - m))
            for table in tables:
                c = bf.BoolFn(n, table)
                achieved = dist.tv_distance(
                    dist.exact_table(bf.optimal_short_generator(c, m)),
                    bf.function_table(c),
                )
                assert achieved == want, (n, m, table)
    # Exhaustive minimisation at (n=2, m=1): no generator does better than
    # 1/2, for any target function.
    outputs = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    for v in range(16):
        c = bf.BoolFn(2, format(v, "04b"))
        target = bf.function_table(c)
        tvs = [
            dist.tv_distance(
                dist.exact_table(
                    dist.GeneratorSpec(1, 3, lambda s, o=combo: o[int(s, 2)])
                ),
                target,
            )
            for combo in itertools.product(outputs, repeat=2)
        ]
        assert min(tvs) == Fraction(1, 2)
        assert all(t >= Fraction(1, 2) for t in tvs)  # m < n floor
    report(6, "optimal short generators hit TV = 1 - 2^(m-n) exactly; (2,1) minimum is 1/2")


def test_criterion_07_exact_generator_characterization():
    expected = {(1, 1): (2, 2), (1, 2): (6, 24), (2, 2): (24, 24)}
    for (n, m), (exact_count, raw_perms) in expected.items():
        for v in range(1 << (1 << n)):
            c = bf.BoolFn(n, format(v, f"0{1 << n}b"))
            rep = bf.classify_exact_generators(c, m)
            assert rep.matches_characterization, (n, m, v)
            assert rep.exact_count == exact_count
            assert rep.raw_permutation_count == raw_perms
            assert rep.distinct_permuted_count == exact_count
    report(7, "exact generators = permuted padded family at (1,1), (1,2), (2,2); counts 2/6/24")


def test_criterion_08_distinguisher_game():
    t0 = time.monotonic()
    learner = games.run_distinguisher_game(
        games.key_learner_adversary, "mq", 8, 400, seed=8008
    )
    assert learner.advantage >= 0.9
    constant = games.run_distinguisher_game(
        games.make_constant_adversary(1), "mq", 8, 400, seed=8008
    )
    assert abs(constant.advantage) <= constant.ci_halfwidth
    coin = games.run_distinguisher_game(games.coin_flip_adversary, "mq", 8, 400, seed=8008)
    assert abs(coin.advantage) <= coin.ci_halfwidth
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(
        8,
        f"key-learner advantage {learner.advantage:.3f} >= 0.9; "
        f"constant/coin within ci; {elapsed:.1f}s < 30s",
    )


def test_criterion_09_inference_and_reduction():
    n = 8
    reduction = games.learner_to_inference(games.exact_generator_learner, form="gen")
    result = games.run_inference_game(reduction, n, 400, seed=9009)
    assert result.violations == 0
    assert result.pass_rate >= 0.95
    proof_floor = 0.5 + 1 / (11 * n * n)
    assert result.pass_rate > proof_floor
    uniform = games.run_inference_game(
        games.learner_to_inference(games.uniform_distribution_learner, form="kgen"),
        n,
        400,
        seed=9009,
    )
    assert abs(uniform.pass_rate - 0.5) <= uniform.ci_halfwidth
    report(
        9,
        f"reduction pass rate {result.pass_rate:.3f} >= 0.95 (> {proof_floor:.4f}); "
        f"uniform learner at {uniform.pass_rate:.3f} ~ 0.5",
    )


def test_criterion_10_pinsker():
    rng = random.Random(1010)
    for trial in range(1000):
        n = trial % 6 + 1
        size = 1 << n

        def random_table():
            weights = [rng.random() + 1e-9 for _ in range(size)]
            total = sum(weights)
            probs = {dist.bin_n(v, n): w / total for v, w in enumerate(weights)}
            probs[dist.bin_n(0, n)] += 1.0 - sum(probs.values())
            return dist.DistTable(n, probs)

        p, q = random_table(), random_table()
        kl = dist.kl_divergence(p, q)
        assert math.isfinite(kl)
        assert dist.tv_distance(p, q) <= math.log(2) * math.sqrt(kl) + 1e-12
    report(10, "TV <= ln(2) sqrt(KL) on 1000 random finite-KL pairs, n <= 6")


def _craft_distribution(target, support, n, rng, mode):
    """A perturbed copy of the uniform-on-support table, as a DistTable."""
    base = 1.0 / (1 << n)
    probs = {y: base for y in support}
    if mode == "starve":
        # Push a batch of support strings just below the heavy threshold
        # for an anticipated divergence level.
        eps_t = rng.uniform(0.5, n - 2.5)
        tiny = 0.9 * 2.0 ** -(2 + eps_t + n)
        k = rng.randint(1, int((n - 2.5) * (1 << n) / (2 + eps_t)))
        victims = rng.sample(sorted(support), min(k, len(support)))
        moved = 0.0
        for y in victims:
            moved += probs[y] - tiny
            probs[y] = tiny
        spill = [dist.bin_n(rng.getrandbits(2 * n), 2 * n) for _ in range(4)]
        spill = [y for y in spill if y not in support] or [next(iter(support))]
        for y in spill:
            probs[y] = probs.get(y, 0.0) + moved / len(spill)
    elif mode == "tilt":
        scale = rng.uniform(0.5, 3.0)
        weights = {y: math.exp(rng.uniform(-scale, scale)) for y in support}
        total = sum(weights.values())
        probs = {y: w / total for y, w in weights.items()}
    else:  # "offmass": shave uniform mass off the whole support
        rho = rng.uniform(0.05, 0.6)
        probs = {y: base * (1 - rho) for y in support}
        off = dist.bin_n(rng.getrandbits(2 * n), 2 * n)
        while off in support:
            off = dist.bin_n(rng.getrandbits(2 * n), 2 * n)
        probs[off] = rho
    # Pin the float total exactly to 1 before table validation.
    heaviest = max(probs, key=probs.get)
    probs[heaviest] += 1.0 - sum(probs.values())
    return dist.DistTable(2 * n, probs)


def test_criterion_11_heavy_support_floor():
    for n in (5, 6):
        inst = nt.generate_instance(n, make_rng(1100 + n, "inst"))
        rng = random.Random(1100 + n)
        target_specs = [
            dist.kgen_spec(inst, rng.randint(1, inst.q)) for _ in range(5)
        ]
        tables = [dist.exact_table(s).to_float() for s in target_specs]
        trials = 0
        while trials < 1000:
            target = tables[trials % len(tables)]
            support = target.support()
            mode = ("starve", "tilt", "offmass")[trials % 3]
            crafted = _craft_distribution(target, support, n, rng, mode)
            eps = dist.kl_divergence(target, crafted)
            if not eps < n - 2:
                continue  # divergence too large for the bound; craft again
            threshold = 2.0 ** -(2 + eps + n)
            heavy = sum(1 for y in support if crafted.prob(y) >= threshold)
            assert heavy >= (1 << n) / n, (n, mode, eps, heavy)
            trials += 1
    report(11, "heavy-support count >= 2^n/n in 1000 crafted KL-close tables at each n in {5,6}")


def test_criterion_12_cli_reproducibility(tmp_path, cli_env):
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "genlearn", *argv],
            capture_output=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    inst_path = tmp_path / "inst.json"
    samples_path = tmp_path / "samples.txt"
    commands = [
        ("instance", "--n", "5", "--seed", "12", "--out", str(inst_path)),
        ("sample", "--instance", str(inst_path), "--key", "2", "--count", "6",
         "--seed", "12", "--out", str(samples_path)),
        ("learn", "--samples", str(samples_path), "--target-key", "2"),
        ("game", "--game", "distinguish", "--n", "6", "--trials", "40", "--seed", "12"),
        ("game", "--game", "infer", "--strategy", "random", "--n", "5", "--trials", "40",
         "--seed", "12"),
        ("game", "--game", "reduction", "--learner", "uniform", "--n", "5", "--trials", "40",
         "--seed", "12"),
        ("verify", "--suite", "kgen"),
    ]
    for argv in commands:
        first = run(*argv)
        first_files = {p: p.read_bytes() for p in (inst_path, samples_path) if p.exists()}
        second = run(*argv)
        assert first == second, f"stdout differs for {argv[0]}"
        for p, content in first_files.items():
            assert p.read_bytes() == content, f"file {p.name} differs for {argv[0]}"
    report(12, "all CLI commands byte-identical across repeated seeded runs")
