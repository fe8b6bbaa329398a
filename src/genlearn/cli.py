"""Command-line front end for reproducible experiments.

Every command is fully determined by its flags plus the master seed:
sub-task seeds are split off with SHA-256 (see :mod:`genlearn.seeding`),
so repeated runs are byte-identical.  Exit codes: 0 success, 1 a
verification suite failed, 2 usage or parse error or an exhausted
safe-prime search.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import boolfn as bf
from . import numtheory as nt
from .distributions import (
    SampleOracle,
    exact_table,
    gen_spec,
    kgen_eval,
    kgen_spec,
    kl_divergence,
    read_samples,
    tv_distance,
    write_samples,
)
from .games import (
    KeyLearnerStrategy,
    RandomGuessStrategy,
    coin_flip_adversary,
    exact_generator_learner,
    learner_to_inference,
    key_learner_adversary,
    make_constant_adversary,
    run_distinguisher_game,
    run_inference_game,
    uniform_distribution_learner,
)
from .learner import MAX_DLOG_N, InvalidSampleError, learn_from_sample
from .seeding import make_rng

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    return "".join(f"{k} = {v}\n" for k, v in record.items())


def cmd_instance(args) -> int:
    if args.n < 3:
        raise ValueError("--n must be >= 3 (no usable safe prime has fewer than 3 bits)")
    inst = nt.generate_instance(args.n, make_rng(args.seed, "instance"),
                                keep_secret=args.keep_secret)
    _emit(_render(inst.to_json_dict(), args.format), args.out)
    return 0


def cmd_sample(args) -> int:
    try:
        with open(args.instance, encoding="ascii") as fh:
            inst = nt.GroupInstance.from_json_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load instance: {exc}") from exc
    if not 1 <= args.key <= inst.q:
        raise ValueError(f"--key must lie in 1..{inst.q} for this instance")
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    oracle = SampleOracle(gen_spec(inst, args.key), make_rng(args.seed, "sample"))
    lines = (oracle.sample() for _ in range(args.count))
    if args.out:
        write_samples(args.out, lines)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)
    return 0


def cmd_learn(args) -> int:
    try:
        samples = read_samples(args.samples)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read samples: {exc}") from exc
    if not samples:
        raise ValueError("sample file is empty")
    learned = learn_from_sample(samples[0])
    # One generator's sample: every further line is its output at that line's x.
    n = learned.inst.n
    for k, line in enumerate(samples[1:], 2):
        if len(line) != 5 * n or learned.spec.eval(line[:n]) != line:
            raise InvalidSampleError(f"line {k} is not from the recovered generator")
    record = learned.to_json_dict()
    record["samples_used"] = str(learned.samples_used)
    if args.target_key is not None:
        inst = learned.inst
        if not 1 <= args.target_key <= inst.q:
            raise ValueError(f"--target-key must lie in 1..{inst.q}")
        if inst.n <= 12:
            target = exact_table(gen_spec(inst, args.target_key))
            mine = exact_table(learned.spec)
            record["kl_to_target"] = repr(kl_divergence(target, mine))
        record["target_key_matched"] = str(learned.key == args.target_key).lower()
    _emit(_render(record, args.format), args.out)
    return 0


def cmd_game(args) -> int:
    players = {"distinguish": args.adversary, "infer": args.strategy, "reduction": args.learner}
    player = players[args.game]
    if player in ("keylearner", "exact") and args.n > MAX_DLOG_N:
        raise ValueError(f"--n must be <= {MAX_DLOG_N} when the game recovers keys "
                         "(discrete-log feasibility cap)")
    if args.game == "distinguish":
        adversary = {
            "keylearner": key_learner_adversary,
            "constant": make_constant_adversary(1),
            "coinflip": coin_flip_adversary,
        }[player]
        result = run_distinguisher_game(
            adversary, args.flavor, args.n, args.trials, args.seed
        ).to_dict()
    elif args.game == "infer":
        strategy = KeyLearnerStrategy() if player == "keylearner" else RandomGuessStrategy()
        result = run_inference_game(strategy, args.n, args.trials, args.seed).to_dict()
    else:  # reduction
        if player == "exact":
            reduction = learner_to_inference(exact_generator_learner, form="gen")
        else:
            reduction = learner_to_inference(uniform_distribution_learner, form="kgen")
        result = run_inference_game(reduction, args.n, args.trials, args.seed)
        result = result._replace(game="reduction").to_dict()
        cases = reduction.case_log
        result["cases"] = {label: cases.count(label) for label in ("a", "b", "c")}
    _emit(_render(result, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_numtheory() -> list[tuple[str, bool]]:
    ok_bij = ok_inv = ok_gen = ok_enum = ok_euler = True
    for p in nt.safe_primes_below(1 << 12):
        q = (p - 1) // 2
        residues = nt.qr_set(p)
        folded = {x: nt.f_p(p, x) for x in residues}
        ok_bij &= len(residues) == q and set(folded.values()) == set(range(1, q + 1))
        ok_inv &= all(nt.f_p_inv(p, y) == x for x, y in folded.items())
        # Prime group order: g generates iff g != 1 and g^q == 1.
        ok_gen &= all(pow(g, q, p) == 1 for g in residues)
        if p < 1 << 9:
            for g in residues - {1}:
                seen = set()
                acc = 1
                for _ in range(q):
                    acc = acc * g % p
                    seen.add(acc)
                ok_enum &= seen == residues
        if p < 1 << 10:
            ok_euler &= {x for x in range(1, p) if nt.is_qr(p, x)} == residues
    return [
        ("fp_bijection_all_safe_primes_lt_2^12", ok_bij),
        ("fp_inverse_roundtrip", ok_inv),
        ("every_nonidentity_residue_generates", ok_gen),
        ("generator_orbits_enumerated_lt_2^9", ok_enum),
        ("euler_criterion_matches_squares_lt_2^10", ok_euler),
    ]


def _suite_kgen() -> list[tuple[str, bool]]:
    import fractions
    checks = []
    for n in range(3, 9):
        inst = nt.generate_instance(n, make_rng(20_000 + n, "verify-instance"))
        key = make_rng(20_000 + n, "verify-key").randint(1, inst.q)
        table = exact_table(kgen_spec(inst, key))
        want = fractions.Fraction(1, 1 << n)
        support_ok = set(table.probs) == {
            kgen_eval(inst, key, format(v, f"0{n}b")) for v in range(1 << n)
        }
        mass_ok = all(prob == want for prob in table.probs.values())
        checks.append((f"kgen_support_uniform_n{n}", support_ok and mass_ok))
    return checks


def _suite_boollemmas() -> list[tuple[str, bool]]:
    import fractions
    checks = []
    # Disagreement identity, all 256 ordered pairs at n = 2.
    fns = [bf.BoolFn(2, format(v, "04b")) for v in range(16)]
    pairs = itertools.product(zip(fns, map(bf.function_table, fns)), repeat=2)
    ok = all(tv_distance(a, b) == bf.disagreement_prob(h, c) for (h, a), (c, b) in pairs)
    checks.append(("tv_equals_disagreement_n2_all_pairs", ok))
    # Short-generator optimum and the m < n floor.
    ok = True
    for n, m in ((2, 1), (3, 1), (3, 2)):
        for v in range(1 << (1 << n)):
            c = bf.BoolFn(n, format(v, f"0{1 << n}b"))
            achieved = tv_distance(
                exact_table(bf.optimal_short_generator(c, m)),
                bf.function_table(c),
            )
            ok &= achieved == 1 - fractions.Fraction(1, 1 << (n - m))
    checks.append(("short_generator_tv_floor", ok))
    ok = True
    outputs = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    for v in range(16):
        c = bf.BoolFn(2, format(v, "04b"))
        target = bf.function_table(c)
        best = min(
            tv_distance(
                exact_table(bf.GeneratorSpec(1, 3, lambda s, o=combo: o[int(s, 2)])),
                target,
            )
            for combo in itertools.product(outputs, repeat=2)
        )
        ok &= best == fractions.Fraction(1, 2)
    checks.append(("exhaustive_min_tv_n2_m1_is_half", ok))
    # Exact-generator characterization at the enumerable sizes.
    ok = True
    for n, m in ((1, 1), (1, 2), (2, 2)):
        for v in range(1 << (1 << n)):
            c = bf.BoolFn(n, format(v, f"0{1 << n}b"))
            ok &= bf.classify_exact_generators(c, m).matches_characterization
    checks.append(("exact_generators_are_permuted_padded", ok))
    return checks


_SUITES = {
    "numtheory": _suite_numtheory,
    "kgen": _suite_kgen,
    "boollemmas": _suite_boollemmas,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for check, ok in _SUITES[name]():
            print(f"{'PASS' if ok else 'FAIL'} {name}:{check}")
            failed += 0 if ok else 1
    print(f"{'OK' if failed == 0 else 'FAILED'} ({failed} failing checks)")
    return 0 if failed == 0 else VERIFY_ERROR


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call.

    ``parse_args`` leaves the parser unchanged.  A parser built per call is
    a few hundred objects in reference cycles, which only the cyclic
    collector frees, so many in-process commands held their memory.
    """
    parser = argparse.ArgumentParser(
        prog="genlearn",
        description="Testbed for DDH-style generators, keyed functions, and learning games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p):  # the commands that draw randomness; `learn` draws none
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")

    def common(p, formats: bool = True):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if formats:
            p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("instance", help="generate a group instance as JSON")
    p.add_argument("--n", type=int, required=True, help="bit length of the safe prime")
    p.add_argument("--keep-secret", action="store_true",
                   help="retain the exponent a in the output (test mode)")
    seeded(p)
    common(p)
    p.set_defaults(func=cmd_instance)

    p = sub.add_parser("sample", help="draw generator samples, one bitstring per line")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--key", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    seeded(p)
    common(p, formats=False)  # sample output is the fixed line format
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("learn", help="recover the generator behind a sample file")
    p.add_argument("--samples", required=True,
                   help="sample file of one generator (line 1 recovers it; the rest must match)")
    p.add_argument("--target-key", type=int, default=None,
                   help="report divergence/match against this sampling key")
    common(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("game", help="run a game harness and print JSON statistics")
    p.add_argument("--game", choices=("distinguish", "infer", "reduction"), required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--flavor", choices=("mq", "pex"), default="mq")
    p.add_argument("--adversary", choices=("keylearner", "constant", "coinflip"),
                   default="keylearner")
    p.add_argument("--strategy", choices=("keylearner", "random"), default="keylearner")
    p.add_argument("--learner", choices=("exact", "uniform"), default="exact")
    seeded(p)
    common(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("verify", help="run exhaustive invariant suites")
    p.add_argument("--suite", choices=("numtheory", "kgen", "boollemmas", "all"),
                   required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
