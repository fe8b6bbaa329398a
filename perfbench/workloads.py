"""The four benchmark workloads: the command stream each one issues and the
check applied to every command's output.

Every input is made here from the workload seed, with group arithmetic of
the benchmark's own (Miller-Rabin, fold, forward GGM walk), so the program
under test sees only generated files and command lines, and the checks do
not trust the code they check.  Op ``i`` of a workload depends only on
``(workload, seed, i)``, so a traced pass can replay exactly the ops of an
untraced one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ---------------------------------------------------------------------------
# Independent group arithmetic for making inputs and checking outputs
# ---------------------------------------------------------------------------

# Miller-Rabin with these bases is deterministic below 3.3e24 (> 2**81).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def make_instance(n: int, rng: random.Random) -> tuple[int, int, int]:
    """An n-bit safe prime p = 2q + 1 with q odd, a generator g and g^a."""
    while True:
        p = (1 << (n - 1)) | rng.getrandbits(n - 1) | 1
        if p % 4 == 3 and _is_prime(p) and _is_prime(p // 2):
            break
    q = p // 2
    while True:
        g = pow(rng.randrange(2, p - 1), 2, p)
        if g != 1:
            break
    return p, g, pow(g, rng.randrange(1, q), p)


def ggm_value(p: int, g: int, g_a: int, key: int, x: str) -> int:
    """F(key, x): walk the tree, folding each residue into {1, ..., q}."""
    q = p // 2
    b = key
    for ch in x:
        y = pow(g if ch == "0" else g_a, b, p)
        b = y if y <= q else p - y
    return b


def sample_line(p: int, g: int, g_a: int, key: int, x: str) -> str:
    """x || BIN_n(F(key, x)) || BIN_n(p) || BIN_n(g) || BIN_n(g_a)."""
    n = len(x)
    values = (ggm_value(p, g, g_a, key, x), p, g, g_a)
    return x + "".join(format(v, f"0{n}b") for v in values)


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI command: its argv, the set-up values, and its output check.

    ``check(op, stdout)`` returns None when the output is right, else the
    reason it is wrong.
    """

    kind: str
    argv: list[str]
    expect: dict
    check: Callable[["Op", str], str | None]


def check_learn(op: Op, stdout: str) -> str | None:
    rec = json.loads(stdout)
    for field in ("n", "p", "g", "g_a", "key"):
        if rec.get(field) != str(op.expect[field]):
            return f"{field} = {rec.get(field)!r}, set up {op.expect[field]}"
    if rec.get("target_key_matched") != "true":
        return f"target_key_matched = {rec.get('target_key_matched')!r}"
    if op.expect["n"] <= 12 and rec.get("kl_to_target") != "0.0":
        return f"kl_to_target = {rec.get('kl_to_target')!r}"
    return None


def check_verify(op: Op, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "OK (0 failing checks)":
        return f"verify ended {lines[-1] if lines else '<nothing>'!r}"
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        return "a check line is not PASS"
    return None


def _rate(rec: dict, key: str) -> float:
    value = rec[key]
    if not isinstance(value, float) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{key} = {value!r} is not a rate")
    return value


def check_game(op: Op, stdout: str) -> str | None:
    rec = json.loads(stdout)
    want = op.expect
    for field in ("game", "n", "trials", "seed"):
        if rec.get(field) != want[field]:
            return f"{field} = {rec.get(field)!r}, asked for {want[field]!r}"
    if rec["game"] == "distinguish":
        if rec["invalid_real"] != 0 or rec["invalid_random"] != 0:
            return f"invalid trials {rec['invalid_real']} + {rec['invalid_random']}"
        real, rand = _rate(rec, "p_real"), _rate(rec, "p_random")
        if rec["advantage"] != real - rand:
            return "advantage is not p_real - p_random"
        value = rec["advantage"]
    else:
        if rec["invalid"] != 0 or rec["violations"] != 0:
            return f"invalid {rec['invalid']}, violations {rec['violations']}"
        if rec["passes"] != round(_rate(rec, "pass_rate") * rec["trials"]):
            return "pass_rate does not match passes"
        if rec["game"] == "reduction" and sum(rec["cases"].values()) != rec["trials"]:
            return f"reduction cases {rec['cases']} do not sum to the trials"
        value = rec["pass_rate"]
    # Coin-flip-like configurations are checked for form only: a fresh seed
    # may put a 99% Hoeffding estimate outside its band.
    floor = want["floor"]
    if floor == "zero" and value != 0.0:
        return f"constant adversary advantage {value} is not 0"
    if isinstance(floor, float) and value < floor:
        return f"{value} below the acceptance threshold {floor}"
    return None


def check_instance(op: Op, stdout: str) -> str | None:
    import sympy  # independent primality oracle, imported only when checking

    rec = json.loads(Path(op.expect["out"]).read_text(encoding="ascii"))
    n, p, q, g, g_a = (int(rec[k]) for k in ("n", "p", "q", "g", "g_a"))
    if n != op.expect["n"] or p.bit_length() != n or p != 2 * q + 1 or q % 2 == 0:
        return f"bad shape n={n} p={p} q={q}"
    if not (sympy.isprime(p) and sympy.isprime(q)):
        return f"p = {p} is not a safe prime"
    for el in (g, g_a):
        if not 1 < el < p or pow(el, q, p) != 1:
            return f"{el} is not a non-identity residue mod {p}"
    return None


def check_sample(op: Op, stdout: str) -> str | None:
    rec = json.loads(Path(op.expect["instance"]).read_text(encoding="ascii"))
    n, p, g, g_a = (int(rec[k]) for k in ("n", "p", "g", "g_a"))
    lines = Path(op.expect["out"]).read_text(encoding="ascii").splitlines()
    if len(lines) != op.expect["count"]:
        return f"{len(lines)} lines, asked for {op.expect['count']}"
    suffix = "".join(format(v, f"0{n}b") for v in (p, g, g_a))
    for line in lines:
        if len(line) != 5 * n or set(line) - {"0", "1"} or not line.endswith(suffix):
            return f"malformed line {line!r}"
    x, value = lines[0][:n], int(lines[0][n : 2 * n], 2)
    if ggm_value(p, g, g_a, op.expect["key"], x) != value:
        return "first line's value is not F(key, x)"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

LEARN_N = 28  # largest n at which >= 100 keys fit a short run
EXACT_N = 12  # largest n at which `learn --target-key` builds exact tables
INSTANCE_N = 64
SAMPLE_COUNT = 50
# One instance, then three sample files from it.  Instance searches vary
# widely in cost (roughly geometric) and most are faster than any `sample`
# op; three `sample` ops per instance keep the median and p90 among the
# `sample` ops, where the seed does not move them.
SAMPLE_CYCLE = 4
SELF_CHECK_N = 16

# (name, extra argv, acceptance floor): a float is a lower bound on the
# advantage or pass rate, "zero" demands exactly 0, None checks form only.
GAME_CONFIGS = (
    ("distinguish/keylearner/mq",
     ["--game", "distinguish", "--adversary", "keylearner", "--flavor", "mq"], 0.9),
    ("distinguish/keylearner/pex",
     ["--game", "distinguish", "--adversary", "keylearner", "--flavor", "pex"], 0.9),
    ("distinguish/constant", ["--game", "distinguish", "--adversary", "constant"], "zero"),
    ("distinguish/coinflip", ["--game", "distinguish", "--adversary", "coinflip"], None),
    ("infer/keylearner", ["--game", "infer", "--strategy", "keylearner"], 0.95),
    ("infer/random", ["--game", "infer", "--strategy", "random"], None),
    ("reduction/exact", ["--game", "reduction", "--learner", "exact"], 0.95),
    ("reduction/uniform", ["--game", "reduction", "--learner", "uniform"], None),
)
GAME_N = 8
GAME_TRIALS = 400

EXACT_CYCLE = ("learn", "numtheory", "learn", "kgen", "learn", "boollemmas")


def _op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def learn_op(n: int, rng: random.Random, path: Path, flip_value_bit: bool = False) -> Op:
    """`learn --target-key` on a one-line sample file written to ``path``."""
    p, g, g_a = make_instance(n, rng)
    key = rng.randint(1, p // 2)
    line = sample_line(p, g, g_a, key, format(rng.getrandbits(n), f"0{n}b"))
    if flip_value_bit:
        j = n + rng.randrange(n)
        line = line[:j] + ("1" if line[j] == "0" else "0") + line[j + 1 :]
    path.write_text(line + "\n", encoding="ascii")
    return Op(
        "learn",
        ["learn", "--samples", str(path), "--target-key", str(key)],
        {"n": n, "p": p, "g": g, "g_a": g_a, "key": key},
        check_learn,
    )


def _learn(seed: int, i: int, work: Path) -> Op:
    return learn_op(LEARN_N, _op_rng("learn", seed, i), work / f"learn-{i}.txt")


def _games(seed: int, i: int, work: Path) -> Op:
    _, extra, floor = GAME_CONFIGS[i % len(GAME_CONFIGS)]
    op_seed = _op_rng("games", seed, i).getrandbits(63)
    game = extra[1]
    return Op(
        "game",
        ["game", *extra, "--seed", str(op_seed)],
        {"game": game, "n": GAME_N, "trials": GAME_TRIALS, "seed": op_seed, "floor": floor},
        check_game,
    )


def _exact(seed: int, i: int, work: Path) -> Op:
    step = EXACT_CYCLE[i % len(EXACT_CYCLE)]
    if step == "learn":
        return learn_op(EXACT_N, _op_rng("exact", seed, i), work / f"exact-{i}.txt")
    return Op("verify", ["verify", "--suite", step], {}, check_verify)


def _sample(seed: int, i: int, work: Path) -> Op:
    # Op 0 of cycle j makes instance j; the other ops of the cycle each
    # write a sample file from it under a key of their own.
    j, step = divmod(i, SAMPLE_CYCLE)
    rng = _op_rng("sample", seed, i)
    op_seed = rng.getrandbits(63)
    inst = work / f"instance-{j}.json"
    if step == 0:
        return Op(
            "instance",
            ["instance", "--n", str(INSTANCE_N), "--seed", str(op_seed), "--out", str(inst)],
            {"n": INSTANCE_N, "out": str(inst)},
            check_instance,
        )
    key = rng.randint(1, (1 << (INSTANCE_N - 2)) - 1)  # below every 64-bit safe prime's q
    out = work / f"sample-{i}.txt"
    return Op(
        "sample",
        ["sample", "--instance", str(inst), "--key", str(key),
         "--count", str(SAMPLE_COUNT), "--seed", str(op_seed), "--out", str(out)],
        {"instance": str(inst), "key": key, "count": SAMPLE_COUNT, "out": str(out)},
        check_sample,
    )


@dataclass(frozen=True)
class Workload:
    """``build(seed, i, work)`` makes op i.  ``cycle`` is the length of the
    command mix; a traced run takes ``trace_cycles`` whole cycles."""

    build: Callable[[int, int, Path], Op]
    cycle: int
    trace_cycles: int

    @property
    def trace_ops(self) -> int:
        return self.cycle * self.trace_cycles


WORKLOADS = {
    "learn": Workload(_learn, 1, 60),
    "games": Workload(_games, len(GAME_CONFIGS), 5),
    "exact": Workload(_exact, len(EXACT_CYCLE), 3),
    "sample": Workload(_sample, SAMPLE_CYCLE, 10),
}
