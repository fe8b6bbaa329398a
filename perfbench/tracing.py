"""Per-layer tracing from outside the program, by rebinding names.

Each traced function is replaced, in every ``genlearn.*`` namespace that
binds it (and on its class, for methods), by a wrapper that times it and
subtracts the time of traced calls nested inside it.  Three kinds:

* ``SPAN`` - coarse calls (a command, a game, a table, an instance, a
  key).  Each call is kept as a span record: id, name, op id, parent span,
  start, end, and the hot-leaf totals accumulated under it.
* ``CALL`` - mid-level calls: per-name count, self and inclusive time.
* ``LEAF`` - hot leaves: like ``CALL``, and their count and self time are
  also added to the enclosing span.

Builtin ``pow`` cannot be wrapped, so modexp counts are out of reach here.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

SPAN, CALL, LEAF = "span", "call", "leaf"


def _dlog_steps(args, kwargs, result, pre) -> dict:
    p = args[0]
    engine = kwargs.get("engine", args[3] if len(args) > 3 else "bsgs")
    q = (p - 1) // 2
    # BSGS builds ceil(sqrt(q)) baby steps per call.
    steps = math.isqrt(q - 1) + 1 if engine == "bsgs" and q > 1 else 0
    return {"numtheory.discrete_log.baby_steps": steps}


def _rng_state(args, kwargs):
    return args[1].getstate()


def _candidates(args, kwargs, result, state) -> dict:
    # Replay the candidate draws from the rng state at entry until the
    # returned prime comes up: a rejected candidate is never drawn again
    # before it, since the test is deterministic.
    n = args[0]
    rng = random.Random()
    rng.setstate(state)
    for count in range(1, 200_001):
        if (1 << (n - 1)) | rng.getrandbits(n - 1) | 1 == result.p:
            return {"numtheory.generate_instance.candidates": count}
    print("trace: candidate replay did not meet the returned prime", file=sys.stderr)
    return {}


def _levels(args, kwargs, result, pre) -> dict:
    return {"prf.ggm_walk.levels": len(args[2])}


def _seeds(args, kwargs, result, pre) -> dict:
    return {"distributions.exact_table.seeds": 1 << args[0].seed_bits}


def _distinguish(args, kwargs, result, pre) -> dict:
    return {"games.trials": result.trials,
            "games.invalid": result.invalid_real + result.invalid_random}


def _inference(args, kwargs, result, pre) -> dict:
    return {"games.trials": result.trials, "games.invalid": result.invalid,
            "games.violations": result.violations}


# (metric prefix, module, attribute path, kind, pre-call hook, counter)
TARGETS = (
    ("numtheory.discrete_log", "numtheory", "discrete_log", CALL, None, _dlog_steps),
    ("numtheory.generate_instance", "numtheory", "generate_instance", SPAN,
     _rng_state, _candidates),
    ("numtheory.is_prime", "numtheory", "is_prime", LEAF, None, None),
    ("numtheory.f_p", "numtheory", "f_p", LEAF, None, None),
    ("numtheory.f_p_inv", "numtheory", "f_p_inv", CALL, None, None),
    ("numtheory.is_qr", "numtheory", "is_qr", LEAF, None, None),
    ("numtheory.validate_instance", "numtheory", "validate_instance", CALL, None, None),
    ("numtheory.qr_set", "numtheory", "qr_set", CALL, None, None),
    ("prf.ggm_walk", "prf", "ggm_walk", CALL, None, _levels),
    ("prf.check_bits", "prf", "check_bits", LEAF, None, None),
    ("prf.MembershipOracle.query", "prf", "MembershipOracle.query", CALL, None, None),
    ("prf.RandomExampleOracle.draw", "prf", "RandomExampleOracle.draw", CALL, None, None),
    ("prf.LazyRandomFunction", "prf", "LazyRandomFunction.__call__", CALL, None, None),
    ("distributions.exact_table", "distributions", "exact_table", SPAN, None, _seeds),
    ("distributions.DistTable.validate", "distributions", "DistTable.__post_init__", CALL,
     None, None),
    ("distributions.kl_divergence", "distributions", "kl_divergence", CALL, None, None),
    ("distributions.tv_distance", "distributions", "tv_distance", CALL, None, None),
    ("distributions.GeneratorSpec.eval", "distributions", "GeneratorSpec.eval", CALL,
     None, None),
    ("distributions.SampleOracle.sample", "distributions", "SampleOracle.sample", CALL,
     None, None),
    ("distributions.write_samples", "distributions", "write_samples", CALL, None, None),
    ("distributions.read_samples", "distributions", "read_samples", CALL, None, None),
    ("learner.learn_from_sample", "learner", "learn_from_sample", SPAN, None, None),
    ("learner.learn_key", "learner", "learn_key", SPAN, None, None),
    ("games.run_distinguisher_game", "games", "run_distinguisher_game", SPAN, None,
     _distinguish),
    ("games.run_inference_game", "games", "run_inference_game", SPAN, None, _inference),
    ("seeding.make_rng", "seeding", "make_rng", CALL, None, None),
    ("boolfn.classify_exact_generators", "boolfn", "classify_exact_generators", SPAN,
     None, None),
    ("boolfn.function_table", "boolfn", "function_table", SPAN, None, None),
)

CLI_COMMANDS = ("instance", "sample", "learn", "game", "verify")


class Tracer:
    """Collects spans and per-name totals while its wrappers are installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [id, name, op, parent, start, end, leaves]
        self.op_kinds: dict[int, str] = {}
        self._frames: list[list[float]] = []  # child seconds of each active call
        self._open: list[list] = []  # active span records
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, kind: str, pre=None, counter=None) -> Callable:
        frames, open_spans, spans = self._frames, self._open, self.spans
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            frame = [0.0]
            record = None
            if kind == SPAN:
                parent = open_spans[-1][0] if open_spans else None
                record = [len(spans), name, self._op, parent, 0.0, 0.0, {}]
                spans.append(record)
                open_spans.append(record)
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                elapsed = t1 - t0
                own = elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += own
                incl_s[name] += elapsed
                if record is not None:
                    record[4], record[5] = t0, t1
                    open_spans.pop()
                elif kind == LEAF and open_spans:
                    leaf = open_spans[-1][6].setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += own
            if counter:
                self.counts.update(counter(args, kwargs, result, state))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in all loaded ``genlearn`` modules."""
        modules = [m for k, m in sys.modules.items() if k == "genlearn" or k.startswith("genlearn.")]
        for name, module, path, kind, pre, counter in TARGETS:
            owner = sys.modules[f"genlearn.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, kind, pre, counter)
            if classes:
                self._rebind(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def run_op(self, op_id: int, command: str, fn: Callable, *args):
        """Run one CLI command as the root span ``cli.<command>`` of op ``op_id``."""
        self._op = op_id
        self.op_kinds[op_id] = command
        try:
            return self._wrap(f"cli.{command}", fn, SPAN)(*args)
        finally:
            self._op = None

    def leaf_seconds_in(self, leaf: str, command: str) -> float:
        """Self time of a hot leaf under spans of ops of one command."""
        return sum(
            rec[6][leaf][1]
            for rec in self.spans
            if leaf in rec[6] and self.op_kinds.get(rec[2]) == command
        )

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<name>.calls``, ``.self_s``, counts, shares."""
        out: dict[str, float] = {}
        for name in [t[0] for t in TARGETS] + [f"cli.{c}" for c in CLI_COMMANDS]:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key in ("numtheory.discrete_log.baby_steps", "numtheory.generate_instance.candidates",
                    "prf.ggm_walk.levels", "distributions.exact_table.seeds",
                    "games.trials", "games.invalid", "games.violations"):
            out[key] = self.counts[key]
        out["distributions.DistTable.validate_s"] = self.incl_s["distributions.DistTable.validate"]
        walks = self.calls["prf.ggm_walk"]
        out["prf.check_bits.per_walk"] = self.calls["prf.check_bits"] / walks if walks else 0.0
        keys = self.calls["learner.learn_key"]
        out["learner.dlogs_per_key"] = self.calls["numtheory.discrete_log"] / keys if keys else 0.0
        op_seconds = sum(self.incl_s[f"cli.{c}"] for c in CLI_COMMANDS)
        out["numtheory.discrete_log.share"] = self.incl_s["numtheory.discrete_log"] / op_seconds
        out["distributions.exact_table.share"] = self.incl_s["distributions.exact_table"] / op_seconds
        instance_s = self.incl_s["cli.instance"]
        out["numtheory.is_prime.share_of_instance_ops"] = (
            self.leaf_seconds_in("numtheory.is_prime", "instance") / instance_s
            if instance_s else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order."""
        fields = ("id", "name", "op", "parent", "start", "end", "leaves")
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(fields, rec))) + "\n")
