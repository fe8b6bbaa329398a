"""genlearn benchmark: drive the CLI in-process and report end-to-end or
per-layer metrics.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  With ``--trace 0`` the workload's commands run in a closed loop
(one client, each command issued when the previous one returns) for
``--seconds`` of command time and at least ``MIN_OPS`` commands; the last
line of stdout is a JSON object with every end-to-end metric named in
BENCHMARK.json.  With ``--trace 1`` a fixed number of commands runs once
untraced and once traced (see tracing.py), and the JSON holds every
per-layer metric.  Outputs are checked after the timed region; a failed
check counts as a failed op.  See DESIGN.md for the workloads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import SELF_CHECK_N, WORKLOADS, learn_op  # noqa: E402

MIN_OPS = 100  # >= 10 ops beyond p90
WALL_CAP_S = 140.0  # stop the loop early rather than overrun a 180 s run
SETUP_REPEATS = 15
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import genlearn.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def time_import() -> float:
    """Wall time to import genlearn.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


class Result:
    """What one op did: exit code, captured output, time, failure reason."""

    def __init__(self):
        self.rc: int | None = None
        self.stdout = ""
        self.seconds = 0.0
        self.failure: str | None = None


def run_op(main, op, tracer: Tracer | None = None, op_id: int = 0) -> Result:
    """Run one command in-process; only the ``main`` call is timed."""
    res = Result()
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tracer is None:
                res.rc = main(op.argv)
            else:
                res.rc = tracer.run_op(op_id, op.kind, main, op.argv)
        except SystemExit as stop:  # argparse usage errors
            res.rc = stop.code if isinstance(stop.code, int) else 1
        except Exception as caught:  # a crash is a failed op, not a crashed run
            exc = caught
        res.seconds = perf_counter() - t0
    res.stdout = out.getvalue()
    if exc is not None:
        res.failure = "".join(traceback.format_exception(exc)).strip()
    elif res.rc != 0:
        res.failure = f"exit {res.rc}: {err.getvalue().strip()}"
    return res


def failure(op, res: Result) -> str | None:
    """Why the op failed: its exit, its crash, or its output check."""
    if res.failure is not None:
        return res.failure
    try:
        return op.check(op, res.stdout)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def count_failed(ops, results) -> int:
    failed = 0
    for op, res in zip(ops, results):
        reason = failure(op, res)
        if reason is not None:
            print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
            failed += 1
    return failed


def self_check(main, work: Path, seed: int) -> bool:
    """A sample with one flipped value bit must come out as a failed op."""
    op = learn_op(SELF_CHECK_N, random.Random(f"self-check:{seed}"), work / "flipped.txt",
                  flip_value_bit=True)
    caught = failure(op, run_op(main, op)) is not None
    print(f"self_check = {'failed op, as required' if caught else 'NOT DETECTED'}")
    return caught


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def emit(values: dict, kind: str, attempted: int, failed: int, correct: bool) -> None:
    metrics = {}
    for m in declared(kind):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def timed_run(main, workload, seed: int, seconds: float, work: Path, started: float):
    """Closed loop: op i+1 is issued when op i returns.

    One cycle of the mix runs first as a warm-up: checked, not timed.  The
    timed ops are whole cycles, so every run times the same mix.  Import
    timings are taken between ops, spread over the run, so that their
    median covers the same stretch of machine time as the ops.
    """
    cycle = workload.cycle
    warm = [workload.build(seed, i, work) for i in range(cycle)]
    warm_results = [run_op(main, op) for op in warm]
    ops, results, imports, busy = [], [], [], 0.0
    while len(ops) % cycle or busy < seconds or len(ops) < MIN_OPS:
        if perf_counter() - started > WALL_CAP_S:
            print(f"warning: wall cap reached after {len(ops)} ops", file=sys.stderr)
            break
        op = workload.build(seed, cycle + len(ops), work)
        res = run_op(main, op)
        ops.append(op)
        results.append(res)
        busy += res.seconds
        while len(imports) < SETUP_REPEATS * min(busy / seconds, 1.0):
            imports.append(time_import())
    while len(imports) < SETUP_REPEATS:
        imports.append(time_import())
    return warm + ops, warm_results + results, len(warm), statistics.median(imports)


def end_to_end(main, workload, args, work: Path, started: float):
    ops, results, warm, setup_s = timed_run(
        main, workload, args.seed, args.seconds, work, started)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [r.seconds * 1000 for r in results[warm:]]
    failed = count_failed(ops, results)
    print(f"samples = {len(lat_ms)} timed ops after {warm} warm-up, "
          f"{sum(lat_ms) / 1000:.3f} s of command time")
    values = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, len(ops), failed


def traced(main, workload, args, work: Path):
    """The same fixed ops untraced, then traced; counts repeat for a seed."""
    ops = [workload.build(args.seed, i, work) for i in range(workload.trace_ops)]
    plain = [run_op(main, op) for op in ops]
    failed = count_failed(ops, plain)
    tracer = Tracer()
    tracer.install()
    try:
        rerun = [run_op(main, op, tracer, i) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    failed += count_failed(ops, rerun)
    values = tracer.metrics()
    values["trace.overhead"] = sum(r.seconds for r in plain) / sum(r.seconds for r in rerun)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    print(f"samples = {len(ops)} ops per pass; {len(tracer.spans)} spans in {spans}")
    return values, 2 * len(ops), failed


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "genlearn" / "cli.py").is_file():
        print(f"error: no genlearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import genlearn.cli

    if Path(genlearn.cli.__file__).resolve().parent != (SRC / "genlearn").resolve():
        print(f"error: imported {genlearn.cli.__file__}, not the sources under {SRC}",
              file=sys.stderr)
        return 2
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_rev": git_rev(), "python": platform.python_version(),
            "cpu_count": os.cpu_count()}
    print(f"meta = {json.dumps(meta)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            values, attempted, failed = traced(genlearn.cli.main, workload, args, work)
        else:
            values, attempted, failed = end_to_end(
                genlearn.cli.main, workload, args, work, started)
        caught = self_check(genlearn.cli.main, work, args.seed)
    finally:
        shutil.rmtree(work)
    emit(values, "per_layer" if args.trace else "end_to_end", attempted, failed,
         correct=failed == 0 and caught)
    return 0


if __name__ == "__main__":
    sys.exit(main())
