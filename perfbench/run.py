"""photonlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rigidity --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the library is imported from
the checkout's ``src`` and the CLI is run as ``python -m photonlab.cli``,
so nothing needs installing.  Workloads (see README.md): ``rigidity``,
``survey``, ``cli_cold``.  All are closed loops: one caller, one
operation at a time, and at most one child process at a time.

With ``--trace 0`` the run measures operations for ``--seconds`` and prints
the end-to-end metrics (``op_best_s``: see :func:`op_best`); with
``--trace 1`` it spends half the time untraced and half traced, then probes
the layers the workload does not reach, and prints the per-layer metrics.  Every operation's output is
checked against a known answer.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the same figures, the run's context and (traced runs) the
spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and every child it starts; this
# has to happen before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
from layers import PER_LAYER, LayerRun  # noqa: E402
from workloads import OUT, ROOT, SRC, WORKLOADS, Tally  # noqa: E402

# Set-ups per run: one here before measuring, and six in fresh child
# interpreters spread evenly over the measured time, so that a slow stretch
# of the host does not catch all of them.
SETUP_RUNS = 7
# op_tail_s percentile per workload: the highest that leaves at least 10
# operations beyond it in a 45 s run on a 2-core host at full speed (about
# 60 rigidity, 250 survey and 70 cli_cold operations).  A run with too few
# operations for it, on a slower host or with a shorter --seconds, falls
# back down the grid and says so.
TAIL_PERCENTILE = {"rigidity": 80, "survey": 95, "cli_cold": 85}
TAIL_GRID = (95, 90, 85, 80, 75, 70, 65, 60, 55, 50)

# (name, unit, better, bound) of the end-to-end metrics, BENCHMARK.json order.
# op_p50_s, op_tail_s and ops_per_s are printed but not gated: on a shared
# 2-core host they follow the host's slow stretches (README.md, Steadiness).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_best_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("worst_margin", "ratio", "lower", 0.15),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def run_op(wl, inp, tr, tally, after=None):
    """One operation, timed, then checked; returns (seconds, result, passed)."""
    exc = res = None
    t0 = perf_counter()
    try:
        with tr.span(f"op.{wl.name}"):
            res = wl.op(inp, tr)
    except Exception as e:  # any exception fails the operation
        exc = e
    dt = perf_counter() - t0
    if exc is None and after is not None:
        try:
            after(wl, inp, res)
        except Exception as e:
            exc = e
    return dt, res, tally.record(wl, inp, res, exc)


def set_up(name: str, seed: int, tally: Tally):
    """Import, input generation and one checked warm-up operation."""
    t0 = perf_counter()
    wl = WORKLOADS[name]()
    wl.setup(seed)
    run_op(wl, wl.inputs[0], spans.Off(), tally)
    return wl, perf_counter() - t0


def setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure(wl, seconds, tr, tally, start, after=None, pauses=()):
    """Closed loop over the input cycle for ``seconds`` of operations.

    Each of ``pauses`` (callables) runs once, at evenly spaced points of
    the measured time; the time they take is not part of ``seconds``.
    Returns the operation times, the cycle index of each operation's input,
    the next operation index and the first passing (input, result) pair the
    workload builds its checker controls from.
    """
    times, keys, i, sample = [], [], start, None
    busy, paused = 0.0, 0
    while True:
        if paused < len(pauses) and busy >= seconds * paused / len(pauses):
            pauses[paused]()
            paused += 1
        tr.op = i
        key = i % len(wl.inputs)
        t0 = perf_counter()
        dt, res, passed = run_op(wl, wl.inputs[key], tr, tally, after)
        busy += perf_counter() - t0
        times.append(dt)
        keys.append(key)
        i += 1
        if sample is None and passed and wl.suits_controls(wl.inputs[key]):
            sample = (wl.inputs[key], res)
        if busy >= seconds:
            for pause in pauses[paused:]:
                pause()
            return times, keys, i, sample


def op_best(times, keys):
    """Mean over the cycle's inputs of each input's fastest operation.

    The host this benchmark was tuned on has slow stretches of 10 s to a
    few minutes, in which every operation takes up to twice as long.  An input's fastest
    time over its several turns in one run skips them; its median does not.
    Returns (seconds, the fewest turns any input had, inputs timed).
    """
    turns: dict[int, list[float]] = {}
    for key, dt in zip(keys, times):
        turns.setdefault(key, []).append(dt)
    return (statistics.fmean(min(v) for v in turns.values()),
            min(len(v) for v in turns.values()), len(turns))


def tail(name, times):
    """(percentile, value) of the workload's tail, with 10 samples beyond it."""
    n = len(times)
    p = next((q for q in TAIL_GRID
              if q <= TAIL_PERCENTILE[name] and n * (100 - q) / 100 >= 10), 50)
    if n < 2:
        return p, times[0]
    return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]


def run_controls(wl, sample) -> tuple[bool, list[str]]:
    """Feed the checker deliberately wrong results; each must fail."""
    if sample is None:
        return False, ["no passing operation to build the controls from"]
    tally = Tally()
    cases = wl.controls(*sample)
    lines = []
    for label, inp, res in cases:
        flagged = not tally.record(wl, inp, res, None)
        lines.append(f"{label}: {'failed as it must' if flagged else 'NOT FLAGGED'}")
    lines.append(f"controls fail_ratio {tally.failed}/{tally.attempted}")
    return tally.failed == tally.attempted, lines


def context(args, wl) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": wl.digest,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "photonlab" / "__init__.py").is_file():
        print(f"error: no photonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_only:
        wl, setup_s = set_up(args.workload, args.seed, Tally())
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # build: byte-compile the tree so no timed import pays for compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "photonlab")],
                   check=True, timeout=120, capture_output=True)
    tally = Tally()
    wl, setup_s = set_up(args.workload, args.seed, tally)
    setups = [setup_s]
    op_times, op_keys, info = [], [], {}
    try:
        if args.trace:
            metrics, extra, sample = traced(args, wl, tally)
        else:
            pauses = [lambda: setups.append(setup_in_child(args))] * (SETUP_RUNS - 1)
            times, keys, _, sample = measure(wl, args.seconds, spans.Off(), tally,
                                             start=1, pauses=pauses)
            best, turns, timed = op_best(times, keys)
            p, tail_s = tail(args.workload, times)
            metrics = {
                "setup_s": statistics.median(setups),
                "op_best_s": best,
                "peak_rss_mb": peak_rss_mb(args.workload),
                "worst_margin": tally.worst_margin,
            }
            info = {"op_p50_s": (statistics.median(times), "s"),
                    "op_tail_s": (tail_s, "s"),
                    "ops_per_s": (len(times) / sum(times), "1/s")}
            extra = [f"op_best_s over {timed} of {len(wl.inputs)} inputs, "
                     f"each timed at least {turns} times",
                     f"op_tail_s is p{p} of {len(times)} operations",
                     "op_p50_s, op_tail_s and ops_per_s are not gated",
                     f"setup_s samples {[round(s, 4) for s in setups]}"]
            op_times, op_keys = times, keys
        controls_ok, control_lines = run_controls(wl, sample)
    finally:
        wl.close()

    units = {n: u for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)}
    ctx = context(args, wl)
    correct = tally.failed == 0 and controls_ok
    fail_ratio = tally.failed / tally.attempted
    print(f"# photonlab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# context " + json.dumps(ctx, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    for name, (value, unit) in info.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':<36} {fail_ratio:>16.6g} ({tally.failed}/{tally.attempted})")
    for line in extra + control_lines:
        print("# " + line)
    for note, count in sorted(tally.notes.items()):
        print(f"# note {note}: {count} of {tally.attempted} operations")
    for err in tally.errors:
        print("# FAILED " + err)

    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    record = dict(result, context=ctx, fail_ratio=fail_ratio, notes=tally.notes,
                  not_gated={n: v for n, (v, _) in info.items()},
                  errors=tally.errors, details=extra + control_lines, op_times=op_times,
                  op_inputs=op_keys)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def traced(args, wl, tally):
    """Half the time untraced, half traced, then the layer probes."""
    half = args.seconds / 2.0
    plain, _, nxt, sample = measure(wl, half, spans.Off(), tally, start=1)
    tracer = spans.Tracer()
    layers = LayerRun(tracer, args.seed,
                      lambda w, inp, tr, after: run_op(w, inp, tr, tally, after))
    _, _, nxt, _ = measure(wl, half, tracer, tally, start=nxt, after=layers.after_op)
    traced_p50 = statistics.median(tracer.durations(f"op.{wl.name}"))
    layers.probes(wl, first_op=nxt)
    metrics = layers.metrics(traced_p50 / statistics.median(plain))

    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    selfs = tracer.self_times()
    total = sum(selfs.values())
    extra = [f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}",
             "self time per layer (all spans of the run):"]
    extra += [f"  {layer:<10} {t:9.3f} s {100.0 * t / total:5.1f}%"
              for layer, t in sorted(selfs.items(), key=lambda kv: -kv[1])]
    extra.append(f"conformal.fd_samples seen {sorted(layers.fd_samples)}; scalar oracle "
                 f"calls implied per pipeline {sorted(layers.oracle_calls)}")
    return metrics, extra, sample


if __name__ == "__main__":
    sys.exit(main())
