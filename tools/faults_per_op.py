"""Minor page faults and system CPU time per benchmark operation.

    python3 tools/faults_per_op.py --workload rigidity --seed 503 --seconds 10

Runs ``perfbench/run.py``'s ``main`` in this process, untraced, for one
workload, seed and duration, and reads ``resource.getrusage`` of this
process (``RUSAGE_SELF``: the set-up children it starts are not counted)
before and after it.  Prints the run's own last line, then the minor page
faults (``ru_minflt``) and the system CPU time (``ru_stime``) per attempted
operation and the process's peak resident set (``ru_maxrss`` in MB, the
benchmark's ``peak_rss_mb``), and exits 1 if the run was not correct or
the faults exceed ``--max-faults``.

A few faults an operation is a process that keeps its temporaries on the
heap.  Hundreds, with about a millisecond of system time, mean the
allocator hands them back to the kernel after every operation and faults
them in again.  Whether it does depends on what else the process
allocated and freed, so measure inside the runner: a loop of operations
after ``set_up`` alone can read a fraction of a fault where the runner
reads hundreds.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-faults", type=float, default=float("inf"),
                    help="fail above this many minor faults per operation")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import run  # sets the BLAS/OpenMP thread variables before numpy loads

    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", "0"])
    after = resource.getrusage(resource.RUSAGE_SELF)
    last = out.getvalue().splitlines()[-1]
    result = json.loads(last)
    ops = result["attempted"]
    faults = (after.ru_minflt - before.ru_minflt) / ops
    stime_us = 1e6 * (after.ru_stime - before.ru_stime) / ops
    print(last)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s: {ops} operations, "
          f"{faults:.2f} minor faults and {stime_us:.1f} us system time per operation, "
          f"peak RSS {after.ru_maxrss / 1024.0:.2f} MB")
    ok = code == 0 and result["correct"] and faults <= args.max_faults
    if faults > args.max_faults:
        print(f"more than {args.max_faults:g} minor faults per operation", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
