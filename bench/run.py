"""rgconv benchmark: one workload per process, one JSON result line.

Usage, from the root of the repository:

    python3 bench/run.py --workload discovery_o48 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, whose spans are also written to ``bench/out/``.
The last line of standard output is the result object; the lines before it
describe the run. See ``bench/README.md``.
"""

import time

# Set-up time counts from the start of the process. Interpreter start-up is
# single-threaded CPU work, so the CPU time consumed before this line stands
# in for the wall time that passed before it.
T_START = time.perf_counter() - time.process_time()

import os  # noqa: E402

# pinned before NumPy loads: one BLAS thread keeps runs comparable on a
# shared machine (at most nproc; recorded in every result)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rgconv", "__init__.py")):
        print(f"error: no rgconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests"), HERE]
    import numpy as np
    import rgconv
    import workloads

    if not os.path.realpath(rgconv.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: rgconv was imported from {rgconv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops, metrics, notes, tracer = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), T_START
    )

    env = {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}; {env}")
    for name, status, detail in ops.results:
        print(f"# op {name}: {status}: {detail}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if tracer is not None:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
        tracer.dump(path, dict(env, workload=args.workload, seed=args.seed))
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
