"""Benchmark for lemname: train, serve and baseline_eval.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads (inputs come from `generate_synthetic_corpus` at the seed):
  train          model.train on stmt+ckt, 32/64 dims, batch 16
  serve          `lemname serve` at k=5 with one closed-loop client
  baseline_eval  `lemname evaluate --baseline` on stmt+cst+ckt

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
wraps the public functions of the lemname modules and prints per-layer
call counts and self times, an encoder length sweep, and the tracing
overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The package is imported
from `src/`; without it the benchmark exits with code 2.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFINITION = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("train", "serve", "baseline_eval")


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def units() -> dict:
    definition = json.loads(DEFINITION.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}


def main(argv=None, plan=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lemname" / "__init__.py").is_file() or not DEFINITION.is_file():
        print(f"error: run from a lemname checkout; {SRC / 'lemname'} or {DEFINITION} is missing", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir, plan or workloads.Plan()
    )
    unit_of = units()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for note in result.notes:
        print(note)
    for name, value in result.metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit_of.get(name, '?')}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    line = {
        "correct": result.counts.failed == 0,
        "attempted": result.counts.attempted,
        "failed": result.counts.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]} for name, value in result.metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # One CPU for this process and the server it starts: the reference
    # timings then run where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
