"""Benchmark of the vlac certificates: one workload per call.

    python3 benchmark/run.py --workload sparse-det --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/vlac`` next to this directory and nowhere else.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--smoke`` runs tiny
instances for the benchmark's own tests.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the program's int64 kernels do
# not use BLAS, and a single thread keeps the shared machine quieter.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "vlac" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {src / 'vlac'}")
    sys.path.insert(0, str(src))
    import vlac

    if Path(vlac.__file__).resolve().parent != (src / "vlac").resolve():
        sys.exit(f"benchmark: imported vlac from {vlac.__file__}, not from {src}")


def write_trace(path: Path, name: str, seed: int, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "coverage": report["coverage"],
        "overhead": report["overhead"],
        "per_layer": {k: v for k, (v, _) in report["layers"].items()},
        "rounds": report["traced_rounds"],
        "span_fields": ["name", "start", "end", "parent", "session"],
        "spans": report["spans"],
    }
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances")
    args = ap.parse_args(argv)

    _load_program()
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"one of {', '.join(harness.workloads.WORKLOADS)}")
    report = harness.measure(args.workload, args.seed, args.seconds, args.smoke, bool(args.trace))
    ops = report["ops"]
    for note in ops.notes:
        print(note, file=sys.stderr)
    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        write_trace(out, args.workload, args.seed, report)
        print(f"# {args.workload}: layer spans cover {100 * report['coverage']:.1f}% of traced "
              f"set-up + prove + verify; tracing overhead {100 * report['overhead']:+.1f}%; "
              f"spans in {out}")
        metrics = report["layers"]
    else:
        metrics = report["e2e"]
        kinds = ("scaled", "wall") if report["scaled"] else ("wall", "scaled")
        other = ", ".join(f"{k} {report['other'][k][0]:.6g}" for k in ("prove_s", "verify_s", "setup_s"))
        print(f"# {args.workload}: {report['rounds']} rounds; times in {kinds[0]} seconds; "
              f"in {kinds[1]} seconds: {other}")
    print(json.dumps({
        "correct": ops.wrong == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
