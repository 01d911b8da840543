"""Steadiness check: two independent sets of runs of the same code.

    python3 benchmark/steadiness.py     # 2 sets x 10 runs x every workload

Each run is ``benchmark/run.py --trace 0`` in a fresh process with its own
seed (set k uses seeds k*100+1 .. k*100+10).  For every workload in
BENCHMARK.json and every end-to-end metric it prints each set's median
and quartiles, the quartile spread as a share of the median, and the
change of the second median against the first, next to the metric's
bound.  A line is OK when the spread and the change, in either
direction, both stay within the bound.  Results go to
benchmark/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS, RUNS = 2, 10
OUT = HERE / "out" / "steadiness.json"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    # the line before the result: "# <workload>: ...; in wall seconds: prove_s 1.2, ..."
    _, _, other = lines[-2].rpartition(" seconds: ")
    result["other"] = {k: float(v) for k, v in (kv.split() for kv in other.split(", "))}
    return result


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def change(first: float, second: float) -> float:
    """Signed share by which the second median differs from the first."""
    return (second - first) / first if first else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {}  # "set/workload" -> list of results
    for k in range(1, SETS + 1):
        for i in range(1, RUNS + 1):
            for w in workloads:
                res = one_run(w, k * 100 + i, spec["run_seconds"])
                runs.setdefault(f"{k}/{w}", []).append(res)
                print(f"set {k} run {i} {w}: {res['wall_s']:.1f}s wall, "
                      f"{res['attempted']} ops, {res['failed']} failed", file=sys.stderr)

    ok = True
    table = {}
    print(f"{'workload':14} {'metric':15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'change':>7} {'bound':>6}")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs[f"{k}/{w}"]) /
                  sum(r["attempted"] for r in runs[f"{k}/{w}"]) for k in range(1, SETS + 1)]
        walls = [r["wall_s"] for k in range(1, SETS + 1) for r in runs[f"{k}/{w}"]]
        print(f"{w}: failed share per set {shares}; run wall time "
              f"{min(walls):.1f}-{max(walls):.1f}s")
        ok &= len(set(shares)) == 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summary([r["metrics"][name]["value"] for r in runs[f"{k}/{w}"]])
                    for k in range(1, SETS + 1)]
            table[f"{w}/{name}"] = sets
            for k, s in enumerate(sets, start=1):
                moved = change(sets[0]["median"], s["median"])
                line_ok = s["spread"] <= bound and abs(moved) <= bound
                ok &= line_ok
                print(f"{w:14} {name:15} {k:>3} {s['median']:>12.6g} {s['q1']:>12.6g} "
                      f"{s['q3']:>12.6g} {100 * s['spread']:>6.2f}% {100 * moved:>+6.2f}% "
                      f"{100 * bound:>5.1f}% {'OK' if line_ok else 'OVER'}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"runs": runs, "summary": table}, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
