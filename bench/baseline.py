"""Run the benchmark over several seeds and record the baseline.

    python3 bench/baseline.py                      # 10 seeds per workload
    python3 bench/baseline.py --workloads frame --seeds 5 --no-write
    python3 bench/baseline.py --first-seed 11 --no-write --against bench/baseline.json

Runs the command in BENCHMARK.json once per seed and workload with tracing
off, seed by seed, and then once per workload with tracing on (the first
seed).  For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, against a third of the metric's bound, and with
``--against`` how far each median lies from that record's.  Unless
``--no-write`` is given, writes everything to bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host"] = next((json.loads(line[len("# host: "):]) for line in lines
                           if line.startswith("# host: ")), None)
    result["notes"] = [line for line in lines[:-1]
                       if line.startswith(("# failed", "# known defect"))]
    result["failed_frac"] = next(float(line.split()[1]) for line in lines
                                 if line.startswith("failed_frac ")) if not trace else None
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--no-write", action="store_true")
    p.add_argument("--against", metavar="FILE", help="a baseline record whose medians this set must agree with")
    args = p.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    names = args.workloads.split(",")
    # seed by seed, so that every workload meets the same spread of host conditions
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run(bench["command"], name, seed, bench["run_seconds"], 0))
    against = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    for workload, wl_runs in runs.items():
        traced = run(bench["command"], workload, seeds[0], bench["run_seconds"], 1)
        record["host"] = wl_runs[0]["host"]
        end_to_end = {}
        for name, spec in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in wl_runs])
            stats.update(unit=spec["unit"], better=spec["better"], bound=spec["bound"])
            end_to_end[name] = stats
            ok = stats["spread"] < spec["bound"] / 3
            steady &= ok
            print(f"{workload:9s} {name:12s} median {stats['median']:.6g} {spec['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f} "
                  f"(bound/3 {spec['bound'] / 3:.3f}) {'ok' if ok else 'WIDE'}", flush=True)
            if workload in against:
                # either set may be the first: each median against the other's
                other = against[workload]["end_to_end"][name]["median"]
                apart = max(other, stats["median"]) / min(other, stats["median"]) - 1.0
                agree = apart <= spec["bound"]
                steady &= agree
                print(f"{'':9s} {name:12s} other set's median {other:.6g}, {apart:.3f} apart "
                      f"(bound {spec['bound']}) {'agree' if agree else 'DIFFER'}", flush=True)
        elapsed = [r["elapsed_s"] for r in wl_runs] + [traced["elapsed_s"]]
        print(f"{workload:9s} run time {min(elapsed):.1f}-{max(elapsed):.1f} s per run", flush=True)
        record["workloads"][workload] = {
            "why": whys[workload],
            "run_elapsed_s": elapsed,
            "attempted": [r["attempted"] for r in wl_runs],
            "failed": [r["failed"] for r in wl_runs],
            "failed_frac": summary([r["failed_frac"] for r in wl_runs]),
            "failures_first_seed": wl_runs[0]["notes"],
            "end_to_end": end_to_end,
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    if not args.no_write:
        out = ROOT / "bench" / "baseline.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
