"""Every metric of repeated benchmark runs, by workload, name and unit.

    python3 perfbench/report.py                    # end-to-end metrics, all workloads, seeds 1-10
    python3 perfbench/report.py --workloads sweep_g1000_w2 --seeds 1-5
    python3 perfbench/report.py --trace            # per-layer table from one traced run each

Each run is `perfbench/run.py` in a fresh process. The spread of a metric is
(q3 - q1) / median over the runs' values, with the quartiles that
statistics.quantiles(values, n=4) gives. Exit code 1 when any run fails a
correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        return {"workload": workload, "seed": seed, "correct": False, "metrics": {},
                "error": done.stderr.strip().splitlines()[-1:]}
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, detail=json.loads(lines[-2])["detail"])
    return result


def spread_row(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def print_end_to_end(spec: dict, results: list[dict]):
    print(f"{'workload':<15} {'metric':<15} {'unit':<10} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'runs':>4}")
    for workload in dict.fromkeys(r["workload"] for r in results):
        rows = [r for r in results if r["workload"] == workload and r["metrics"]]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows if m["name"] in r["metrics"]]
            if not values:
                continue
            median, q1, q3, spread = spread_row(values)
            print(f"{workload:<15} {m['name']:<15} {m['unit']:<10} {median:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {spread:>7.3f} {m['bound']:>6} {len(values):>4}")


def print_per_layer(spec: dict, results: list[dict]):
    workloads = list(dict.fromkeys(r["workload"] for r in results))
    print(f"{'metric':<28} {'unit':<6}" + "".join(f" {w:>15}" for w in workloads))
    by_workload = {w: [r for r in results if r["workload"] == w and r["metrics"]] for w in workloads}
    for m in spec["per_layer"]:
        cells = []
        for w in workloads:
            values = [r["metrics"][m["name"]]["value"] for r in by_workload[w] if m["name"] in r["metrics"]]
            cells.append(f" {statistics.median(values):>15.5g}" if values else f" {'-':>15}")
        print(f"{m['name']:<28} {m['unit']:<6}" + "".join(cells))
    self_names = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_s")]
    for w in workloads:
        for r in by_workload[w]:
            values = {k: v["value"] for k, v in r["metrics"].items()}
            if values.get("protocol.worker_util"):
                continue  # its layers come from a separate one-worker pass
            layers = sum(values[name] for name in self_names)
            remainder = values["trace.remainder_s"]
            print(f"{w} seed {r['seed']}: layer self times {layers:.4f} s + untraced remainder "
                  f"{remainder:.6f} s = {layers + remainder:.4f} s of traced wall "
                  f"{values['trace.wall_s']:.4f} s")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default=None, help="e.g. 1-10 or 3,5,8 (default 1-10, traced 1)")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds or ("1" if args.trace else "1-10"))

    results = []
    for workload in args.workloads.split(","):
        for seed in seeds:
            result = run(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            status = "ok" if result["correct"] else f"FAILED {result.get('error') or result['detail']['problems']}"
            print(f"# {workload} seed {seed}: {status}", file=sys.stderr, flush=True)
    stamp = next((r["detail"]["stamp"] for r in results if "detail" in r), {})
    print("# " + json.dumps({k: v for k, v in stamp.items() if k not in ("workload", "seed")}))
    (print_per_layer if args.trace else print_end_to_end)(spec, results)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
