"""The measuring process of one benchmark run.

Runs a workload's passes in this process through `kljn.cli.main`, checks every
pass's outputs, and prints one JSON line with the metrics. `run.py` starts it
as a fresh process so that its peak RSS (self and worker children) belongs to
the workload alone.

Untraced: pass 0 warms up (checked, not timed), timed passes follow until
`--seconds` have passed (at least the workload's `min_passes`), then pass 0
runs again and its output digest must equal the first one. Traced: the same untraced passes give
the untraced median; then pass 1 runs once as configured with spans recorded,
and for a pooled workload once more with one worker, because spans inside
forked workers are not collected. Every traced pass must reproduce the
untraced digest of pass 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kljn.cli  # noqa: E402
from reference import KERNELS, close_references, reference_s  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, pass_seed  # noqa: E402


def run_pass(workload, seed: int, index: int, workdir: Path, workers: int) -> dict:
    cfg = workdir / f"pass{index}.cfg"
    cfg.write_text(workload.config_text(pass_seed(workload.name, seed, index)))
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    gc.collect()
    ref_s = reference_s(workload.reference) if workload.reference else None
    cmd_s, outputs, problems = {}, {}, []
    digest = hashlib.sha256()
    for label, argv, path in workload.commands(cfg, out, workers):
        t0 = perf_counter()
        try:
            rc = kljn.cli.main(argv)
        except Exception:  # a crash is a failed pass, not a failed benchmark
            rc = traceback.format_exc(limit=3)
        cmd_s[label] = perf_counter() - t0
        if rc != 0:
            problems.append(f"{label}: exit {rc}")
            continue
        data = path.read_bytes()
        digest.update(label.encode() + b"\0" + data)
        outputs[label] = data.decode()
    stats = {}
    if not problems:
        try:
            found, stats = workload.check(outputs)
            problems += found
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return {
        "index": index,
        "workers": workers,
        "wall_s": sum(cmd_s.values()),
        "cmd_s": cmd_s,
        "ref_s": ref_s,
        "digest": digest.hexdigest(),
        "problems": problems,
        "stats": stats,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def timed_passes(workload, seed, seconds, workdir):
    passes = [run_pass(workload, seed, 0, workdir, workload.workers)]
    start = perf_counter()
    while len(passes) <= workload.min_passes or perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, len(passes), workdir, workload.workers))
    return passes


def end_to_end(workload, passes) -> tuple[dict, dict]:
    """Metrics from the timed passes; times at the reference speed when the workload
    names a reference kernel (see reference.py)."""
    timed = passes[1:]
    nominal = KERNELS[workload.reference][1] if workload.reference else None
    scale = [nominal / p["ref_s"] if nominal else 1.0 for p in timed]
    wall = [p["wall_s"] * k for p, k in zip(timed, scale)]
    series = {
        "wall_s": wall,
        "periods_per_s": [workload.periods / w for w in wall],
        "msamples_per_s": [workload.samples / w / 1e6 for w in wall],
        "raw_wall_s": [p["wall_s"] for p in timed],
    }
    spread = {name: quartiles(values) for name, values in series.items()}
    metrics = {name: q[1] for name, q in spread.items()}
    pool = [p["stats"] for p in passes if p["stats"]]
    if pool:
        cmd_s = [{label: t * k for label, t in p["cmd_s"].items()} for p, k in zip(timed, scale)]
        metrics["eps_10pct_s"] = workload.eps_10pct_s(pool, cmd_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, spread


def traced_layers(workload, seed, workdir, untraced_wall) -> tuple[dict, list]:
    tracer = Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        cpu0 = child_cpu_s()
        configured = run_pass(workload, seed, 1, workdir, workload.workers)
        child_cpu = child_cpu_s() - cpu0
        as_run = tracer.summary(mark)
        layers, extra = as_run, []
        if workload.workers > 1:
            mark = tracer.mark()
            serial = run_pass(workload, seed, 1, workdir, 1)
            layers, extra = tracer.summary(mark), [serial]
    finally:
        tracer.uninstall()
    metrics = layer_metrics(layers)
    pool_wall = sum(d for n, d in as_run["protocol"]["counts"] if n > 1)
    metrics["protocol.worker_util"] = (
        child_cpu / (workload.workers * pool_wall) if pool_wall else 0.0
    )
    self_sum = sum(row["self_s"] for row in as_run.values())
    metrics["trace.wall_s"] = configured["wall_s"]
    metrics["trace.remainder_s"] = configured["wall_s"] - self_sum
    metrics["trace.overhead_s"] = configured["wall_s"] - untraced_wall
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced_wall
    return metrics, [configured] + extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        passes = timed_passes(workload, args.seed, args.seconds, args.workdir)
        metrics, spread = end_to_end(workload, passes)
        first = passes[1] if args.trace else passes[0]
        if args.trace:
            layer, extra = traced_layers(workload, args.seed, args.workdir, metrics["raw_wall_s"])
            metrics.update(layer)
        else:
            extra = [run_pass(workload, args.seed, 0, args.workdir, workload.workers)]
    finally:
        close_references()
    for p in extra:
        if p["digest"] != first["digest"]:
            p["problems"].append(
                f"digest of pass {p['index']} ({p['workers']} workers) differs from its first run"
            )
    passes += extra

    # the extra passes repeat an earlier pass's seed, so they add nothing to the pool
    pool = [p["stats"] for p in passes[: len(passes) - len(extra)] if p["stats"]]
    run_problems = workload.run_gate(pool) if pool else ["no pass produced checked output"]
    failed = len(passes) if run_problems else sum(1 for p in passes if p["problems"])
    for p in passes:
        del p["stats"]
    print(
        json.dumps(
            {
                "attempted": len(passes),
                "failed": failed,
                "problems": run_problems + [q for p in passes for q in p["problems"]],
                "metrics": metrics,
                "spread": spread,
                "timed_passes": len(passes) - 1 - len(extra),
                "passes": passes,
                "env": {
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    # numpy loads its FFT backend modules on first use
                    "numpy_fft": sorted(m for m in sys.modules if m.startswith("numpy.fft._")),
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
