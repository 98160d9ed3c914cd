"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload session_g30 --seed 1 --seconds 15 --trace 0

Run from the repository root. It times a cold interpreter start to `kljn.cli`
imported and the config resolved (setup_s, median of SETUP_PROBES starts),
then starts `measure.py` to run the workload's passes. It prints a detail
line (environment stamp, per-pass times and digests, problems) and, as the
last line of standard output, the result object with the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`) that BENCHMARK.json
names. Exit code 0 when every correctness gate passed, 1 otherwise, 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from reference import SETUP_NOMINAL_S, SETUP_REFERENCE  # noqa: E402
from workloads import WORKLOADS, pass_seed  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

_PROBE = """\
import sys, time
t0 = time.perf_counter()
import kljn.cli
t1 = time.perf_counter()
from kljn.config import load_config
load_config(sys.argv[1]).config_hash()
print(t1 - t0)
"""


def _start(env: dict, *args: str) -> tuple[float, str]:
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return perf_counter() - t0, done.stdout


def setup_probe(cfg: Path, env: dict) -> tuple[float, float, float]:
    """Seconds from process start to config resolved, seconds importing kljn.cli,
    and seconds of the set-up reference started just before."""
    ref_s, _ = _start(env, SETUP_REFERENCE)
    wall_s, out = _start(env, _PROBE, str(cfg))
    return wall_s, float(out), ref_s


def measure(args, workload, workdir: Path, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run measure.py in its own process group, so a timeout also stops its pool workers."""
    argv = [sys.executable, str(HERE / "measure.py"), "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        name = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
        caches[name] = _read(index / "size")
    return caches


def _bytes(size: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if size and size[-1] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else None


def stamp(args, workload, env_child: dict, timed_passes: int) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "kljn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = cpu_caches()
    out = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **env_child,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setup_probes": SETUP_PROBES,
        "timed_passes": timed_passes,
    }
    if hasattr(workload, "array_bytes"):
        out["array_bytes"] = workload.array_bytes
        out["llc_bytes"] = _bytes(caches.get("L3", ""))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kljn" / "cli.py").is_file():
        print(f"perfbench: no kljn package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    started = perf_counter()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = workdir / "setup.cfg"
        cfg.write_text(workload.config_text(pass_seed(workload.name, args.seed, 0)))
        probes = [setup_probe(cfg, env) for _ in range(SETUP_PROBES)]
        measured = measure(args, workload, workdir, env, RUN_LIMIT_S - (perf_counter() - started))
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if measured.returncode != 0:
        sys.stderr.write(measured.stderr)
        print(f"perfbench: measuring process exited {measured.returncode}", file=sys.stderr)
        return 1
    child = json.loads(measured.stdout.splitlines()[-1])

    values = dict(child["metrics"])
    values["setup_s"] = statistics.median(p[0] * SETUP_NOMINAL_S / p[2] for p in probes)
    values["setup.import_s"] = statistics.median(p[1] for p in probes)
    problems = list(child["problems"])
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")
    correct = not problems and child["failed"] == 0
    detail = {
        "stamp": stamp(args, workload, child["env"], child["timed_passes"]),
        "spread": child["spread"],
        "setup_probes_s": [p[0] for p in probes],
        "setup_reference_s": [p[2] for p in probes],
        "passes": child["passes"],
        "problems": problems,
    }
    for m in wanted:
        if m["name"] in metrics:
            print(f"{workload.name:>15} {m['name']:<28} {metrics[m['name']]['value']:>14.6g} {m['unit']}",
                  file=sys.stderr)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"] if child["failed"] or correct else child["attempted"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
