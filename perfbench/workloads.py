"""The benchmark's workloads: inputs made from the workload seed, the kljn CLI
calls of one pass, and the correctness gates on their outputs.

A pass is one execution of a workload's CLI calls on one generated config.
Every pass of a run gets its own master seed, derived from the workload seed
and the pass index, so the same workload seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

Z95 = 1.959963984540054
SQRT3 = math.sqrt(3.0)
OVERSAMPLE = 4  # the config default; with b_kljn = 1 the sample rate is 4 Hz


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of one pass: a 63-bit value derived from (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def samples_per_period(gamma: float) -> int:
    """Samples per bit-exchange period, as SystemConfig computes them (b_kljn = 1)."""
    n = int(round(OVERSAMPLE * gamma))
    return n + (n % 2)


def wilson_half_width(p: float, n: float) -> float:
    denom = 1.0 + Z95 * Z95 / n
    return Z95 * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n)) / denom


def periods_for_relative_half_width(p: float, target: float = 0.10) -> float:
    """Smallest n at which the 95% Wilson half-width at rate p falls to target * p."""
    lo, hi = 1.0, 1.0
    while wilson_half_width(p, hi) > target * p:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if wilson_half_width(p, mid) > target * p:
            lo = mid
        else:
            hi = mid
    return hi


def _popcount_xor(hex_a: str, hex_b: str) -> int:
    return bin(int(hex_a or "0", 16) ^ int(hex_b or "0", 16)).count("1")


class Workload:
    """One named workload. Subclasses fill in the class attributes and hooks."""

    name = ""
    workers = 1
    min_passes = 5  # timed passes per run, whatever --seconds says
    reference = None  # kernel whose speed the times are reported at (reference.py)
    periods = 0  # channel periods solved per pass
    samples = 0  # noise samples synthesized per pass

    def config_text(self, master_seed: int) -> str:
        raise NotImplementedError

    def commands(self, cfg: Path, out: Path, workers: int) -> list[tuple[str, list[str], Path]]:
        """(label, CLI argv, output file) for each CLI call of one pass."""
        raise NotImplementedError

    def check(self, outputs: dict[str, str]) -> tuple[list[str], dict]:
        """Per-pass gate: (problems found, statistics kept for the run)."""
        raise NotImplementedError

    def run_gate(self, stats: list[dict]) -> list[str]:
        """Gate on the statistics pooled over all passes of a run."""
        return []

    def eps_10pct_s(self, stats: list[dict], cmd_s: list[dict]) -> float:
        """Projected seconds to the workload's headline estimate at 10% (95%) accuracy."""
        raise NotImplementedError


class SessionG30(Workload):
    name = "session_g30"
    n_periods = 1500
    gamma = 30.0
    reference = "small"
    # Threshold fraction 0.2 makes dangerous keeps common enough (about 4% of 00/11
    # periods) that the pooled rate, and so eps_10pct_s, is steady from one run.
    fraction = 0.2
    periods = n_periods
    samples = n_periods * 2 * samples_per_period(gamma)

    def config_text(self, master_seed):
        f = self.fraction
        return (
            f"gamma = {self.gamma}\nn_periods = {self.n_periods}\nmaster_seed = {master_seed}\n"
            f"beta = {f}\ndelta = {f}\nlambda = {f}\nrho = {f}\nmode = combined\n"
        )

    def commands(self, cfg, out, workers):
        path = out / "session.json"
        argv = ["session", "--config", str(cfg), "--workers", str(workers), "--out", str(path)]
        return [("session", argv, path)]

    def check(self, outputs):
        report = json.loads(outputs["session"])
        counts = report["combined_counts"]
        problems = []
        total = sum(sum(row.values()) for row in counts.values())
        if total != self.n_periods or report["n_periods"] != self.n_periods:
            problems.append(f"session: combined counts sum to {total}, expected {self.n_periods}")
        kept = sum(row["keep_secure"] for row in counts.values())
        dangerous = counts["00"]["keep_secure"] + counts["11"]["keep_secure"]
        if report["key_bits"] != kept:
            problems.append(f"session: key_bits {report['key_bits']} != kept periods {kept}")
        mismatches = _popcount_xor(report["alice_key_hex"], report["bob_key_hex"])
        if mismatches != dangerous:
            problems.append(f"session: {mismatches} key mismatches != {dangerous} dangerous keeps")
        n_cond = report["rates"]["eps_hat_combined_00"]["n"] + report["rates"]["eps_hat_combined_11"]["n"]
        return problems, {"k": dangerous, "n_cond": n_cond}

    def eps_10pct_s(self, stats, cmd_s):
        # rate: dangerous keeps per actual 00/11 period, pooled over the run's passes
        k = sum(s["k"] for s in stats)
        n_cond = sum(s["n_cond"] for s in stats)
        needed = periods_for_relative_half_width(k / n_cond)
        per_cond_period = statistics.median([sum(c.values()) for c in cmd_s]) / (n_cond / len(stats))
        return per_cond_period * needed


class SweepG1000W2(Workload):
    name = "sweep_g1000_w2"
    workers = 2
    reference = "small_x2"
    # periods per gamma: gamma-100 periods are cheap, and more of them make the pooled
    # rate behind eps_10pct_s and the factor-3 gate steadier
    n_periods = {100.0: 6000, 1000.0: 2000}
    # passes pooled by the factor-3 gate: 66000 periods at gamma 100 at least
    min_passes = 11
    alpha = 100.0
    # lambda 0.3 puts about 2.5% of gamma-100 periods in error (lambda 0.5: 0.09%),
    # enough for a well-powered factor-3 gate on the pooled rate and a steady eps_10pct_s.
    lam = 0.3
    gammas = tuple(n_periods)
    periods = sum(n_periods.values())
    samples = sum(n * 2 * samples_per_period(g) for g, n in n_periods.items())

    def config_text(self, master_seed):
        return f"alpha = {self.alpha}\nlambda = {self.lam}\nmaster_seed = {master_seed}\n"

    def commands(self, cfg, out, workers):
        # One CLI call per gamma, each with its own period count, so that eps_10pct_s
        # can use the gamma-100 call's time alone. Like one call with both gammas,
        # each call builds one pool.
        calls = []
        for gamma in self.gammas:
            path = out / f"sweep_{gamma:g}.csv"
            gamma_cfg = cfg.with_name(f"{cfg.stem}_g{gamma:g}.cfg")
            gamma_cfg.write_text(cfg.read_text() + f"n_periods = {self.n_periods[gamma]}\n")
            argv = [
                "sweep", "--config", str(gamma_cfg), "--gammas", f"{gamma:g}", "--mode", "current",
                "--force-state", "11", "--workers", str(workers), "--out", str(path),
            ]
            calls.append((f"sweep_{gamma:g}", argv, path))
        return calls

    def check(self, outputs):
        rows = {}
        for line in (row for g in self.gammas for row in outputs[f"sweep_{g:g}"].splitlines()[2:]):
            gamma, eps_a, eps_mc, lo, hi, k, n = line.split(",")
            rows[float(gamma)] = (float(eps_a), float(eps_mc), float(lo), float(hi), int(k), int(n))
        problems = []
        if sorted(rows) != sorted(self.gammas):
            return [f"sweep: rows for gammas {sorted(rows)}, expected {list(self.gammas)}"], {}
        if any(row[5] != self.n_periods[g] for g, row in rows.items()):
            problems.append("sweep: n_trials differs from n_periods")
        eps_a, _, _, _, k, n = rows[100.0]
        _, _, _, hi_1000, k_1000, _ = rows[1000.0]
        if k_1000 != 0 or not hi_1000 < 1.0 / SQRT3:
            problems.append(f"sweep: gamma 1000 has k={k_1000}, ci_high={hi_1000}")
        return problems, {"k": k, "n": n, "eps_analytic": eps_a}

    def run_gate(self, stats):
        # The factor-3 gate of the acceptance criteria, on the rate pooled over the
        # passes: one pass alone has too few errors for a reliable factor-3 test.
        k = sum(s["k"] for s in stats)
        n = sum(s["n"] for s in stats)
        eps_a = stats[0]["eps_analytic"]
        if not eps_a / 3 <= k / n <= eps_a * 3:
            return [f"sweep: pooled eps_hat {k}/{n} not within a factor 3 of {eps_a:.6g}"]
        return []

    def eps_10pct_s(self, stats, cmd_s):
        k = sum(s["k"] for s in stats)
        n = sum(s["n"] for s in stats)
        needed = periods_for_relative_half_width(k / n)
        return statistics.median([c["sweep_100"] for c in cmd_s]) / self.n_periods[100.0] * needed


class Spectra4M(Workload):
    name = "spectra_4m"
    spectra_samples = 4194304
    bins = 256
    levels_samples = 1048576
    reference = "large"
    periods = 4  # channel solutions: 1 for spectra, 3 for levels
    samples = 2 * spectra_samples + 3 * 2 * levels_samples
    array_bytes = spectra_samples * 8

    def config_text(self, master_seed):
        return f"master_seed = {master_seed}\n"

    def commands(self, cfg, out, workers):
        spectra, levels = out / "spectra.csv", out / "levels.txt"
        return [
            ("spectra", ["spectra", "--config", str(cfg), "--samples", str(self.spectra_samples),
                         "--bins", str(self.bins), "--out", str(spectra)], spectra),
            ("levels", ["levels", "--config", str(cfg), "--samples", str(self.levels_samples),
                        "--out", str(levels)], levels),
        ]

    def check(self, outputs):
        problems = []
        deviations = []
        for line in outputs["spectra"].splitlines()[2:]:
            f, emp, theory = (float(x) for x in line.split(","))
            if 0.0 < f <= 1.5:  # in-band bins up to 1.5 B (b_kljn = 1)
                deviations.append(emp / theory - 1.0)
        if len(deviations) != int(1.5 * self.bins / 2):
            problems.append(f"spectra: {len(deviations)} in-band bins")
        worst = max(abs(d) for d in deviations)
        if not worst < 0.10:
            problems.append(f"spectra: in-band bin off the triangular law by {worst:.3%}")
        for line in outputs["levels"].splitlines()[4:]:
            cols = line.split()
            for rel in (float(cols[3]), float(cols[6])):
                if not abs(rel) <= 0.01:
                    problems.append(f"levels: state {cols[0]} relative error {rel:+.3e}")
        if len(outputs["levels"].splitlines()) != 7:
            problems.append("levels: expected 3 state rows")
        return problems, {"sq_dev": sum(d * d for d in deviations), "bins": len(deviations)}

    def eps_10pct_s(self, stats, cmd_s):
        # Segments a spectrum needs for its in-band bins to reach 10% at 95%, from the
        # bins' measured scatter pooled over the passes; seconds scale with segments.
        rel_sd = math.sqrt(sum(s["sq_dev"] for s in stats) / sum(s["bins"] for s in stats))
        scale = (Z95 * rel_sd / 0.10) ** 2
        return statistics.median([c["spectra"] for c in cmd_s]) * scale


WORKLOADS = {w.name: w for w in (SessionG30(), SweepG1000W2(), Spectra4M())}
