"""Batch command-line front end.

Subcommands:
    levels   theoretical vs calibrated mean-square channel levels
    sweep    error-rate sweep over gamma: analytic column vs Monte Carlo
    session  full key-exchange session report (JSON) plus extracted keys
    spectra  empirical vs theoretical spectrum of the squared channel current

Exit codes: 0 success, 2 configuration/usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import closing

import numpy as np

from . import analytic
from .circuit import LoopState, channel_current, channel_waveforms
from .config import ConfigError, SystemConfig, load_config, with_overrides
from .estimator import finite_mean_square, squared_noise_psd_theory
from .noise import periodogram, rng_for_period, synth_band_limited_many
from .protocol import extract_key, key_to_hex, run_session

_MODE_SHORT = {"voltage_only": "voltage", "current_only": "current", "combined": "combined"}
_RATE_PREFIX = {"voltage": "v", "current": "i", "combined": "combined"}
_NON_FINITE = "non-finite output values: the noise levels overflow float64"


def _fmt(x, spec: str = ".12g") -> str:
    """``x`` as printed; a non-finite float is a runtime error, so no overflowed number is printed."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(_NON_FINITE)
        return format(x, spec)
    return str(x)


def _load(args) -> SystemConfig:
    config = load_config(args.config) if args.config else SystemConfig()
    return with_overrides(config, master_seed=args.seed)


def _check_workers(workers: int) -> None:
    """Refuse, before any period runs, a worker count the kernel cannot run."""
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")


def cmd_levels(args) -> str:
    config = _load(args)
    config.check_samples(args.samples, f"levels --samples {args.samples}")
    consts = config.constants
    levels = config.levels()
    n_cal = args.samples
    rng = rng_for_period(config.master_seed, 0)
    lines = [
        f"# config_hash={config.config_hash()}",
        f"k = {_fmt(consts.k)} J/K   T_eff = {_fmt(consts.t_eff)} K   4kT_eff = {_fmt(consts.four_kt)}",
        f"note: 11 current level under the (1+alpha)R loop-resistance convention "
        f"would be {_fmt(levels.i_11_alt_convention)} (we use R_loop = R_A + R_B)",
        "state  theory_v       empirical_v    rel_err_v  theory_i       empirical_i    rel_err_i",
    ]
    states = ("00", "0110", "11")
    loops = [LoopState.from_bits(*bits, config.resistors) for bits in ((0, 0), (0, 1), (1, 1))]
    # (Alice, Bob) per state, drawn in that order from the one stream
    specs = [config.noise_spec(r, n_cal) for loop in loops for r in (loop.r_alice, loop.r_bob)]
    # each state is solved while the helper transforms the next state's waves; closing
    # the iterator ends the helper if a solve raises
    with closing(synth_band_limited_many(specs, rng)) as waves:
        for state, loop in zip(states, loops):
            # Alice's wave, then Bob's: no name keeps them, nor u_c and i_c, so a state's
            # arrays are freed before the next state's waves arrive
            emp_v, emp_i = map(
                finite_mean_square, channel_waveforms(next(waves), next(waves), loop.r_alice, loop.r_bob)
            )
            th_v = levels.voltage_for(state)
            th_i = levels.current_for(state)
            rel_v, rel_i = emp_v / th_v - 1, emp_i / th_i - 1
            lines.append(
                f"{state:<6} {_fmt(th_v):<14} {_fmt(emp_v):<14} {_fmt(rel_v, '+.2e'):<10} "
                f"{_fmt(th_i):<14} {_fmt(emp_i):<14} {_fmt(rel_i, '+.2e'):<10}"
            )
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> str:
    config = _load(args)
    _check_workers(args.workers)
    mode = args.mode or _MODE_SHORT[config.mode]
    gammas = _parse_gammas(args.gammas)
    configs = [with_overrides(config, gamma=gamma) for gamma in gammas]
    lines = [
        f"# config_hash={config.config_hash()} mode={mode} force_state={args.force_state}",
        "gamma,eps_analytic,eps_mc,ci_low,ci_high,n_errors,n_trials",
    ]
    for gamma, cfg in zip(gammas, configs):
        eps_th = analytic.epsilon_analytic(mode, args.force_state, cfg.fractions, gamma)
        report = run_session(cfg, force_state=args.force_state, workers=args.workers)
        est = report.rates[f"eps_hat_{_RATE_PREFIX[mode]}_{args.force_state}"]
        lines.append(",".join(_fmt(x) for x in (gamma, eps_th, est.p, est.ci_low, est.ci_high, est.k, est.n)))
    return "\n".join(lines) + "\n"


def cmd_session(args) -> str:
    config = _load(args)
    _check_workers(args.workers)
    report = run_session(config, force_state=args.force_state, workers=args.workers)
    # msv and msi are positive, so the sums of a state that occurred fall below the smallest
    # normal float only where their squares or products underflowed: refused as _fmt refuses inf
    if any(sums[0] and min(sums[1:]) < sys.float_info.min for sums in report.moment_sums.values()):
        raise ValueError("moment sums below the smallest normal float64: the noise levels underflow")
    alice, bob = extract_key(report.bits, report.outcome_code)
    payload = report.to_dict()
    payload["key_bits"] = len(alice)
    payload["alice_key_hex"] = key_to_hex(alice)
    payload["bob_key_hex"] = key_to_hex(bob)
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # JSON has no inf or nan: refused as _fmt refuses them
        raise ValueError(_NON_FINITE) from exc


def cmd_spectra(args) -> str:
    config = _load(args)
    if args.bins < 2:
        raise ConfigError(f"spectra requires --bins >= 2, got {args.bins}")
    if args.samples < 2 * args.bins:
        raise ConfigError(f"spectra requires --samples >= 2 * --bins = {2 * args.bins}, got {args.samples}")
    config.check_samples(args.samples, f"spectra --samples {args.samples}")
    loop = LoopState.from_bits(1, 1, config.resistors)
    spec = config.noise_spec(loop.r_alice, args.samples)
    rng = rng_for_period(config.master_seed, 0)
    i_c = channel_current(*synth_band_limited_many([spec, spec], rng), loop.r_alice, loop.r_bob)
    squared = np.square(i_c, out=i_c)
    squared -= squared.mean()  # theory describes only the AC part
    freqs, emp = periodogram(squared, config.sample_rate, args.bins)
    s_level = config.constants.four_kt / loop.r_loop
    theory = squared_noise_psd_theory(freqs, s_level, config.b_kljn)
    lines = [f"# config_hash={config.config_hash()} state=11 samples={args.samples}", "f,empirical_psd,theory_psd"]
    for row in zip(freqs.tolist(), emp.tolist(), theory.tolist()):
        lines.append(",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


def _parse_gammas(text: str) -> list[float]:
    if not text or not text.strip():
        raise ConfigError("--gammas must be a non-empty comma-separated list")
    try:
        gammas = [float(g) for g in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --gammas list: {exc}") from exc
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise ConfigError("--gammas must be strictly ascending")
    return gammas


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kljn`` argument parser, built on the first call and shared by every later one.

    Each ``parse_args`` call fills a new namespace, so no parsed value carries over
    between ``main`` calls. ``set_defaults(func=cmd_*)`` binds the command functions
    when the parser is first built: replacing a ``cmd_*`` afterwards does not reach
    ``main``, while the names those functions look up (``run_session``, ...) still do.
    """
    parser = argparse.ArgumentParser(prog="kljn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("levels", help="theoretical vs calibrated mean-square levels")
    common(p)
    p.add_argument("--samples", type=int, default=2**20, help="calibration samples per state")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("sweep", help="error-rate sweep over gamma")
    common(p)
    p.add_argument("--gammas", required=True, help="comma-separated ascending gamma values")
    p.add_argument("--mode", choices=("voltage", "current", "combined"), default=None)
    p.add_argument("--force-state", choices=("00", "11"), default="11")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("session", help="full session report and extracted keys")
    common(p)
    p.add_argument("--force-state", choices=("00", "11", "0110"), default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("spectra", help="squared-current spectrum vs theory (11 state)")
    common(p)
    p.add_argument("--samples", type=int, default=2**22)
    p.add_argument("--bins", type=int, default=512)
    p.set_defaults(func=cmd_spectra)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a command returns its whole text, so nothing is written when it fails
        text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
