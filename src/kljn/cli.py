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
import io
import json
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


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_finite(values) -> None:
    """Refuse to print overflowed numbers: a non-finite output value is a runtime error."""
    if not np.isfinite(values).all():
        raise ValueError("non-finite output values: the noise levels overflow float64")


def _load(args) -> SystemConfig:
    config = load_config(args.config) if args.config else SystemConfig()
    return with_overrides(config, master_seed=args.seed)


def _check_workers(workers: int) -> None:
    """Refuse, before any period runs, a worker count the kernel cannot run."""
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")


def cmd_levels(args) -> int:
    config = _load(args)
    config.check_samples(args.samples, f"levels --samples {args.samples}")
    consts = config.constants
    levels = config.levels()
    n_cal = args.samples
    rng = rng_for_period(config.master_seed, 0)
    lines = []
    lines.append(f"# config_hash={config.config_hash()}")
    lines.append(f"k = {_fmt(consts.k)} J/K   T_eff = {_fmt(consts.t_eff)} K   4kT_eff = {_fmt(consts.four_kt)}")
    lines.append(
        f"note: 11 current level under the (1+alpha)R loop-resistance convention "
        f"would be {_fmt(levels.i_11_alt_convention)} (we use R_loop = R_A + R_B)"
    )
    lines.append("state  theory_v       empirical_v    rel_err_v  theory_i       empirical_i    rel_err_i")
    printed = [consts.k, consts.t_eff, consts.four_kt, levels.i_11_alt_convention]
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
            printed += [th_v, emp_v, rel_v, th_i, emp_i, rel_i]
            lines.append(
                f"{state:<6} {_fmt(th_v):<14} {_fmt(emp_v):<14} {rel_v:<+10.2e} "
                f"{_fmt(th_i):<14} {_fmt(emp_i):<14} {rel_i:<+10.2e}"
            )
    _check_finite(printed)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    _check_workers(args.workers)
    mode = args.mode or _MODE_SHORT[config.mode]
    gammas = _parse_gammas(args.gammas)
    configs = [with_overrides(config, gamma=gamma) for gamma in gammas]
    buf = io.StringIO()
    buf.write(f"# config_hash={config.config_hash()} mode={mode} force_state={args.force_state}\n")
    buf.write("gamma,eps_analytic,eps_mc,ci_low,ci_high,n_errors,n_trials\n")
    for gamma, cfg in zip(gammas, configs):
        eps_th = analytic.epsilon_analytic(mode, args.force_state, cfg.fractions, gamma)
        report = run_session(cfg, force_state=args.force_state, workers=args.workers)
        est = report.rates[f"eps_hat_{_RATE_PREFIX[mode]}_{args.force_state}"]
        buf.write(
            ",".join(
                _fmt(x)
                for x in (gamma, eps_th, est.p, est.ci_low, est.ci_high, est.k, est.n)
            )
            + "\n"
        )
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_session(args) -> int:
    config = _load(args)
    _check_workers(args.workers)
    report = run_session(config, force_state=args.force_state, workers=args.workers)
    alice, bob = extract_key(report.bits, report.outcome_code)
    payload = report.to_dict()
    payload["key_bits"] = len(alice)
    payload["alice_key_hex"] = key_to_hex(alice)
    payload["bob_key_hex"] = key_to_hex(bob)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_spectra(args) -> int:
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
    _check_finite([freqs, emp, theory])
    buf = io.StringIO()
    buf.write(f"# config_hash={config.config_hash()} state=11 samples={args.samples}\n")
    buf.write("f,empirical_psd,theory_psd\n")
    for f, e, t in zip(freqs, emp, theory):
        buf.write(f"{_fmt(float(f))},{_fmt(float(e))},{_fmt(float(t))}\n")
    _emit(buf.getvalue(), args.out)
    return 0


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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
