"""The runs the four commands refuse, one row each: the CLI tests check every row, and the reach map runs them.

``REFUSALS`` is keyed by test id: a group, or ``group[case]`` for each case
of a group, with the case ids that the CLI tests have always had.
"""

from dataclasses import dataclass
from typing import Optional, Union

from kljn import cli
from kljn.circuit import DegenerateLevelsWarning as DEGENERATE

MISSING, DIRECTORY = None, object()
# where a run is refused: while its command reads the config and arguments, before it calls ``protocol``;
# in ``protocol``, before any period is drawn; or after its periods are drawn
READ, RUN, DRAWN = "read", "run", "drawn"


@dataclass(frozen=True)
class Refusal:
    """A run of ``argv`` with ``--config`` a file made from ``config``: text, non-UTF-8 bytes, or unreadable.

    ``err`` is a part of stderr, or all of it where it ends in a newline, with ``{config}`` for the file's
    path. ``usage`` marks a run that argparse refuses; ``warns`` is the warning the run raises.
    """

    config: Union[str, bytes, None]
    argv: list
    code: int
    err: str
    usage: bool = False
    refused: str = READ
    warns: Optional[type] = None


def write_config(config, path) -> None:
    """Make ``path`` a row's config file: text or bytes, a directory, or nothing for ``MISSING``."""
    if config is DIRECTORY:
        path.mkdir()
    elif isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not MISSING:
        path.write_text(config)


def run(argv) -> int:
    """``cli.main(argv)``'s exit code, also where argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


COMMANDS = {"session": ["session"], "levels": ["levels", "--samples", "4096"], "sweep": ["sweep", "--gammas", "30"],
            "spectra": ["spectra", "--samples", "4096", "--bins", "64"]}
# configs whose level table float64 cannot hold, by case id, with the levels it reads: the voltage levels
# overflow; or R1 = alpha * R overflows, and the levels read nan; or R_A * R_B underflows, and the voltage
# levels read 0; or 4kT_eff is subnormal, and the current levels of 0110 and 11 both read 4.94e-324; or
# R_A * R_B and the 11 loop's R_A + R_B overflow, and a cold t_eff makes every current level 0; or every
# level fits, but the larger generator's PSD 4kT * R1 overflows
LEVEL_OVERFLOWS = {
    "hot": ("t_eff = 1e308\nr = 1e300\n",
            "voltage inf, inf, inf; current 2.7613e-15, 5.02054e-16, 2.7613e-16; 4kT*R1 inf"),
    "large-r1": ("r = 1e300\nalpha = 1e10\n", "voltage inf, nan, nan; current 5e-301, 0, 0; 4kT*R1 inf"),
    "tiny-r": ("r = 1e-200\n", "voltage 0, 0, 0; current 5e+199, 9.09091e+198, 5e+198; 4kT*R1 1e-199"),
    "tiny-t": ("t_eff = 1e-300\n", "voltage 2.96439e-323, 4.94066e-323, 2.71736e-322; "
               "current 2.96439e-323, 4.94066e-324, 4.94066e-324; 4kT*R1 5.43472e-322"),
    "huge-loop": ("r = 1e305\nalpha = 1000\nt_eff = 1e-10\n",
                  "voltage inf, inf, nan; current 0, 0, 0; 4kT*R1 5.5226e+275"),
    "huge-psd": ("t_eff = 1e300\nr = 1e30\nalpha = 1000\nb_kljn = 1e-10\n", "voltage 2.7613e+297, 5.51708e+297, "
                 "2.7613e+300; current 2.7613e+237, 5.51708e+234, 2.7613e+234; 4kT*R1 inf"),
}
# alpha barely above 1: the levels nearly coincide, and the 0.5 fractions overlap
TIGHT = "alpha = 1.05\nn_periods = 10\n"
EMPTY_BAND = "runtime error: empty secure band for voltage: low cut 0.75 >= high cut 0.2625\n"
UNDERFLOW = "runtime error: moment sums below the smallest normal float64: the noise levels underflow\n"

REFUSALS = {
    **{f"infinite-gamma[{c}]": Refusal("gamma = inf\n", COMMANDS[c], 2, "gamma must be finite, got inf")
       for c in ("levels", "session", "sweep")},
    "levels-too-few-samples": Refusal("", ["levels", "--samples", "1"], 2, "levels --samples 1; no FFT bin"),
    # 3 samples at the default oversample 4 put bin 1 at 4/3 of the band edge: every level would be 0
    "levels-no-in-band-bin": Refusal("", ["levels", "--samples", "3"], 2, "levels --samples 3; no FFT bin"),
    "levels-invalid-alpha": Refusal("alpha = 0.5\n", ["levels"], 2, "alpha must be > 1, got 0.5"),
    "sweep-empty-gammas": Refusal("", ["sweep", "--gammas", " "], 2, "--gammas must be a non-empty"),
    "sweep-infinite-gamma-in-list": Refusal(
        "", ["sweep", "--gammas", "30,inf"], 2, "config error: --gammas 30,inf: gamma must be finite, got inf\n"),
    "sweep-descending-gammas": Refusal("", ["sweep", "--gammas", "100,50"], 2, "--gammas must be strictly ascending"),
    **{f"empty-secure-band[{c}]": Refusal(TIGHT, COMMANDS[c], 3, EMPTY_BAND, refused=RUN, warns=DEGENERATE)
       for c in ("session", "sweep")},
    **{f"workers-below-one[{w}-command{i}]": Refusal(
        "", COMMANDS[c] + ["--workers", w], 2, f"config error: workers must be >= 1, got {w}\n", refused=RUN)
       for w in ("0", "-2") for i, c in enumerate(("session", "sweep"))},
    # a config no period can run, refused alike by session and sweep
    "unrunnable[session-zero-periods]": Refusal("n_periods = 0\n", ["session"], 2, "n_periods must be >= 1"),
    "unrunnable[sweep-zero-periods]": Refusal("n_periods = 0\n", COMMANDS["sweep"], 2, "n_periods must be >= 1"),
    # oversample 4 at gamma 0.1 rounds to 0 samples per period
    "unrunnable[session-short-period]": Refusal("gamma = 0.1\n", ["session"], 2, "0 samples per period"),
    "unrunnable[sweep-short-period]": Refusal("", ["sweep", "--gammas", "0.1,30"], 2, "0 samples per period"),
    "unrunnable[sweep-short-period-nyquist]": Refusal(
        "oversample = 2\n", ["sweep", "--gammas", "0.2,30"], 2, "0 samples per period"),
    # more samples per period than float64 tells FFT bins apart at: 4e300 used to hang the top-bin search,
    # 4e17 to fail allocating; counts beyond 2**53 print in 6 significant digits, not in 301
    "unrunnable[session-huge-period]": Refusal(
        "gamma = 1e300\n", ["session"], 2, "gives 4e+300 samples per period; more than 2**53 samples"),
    "unrunnable[session-2e53-period]": Refusal("gamma = 1e17\n", ["session"], 2, "more than 2**53 samples"),
    "unrunnable[sweep-2e53-period]": Refusal("", ["sweep", "--gammas", "30,1e17"], 2, "more than 2**53 samples"),
    # an infinite sample rate, an infinite period, and an oversample no float64 holds
    "unrunnable[session-infinite-rate]": Refusal(
        "b_kljn = 1e308\n", ["session"], 2, "samples per period overflow float64"),
    "unrunnable[session-infinite-tau]": Refusal(
        "gamma = 1e300\nb_kljn = 1e-300\n", ["session"], 2, "samples per period overflow float64"),
    "unrunnable[session-huge-oversample]": Refusal(
        f"oversample = 1{'0' * 400}\n", ["session"], 2, "at oversample = 1e+400: the sample rate or the samples"),
    # a malformed line, or an unknown key, is echoed by its first 40 characters and its line number
    "unrunnable[session-long-line]": Refusal(
        f"x{'0' * 400}\n", ["session"], 2, f":1: expected 'key = value', got 'x{'0' * 39}'... (401 characters)"),
    "unrunnable[session-long-key]": Refusal(
        f"gamma = 30\nx{'0' * 400} = 1\n", ["session"], 2, f":2: unknown key 'x{'0' * 39}'... (401 characters)"),
    # a config file that cannot be read is a config error that names it, not a runtime failure
    **{f"unreadable[{c}-{kind}]": Refusal(config, COMMANDS[c], 2, "cannot read config {config}: ")
       for c in COMMANDS for kind, config in (
           ("missing", MISSING), ("directory", DIRECTORY), ("not-utf8", b"\xff\xfegamma = 30\n"))},
    # levels and spectra run no period, yet refuse a config no period could run
    **{f"refused-by-every-command[{c}-{case}]": Refusal(text, COMMANDS[c], 2, err)
       for c in ("levels", "spectra") for case, text, err in (
           ("zero-periods", "n_periods = 0\n", "n_periods must be >= 1"),
           ("short-period", "gamma = 0.1\n", "0 samples per period"))},
    # gamma 0.5 at oversample 4 gives 2 samples per period, whose noise would be all zeros
    **{f"no-in-band-bin[{c}]": Refusal(text, argv, 2, "2 samples per period; no FFT bin")
       for c, text, argv in (("session", "gamma = 0.5\n", ["session"]),
                             ("sweep", "", ["sweep", "--gammas", "0.5,30"]))},
    "sweep-force-state-0110": Refusal(
        "", COMMANDS["sweep"] + ["--force-state", "0110"], 2, "argument --force-state: invalid choice", usage=True),
    "spectra-bad-size[one-bin]": Refusal("", ["spectra", "--bins", "1"], 2, "spectra requires --bins >= 2, got 1"),
    "spectra-bad-size[shorter-than-a-segment]": Refusal(
        "", ["spectra", "--samples", "127", "--bins", "64"], 2, "requires --samples >= 2 * --bins = 128, got 127"),
    # 6 samples at oversample 8 put bin 1 at 4/3 of the band edge: the spectrum would be zero
    "spectra-no-in-band-bin": Refusal(
        "oversample = 8\n", ["spectra", "--samples", "6", "--bins", "3"], 2, "spectra --samples 6; no FFT bin"),
    # finite levels and samples, but the report's sums of squared mean squares overflow
    "session-report-overflow": Refusal(
        "t_eff = 1e300\nr = 1e20\ngamma = 30\nn_periods = 50\n", ["session"], 3,
        "runtime error: non-finite output values: the noise levels overflow float64\n", refused=DRAWN),
    # refused by every command as levels that overflow or underflow, before any draw
    **{f"level-overflow[{c}-{case}]": Refusal(
        text, COMMANDS[c], 3, "runtime error: mean-square levels not finite and positive normal floats, or "
        f"generator PSD 4kT*R1 not finite ({levels}): the resistances or noise levels overflow or underflow float64\n",
        refused=READ if c == "levels" else RUN)
       for c in COMMANDS for case, (text, levels) in LEVEL_OVERFLOWS.items()},
    # moment sums whose squares fall below the smallest normal float64, also at the default gamma 100,
    # the run that printed second moments of 0.0
    "session-underflow[gamma-30]": Refusal(
        "t_eff = 1e-150\ngamma = 30\nn_periods = 50\n", ["session"], 3, UNDERFLOW, refused=DRAWN),
    "session-underflow[gamma-100]": Refusal(
        "t_eff = 1e-150\nn_periods = 200\n", ["session", "--seed", "3"], 3, UNDERFLOW, refused=DRAWN),
}
