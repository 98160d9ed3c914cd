"""Every seed-exact pin of tier-1, one row each: the golden tests check their own rows, the fault test all of them.

A row is a run, its inputs, and each value it pinned, by name, with that
value's kind. ``GOLDENS`` is keyed by the test that checks the row, then by
the row's case id; ``compute(row)`` runs it and reads every pinned value. The
kind says what moves the value:

- ``BITS``: what the bit draws or a forced state fix alone: a period's
  bits, drawn before its normals, and a forced 0110 session's rates, which
  count no period; neither a float-only change nor a change of the noise
  law moves them.
- ``COUNTS``: outcome codes, counts, rates, and printed text that a one-ulp
  change of every ``irfft`` result leaves as it is; a change of the noise law
  moves them.
- ``FLOAT``: float bytes (mean squares, and text that prints moment sums or
  the oversample-2 spectrum); a one-ulp change moves them too.

The values were recorded under numpy 2, whose ``numpy.fft`` is the C++
pocketfft; an older numpy may move exactly the ``FLOAT`` values.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from kljn import protocol
from kljn.cli import main
from kljn.config import SystemConfig
from kljn.decision import CombinedOutcome

BITS, COUNTS, FLOAT = "bits", "counts", "float"
KEEP, D00, D11, ALARM = (outcome.value for outcome in CombinedOutcome)


class Golden:
    """``run(*inputs)``, and each value read from its result, by name, as ``(kind, recorded value)``."""

    def __init__(self, run, *inputs, **pins):
        self.run, self.inputs, self.pins = run, inputs, pins

    @property
    def recorded(self):
        return {name: value for name, (_, value) in self.pins.items()}


def digest(data):
    """sha256 of a text's UTF-8 bytes, or of an array's bytes."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data.tobytes()).hexdigest()


def stdout(config_text, argv):
    """What ``argv`` prints with ``config_text`` as its config file; the command must succeed."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        path = Path(tmp) / "golden.cfg"
        path.write_text(config_text)
        assert main(argv + ["--config", str(path)]) == 0
    return out.getvalue()


# at alpha 100 and lambda 0.2 some 0110 periods read insecure, so a state's counts span outcomes
RUN_CONFIG = "n_periods = 2000\nalpha = 100\nlambda = 0.2\n"
SESSION_CONFIG = SystemConfig(gamma=30, alpha=100, lam=0.2, n_periods=2000, master_seed=41)


def session(force_state):
    """The fields of a session of ``SESSION_CONFIG``, its per-period arrays among them."""
    return vars(protocol.run_session(SESSION_CONFIG, force_state=force_state))


def chunk(overrides, force_state):
    """The arrays of a kernel chunk of every period; the chunk spans several blocks and ends in a partial one."""
    cfg = SystemConfig(alpha=100.0, lam=0.3, **overrides)
    block = protocol._block_periods(cfg.samples_per_period)
    assert cfg.n_periods > 2 * block and cfg.n_periods % block
    return protocol._simulate_chunk(cfg, 0, cfg.n_periods, force_state)


def counts_digest(out):
    """The digest of a session's JSON without its moment sums, re-serialized as ``session`` serializes it."""
    payload = json.loads(out)
    del payload["moment_sums"]
    return digest(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# how each pinned value is read from its run's result: a printed text, or a session's or chunk's fields
READS = {
    "sha256": digest,
    "counts_sha256": counts_digest,
    **{f"{name}_sha256": lambda got, name=name: digest(got[name]) for name in ("bits", "msv", "msi")},
    "outcome_sha256": lambda got: digest(got["outcome_code"]),
    "counts": lambda got: got["combined_counts"],
    **{name: lambda got, name=name: got[name] for name in ("confusion_v", "confusion_i", "fidelity", "discard_rate")},
    "rates": lambda got: {name[len("eps_hat_"):]: (r.k, r.n) for name, r in got["rates"].items()},
}


def compute(row):
    """Each value ``row`` pins, by name, as its run reads it now."""
    got = row.run(*row.inputs)
    return {name: READS[name](got) for name in row.pins}


def sweep(mode, *args):
    """A sweep's argv at seed 3 and γ = 20 and 30."""
    return ["sweep", "--seed", "3", "--gammas", "20,30", "--mode", mode, *args]


GOLDENS = {
    # recorded from the CLI whose syntheses drew and transformed one wave at a time (the five-chunk
    # periodogram's from the CLI that transformed every chunk on the calling thread); all five held when
    # both commands came to compute their readings from the normals
    "test_golden_output": {
        "spectra": Golden(stdout, "", ["spectra", "--samples", "65536", "--bins", "64"],
                          sha256=(COUNTS, "7cef3c03eb5faf73d83375e8413dbe33ce603e0ae5730cdcb0adb9f1406cccde")),
        "levels": Golden(stdout, "", ["levels", "--samples", "65536"],
                         sha256=(COUNTS, "aecac1f0d23cff2f186c874f535e1f9af67f65c779b082253bd21e81ccc791e8")),
        # oversample 2 fills the Nyquist bin
        "spectra-nyquist": Golden(
            stdout, "oversample = 2\n", ["spectra", "--samples", "65536", "--bins", "64"],
            sha256=(FLOAT, "3c0c91543696dbb77ede6521b92d9684ea34e337c157e128b02d236b4b295724")),
        "levels-nyquist": Golden(
            stdout, "oversample = 2\n", ["levels", "--samples", "65536"],
            sha256=(COUNTS, "757b1bd74f7287751692c8286e93812aa95824cc266e23be5ec8d8ad40461936")),
        # 2343 segments and 96 trailing samples: five periodogram chunks
        "spectra-periodogram-halves": Golden(
            stdout, "", ["spectra", "--samples", "300000", "--bins", "64"],
            sha256=(COUNTS, "53a137a85fefa3f4fdfb43cf90327d11f2a330fec5f066d3618707fd50464170")),
    },
    # the session digests were re-recorded when sessions came to solve the loop on the normals, which moved
    # the moment sums' last bits and nothing else: their counts digests were recorded before that change and
    # held through it, as did the sweep digests; the two Nyquist sweeps' digests were recorded from the
    # one-reading kernel that first solved the loop on the normals
    "test_golden_run_output": {
        "session": Golden(
            stdout, RUN_CONFIG, ["session", "--seed", "3"],
            sha256=(FLOAT, "a2a24f75349a924cc12c76070f34b182f8dd024db013962c3b8fb4d1f0316583"),
            counts_sha256=(COUNTS, "baafa6f39df9d37f0a45850ae4633017c7382993b77a3fbb4ffaf6369e2c5c69")),
        "session-0110": Golden(
            stdout, RUN_CONFIG, ["session", "--seed", "3", "--force-state", "0110"],
            sha256=(FLOAT, "543115fa20b3e4c3070193deb713f6a2bda85d613c0b509ff83f037631f2b530"),
            counts_sha256=(COUNTS, "87f5b182e6b8470034fe25465502c91001d2c9607503f2b68c72305821f39d8d")),
        # oversample 2 puts the Nyquist bin in band, which a 01/10 period's row fills from both parties
        "session-nyquist": Golden(
            stdout, RUN_CONFIG + "oversample = 2\n", ["session", "--seed", "3"],
            sha256=(FLOAT, "22800edbfbe56f0bd63a8039787bf2ffa83b0085d27b6498ef24a83b634c9907"),
            counts_sha256=(COUNTS, "59f235c0c0b2992e92edda3238d543bb6ed74cc505765169cbdf08dcb1fcf0e9")),
        "sweep-current-11": Golden(
            stdout, RUN_CONFIG, sweep("current"),
            sha256=(COUNTS, "6b4ba3d5157606395f04004faeb9fce2e094c62e4420f3d795c4b821710230f7")),
        "sweep-combined-00": Golden(
            stdout, RUN_CONFIG, sweep("combined", "--force-state", "00"),
            sha256=(COUNTS, "0d744bf7612bf1f84723ac95f036b06126ef016cbcc2b18d5dc0debe9be43d11")),
        "sweep-voltage-00": Golden(
            stdout, RUN_CONFIG, sweep("voltage", "--force-state", "00"),
            sha256=(COUNTS, "50fa59b2d6c8b6c2c7c93e27e4a19953588f36a07e43cd1790ba44d817f67b23")),
        "sweep-current-00": Golden(
            stdout, RUN_CONFIG, sweep("current", "--force-state", "00"),
            sha256=(COUNTS, "72b5bf684c1fa4e05490bd89f2f48cf790f0efdb86a49c684ccb889338391828")),
        # oversample 2 puts the Nyquist bin in band, which the stage fills on its own
        "sweep-current-11-nyquist": Golden(
            stdout, RUN_CONFIG + "oversample = 2\n", sweep("current"),
            sha256=(COUNTS, "96a58df5e1482dad92fd69e6f7613f0f9dd9abe5d927779441de9061c60d543c")),
        "sweep-voltage-00-nyquist": Golden(
            stdout, RUN_CONFIG + "oversample = 2\n", sweep("voltage", "--force-state", "00"),
            sha256=(COUNTS, "bd250f58483c243d2265a2fdfbae9ce3135b8beb97a9c8f405952bdf446ead49")),
    },
    # recorded before the kernel called the library's loop solve and mean square, and before it drew a
    # period's two bits as scalars
    "test_golden": {
        "random": Golden(
            session, None,
            bits_sha256=(BITS, "b599c2249ccdcabed9af1d046451cdcd9e9542bc70dae112c0913414ddf10fdb"),
            outcome_sha256=(COUNTS, "983ac9ddb4c1275c3ee5047e814199014a28c429c36ca06d495bb4891069d6ac"),
            counts=(COUNTS, {"00": {KEEP: 0, D00: 524, D11: 0, ALARM: 0},
                             "11": {KEEP: 0, D00: 0, D11: 515, ALARM: 0},
                             "0110": {KEEP: 786, D00: 141, D11: 27, ALARM: 7}})),
        "0110": Golden(
            session, "0110",
            bits_sha256=(BITS, "b2741801315a5239d22cfeb7b6bfa5f2a48c48f291ccc3891751f3d9174cc85f"),
            outcome_sha256=(COUNTS, "3d18bf79cb26c0b48b376cf22809c3080f7d62236548a6e36f595838b9fb9448"),
            counts=(COUNTS, {"00": {KEEP: 0, D00: 0, D11: 0, ALARM: 0},
                             "11": {KEEP: 0, D00: 0, D11: 0, ALARM: 0},
                             "0110": {KEEP: 1641, D00: 283, D11: 64, ALARM: 12}})),
    },
    "test_golden_accounting": {
        "random": Golden(
            session, None,
            confusion_v=(COUNTS, [[509, 0, 15], [0, 511, 4], [148, 0, 813]]),
            confusion_i=(COUNTS, [[517, 0, 7], [0, 422, 93], [0, 34, 927]]),
            rates=(COUNTS, {"v_00": (15, 524), "v_11": (4, 515), "i_00": (7, 524), "i_11": (93, 515),
                            "combined_00": (0, 524), "combined_11": (0, 515)}),
            fidelity=(COUNTS, 0.81789802289282), discard_rate=(COUNTS, 0.607)),
        "0110": Golden(
            session, "0110",
            confusion_v=(COUNTS, [[0, 0, 0], [0, 0, 0], [295, 0, 1705]]),
            confusion_i=(COUNTS, [[0, 0, 0], [0, 0, 0], [0, 76, 1924]]),
            rates=(BITS, {f"{r}_{s}": (0, 0) for r in ("v", "i", "combined") for s in ("00", "11")}),
            fidelity=(COUNTS, 0.8205), discard_rate=(COUNTS, 0.1795)),
    },
    # the bits were recorded with 4 MiB blocks, where these chunks also end in a partial block; the mean
    # squares were re-recorded when every reading came to be solved on the normals and transformed alone (the
    # forced chunks' digests are those the one-reading chunks had before)
    "test_golden_multi_block_chunks": {
        "gamma-100-11": Golden(
            chunk, dict(gamma=100.0, n_periods=500, master_seed=43), "11",
            bits_sha256=(BITS, "353c38352a855c80f4ecb0793a76493228541b5fab5ef7af26effac91e77ec46"),
            msv_sha256=(FLOAT, "491375f7cae641b3dbd2eab9d1efc6841f6343a96dfa56e926dff73fd0c6b377"),
            msi_sha256=(FLOAT, "bccbe99b61ca42861b33d5b4400ecd53f60f441265d6c902c2a1b19672f210ba")),
        "gamma-1000-11": Golden(
            chunk, dict(gamma=1000.0, n_periods=53, master_seed=47), "11",
            bits_sha256=(BITS, "4fb5820c88b9bbde14a63d9512f66a0ff12d9dcbc3cd27f4e82cb88dc25020a0"),
            msv_sha256=(FLOAT, "b41010020e5d8e026f63057046ffc2a59335c6a635377e777a1bb19b665132d7"),
            msi_sha256=(FLOAT, "6623cb18bdf1da464ec445edd5b5ae0d40fb66ed39cd4744ba222383825ac25d")),
        # sample_rate = 2 * b_kljn: the Nyquist bin is in band
        "nyquist-random": Golden(
            chunk, dict(gamma=37.3, oversample=2, n_periods=2500, master_seed=53), None,
            bits_sha256=(BITS, "0884e270a2cf16b3b724544df4a9c9473375b31dcbe30c7ffde0b2dbd4fa2e6b"),
            msv_sha256=(FLOAT, "396d3edca2e6a80075c7f341bacbefb962498e9bde33bdfd0554b33fd55b6180"),
            msi_sha256=(FLOAT, "ea856bf691ff5731a8f24bab26088a9e4208d7b66e9a2ab75a911e85e084c0d3")),
    },
}


def rows(test):
    """Parametrize ``row`` over ``test``'s rows of ``GOLDENS``, with their case ids."""
    return pytest.mark.parametrize("row", list(GOLDENS[test].values()), ids=list(GOLDENS[test]))
