"""Threshold-based bit interpretation and the combined error-removal rule.

Voltage and current mean squares are each read against a two-cut band: the
middle band is the secure 01/10 reading, the outer regions are the insecure
00 and 11 readings. The combined rule keeps a bit only when both readings
are secure, discards single-sided insecure readings, and raises an alarm
when the two readings name opposite insecure states. ``voltage_codes``,
``current_codes`` and ``interpret_arrays`` apply the same cuts and rule to
whole arrays of periods.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .analytic import ThresholdFractions
from .circuit import LevelTable


class Interpretation(enum.Enum):
    B00 = "00"
    B11 = "11"
    SECURE_0110 = "01/10"


class CombinedOutcome(enum.Enum):
    KEEP_SECURE = "keep_secure"
    DISCARD_INSECURE_00 = "discard_insecure_00"
    DISCARD_INSECURE_11 = "discard_insecure_11"
    ALARM_CONFLICT = "alarm_conflict"


class EmptySecureBandError(ValueError):
    """The low and high cuts overlap: no mean-square value reads as secure."""

    def __init__(self, kind: str, low_cut: float, high_cut: float):
        self.kind = kind
        self.low_cut = low_cut
        self.high_cut = high_cut
        super().__init__(
            f"empty secure band for {kind}: low cut {low_cut!r} >= high cut {high_cut!r}"
        )


@dataclass(frozen=True)
class DecisionBands:
    """Absolute mean-square cut values bounding the secure band."""

    v_low_cut: float
    v_high_cut: float
    i_low_cut: float
    i_high_cut: float

    def __post_init__(self):
        if not self.v_low_cut < self.v_high_cut:
            raise EmptySecureBandError("voltage", self.v_low_cut, self.v_high_cut)
        if not self.i_low_cut < self.i_high_cut:
            raise EmptySecureBandError("current", self.i_low_cut, self.i_high_cut)


def make_bands(levels: LevelTable, fracs: ThresholdFractions) -> DecisionBands:
    """Decision bands anchored to the exact theoretical levels.

    Each cut guards its insecure level by a fraction of that level:
    voltage low = v_00 * (1 + beta), voltage high = v_11 * (1 - delta),
    current low = i_11 * (1 + lam),  current high = i_00 * (1 - rho).
    Raises EmptySecureBandError when the cuts overlap (small alpha or large
    fractions).
    """
    return DecisionBands(
        v_low_cut=levels.v_00 * (1.0 + fracs.beta),
        v_high_cut=levels.v_11 * (1.0 - fracs.delta),
        i_low_cut=levels.i_11 * (1.0 + fracs.lam),
        i_high_cut=levels.i_00 * (1.0 - fracs.rho),
    )


def _read(name: str, x, low_cut: float, high_cut: float, below: int, above: int) -> np.ndarray:
    """Interpretation codes of mean squares ``x`` against one two-cut band.

    ``below`` under the low cut, ``above`` over the high cut, 2 (secure)
    between; values exactly on a cut read as secure. Raises ValueError when
    any value is negative or NaN: a NaN compares false with both cuts and
    would read as secure.
    """
    if not np.all(np.asarray(x) >= 0):
        raise ValueError(f"mean-square {name} must be >= 0 and not NaN, got minimum {np.min(x)}")
    return np.where(x < low_cut, below, np.where(x > high_cut, above, 2)).astype(np.int8)


def voltage_codes(msv, bands: DecisionBands) -> np.ndarray:
    """Voltage interpretation codes of mean squares ``msv``: 00 is the lowest level, 11 the highest."""
    return _read("voltage", msv, bands.v_low_cut, bands.v_high_cut, 0, 1)


def current_codes(msi, bands: DecisionBands) -> np.ndarray:
    """Current interpretation codes of mean squares ``msi``: 11 is the lowest level, 00 the highest."""
    return _read("current", msi, bands.i_low_cut, bands.i_high_cut, 1, 0)


def interpret_current(msi: float, bands: DecisionBands) -> Interpretation:
    """Read a mean-square current: 11 is the lowest level, 00 the highest."""
    return tuple(Interpretation)[current_codes(msi, bands)]


def interpret_voltage(msv: float, bands: DecisionBands) -> Interpretation:
    """Read a mean-square voltage: 00 is the lowest level, 11 the highest."""
    return tuple(Interpretation)[voltage_codes(msv, bands)]


_COMBINE_TABLE = {
    (Interpretation.SECURE_0110, Interpretation.SECURE_0110): CombinedOutcome.KEEP_SECURE,
    (Interpretation.B00, Interpretation.B00): CombinedOutcome.DISCARD_INSECURE_00,
    (Interpretation.B00, Interpretation.SECURE_0110): CombinedOutcome.DISCARD_INSECURE_00,
    (Interpretation.SECURE_0110, Interpretation.B00): CombinedOutcome.DISCARD_INSECURE_00,
    (Interpretation.B11, Interpretation.B11): CombinedOutcome.DISCARD_INSECURE_11,
    (Interpretation.B11, Interpretation.SECURE_0110): CombinedOutcome.DISCARD_INSECURE_11,
    (Interpretation.SECURE_0110, Interpretation.B11): CombinedOutcome.DISCARD_INSECURE_11,
    (Interpretation.B00, Interpretation.B11): CombinedOutcome.ALARM_CONFLICT,
    (Interpretation.B11, Interpretation.B00): CombinedOutcome.ALARM_CONFLICT,
}


def combine(v: Interpretation, i: Interpretation) -> CombinedOutcome:
    """Combined keep/discard/alarm verdict from the two interpretations.

    Keys are (voltage reading, current reading). A bit is kept only when both
    readings are secure; opposite-corner insecure readings trigger the alarm.
    """
    return _COMBINE_TABLE[(v, i)]


# outcome code indexed [v_code, i_code]
_OUTCOME_CODE = np.array(
    [[tuple(CombinedOutcome).index(combine(v, i)) for i in Interpretation] for v in Interpretation],
    dtype=np.int8,
)


def interpret_arrays(
    msv: np.ndarray, msi: np.ndarray, bands: DecisionBands
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of interpret_voltage, interpret_current and combine.

    Returns int8 arrays (v_code, i_code, outcome_code). Interpretation codes
    index ``tuple(Interpretation)`` (0 reads 00, 1 reads 11, 2 reads secure);
    outcome codes index ``tuple(CombinedOutcome)``. Raises ValueError when
    any mean square is negative or NaN, as the scalar readers do.
    """
    v_code = voltage_codes(msv, bands)
    i_code = current_codes(msi, bands)
    return v_code, i_code, _OUTCOME_CODE[v_code, i_code]
