"""Ideal single-loop resistor-pair channel model.

Two parties each connect one of two resistor values {R, alpha*R} to a shared
wire. Their thermal-noise generators drive a channel voltage u_c(t) against
ground and a loop current i_c(t); both follow from Kirchhoff's loop law with
zero wire impedance.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

BOLTZMANN = 1.380649e-23  # J/K, CODATA exact


class DegenerateLevelsWarning(UserWarning):
    """Resistor ratio too small for well-separated mean-square levels."""


@dataclass(frozen=True)
class PhysicsConstants:
    """Boltzmann constant and effective noise temperature.

    Realistic effective temperatures are enormous, so a normalized mode is
    provided that sets 4*k*t_eff = 1 V^2/(Hz*Ohm); all formulas are unchanged.
    """

    k: float
    t_eff: float

    def __post_init__(self):
        if self.k <= 0 or self.t_eff <= 0:
            raise ValueError("k and t_eff must be positive")

    @classmethod
    def si(cls, t_eff: float) -> "PhysicsConstants":
        return cls(k=BOLTZMANN, t_eff=t_eff)

    @classmethod
    def normalized(cls) -> "PhysicsConstants":
        """Units with 4*k*t_eff = 1 V^2/(Hz*Ohm)."""
        return cls(k=0.25, t_eff=1.0)

    @property
    def four_kt(self) -> float:
        return 4.0 * self.k * self.t_eff


@dataclass(frozen=True)
class ResistorSet:
    """The public resistor pair: R0 = r_low encodes bit 0, R1 = alpha*r_low bit 1."""

    r_low: float
    alpha: float

    def __post_init__(self):
        if self.r_low <= 0:
            raise ValueError(f"r_low must be > 0, got {self.r_low}")
        if self.alpha <= 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if self.alpha < 10:
            warnings.warn(
                f"alpha = {self.alpha} < 10: mean-square levels are poorly "
                "separated; the error analysis assumes alpha >> 1",
                DegenerateLevelsWarning,
                stacklevel=3,  # past the dataclass's generated __init__, to its caller
            )

    @property
    def r0(self) -> float:
        return self.r_low

    @property
    def r1(self) -> float:
        return self.alpha * self.r_low

    def for_bit(self, bit: int) -> float:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return self.r1 if bit else self.r0


@dataclass(frozen=True)
class LoopState:
    """Resistor choices of both parties for one bit-exchange period."""

    r_alice: float
    r_bob: float

    def __post_init__(self):
        if self.r_alice <= 0 or self.r_bob <= 0:
            raise ValueError("resistances must be positive")

    @classmethod
    def from_bits(cls, bit_alice: int, bit_bob: int, resistors: ResistorSet) -> "LoopState":
        return cls(r_alice=resistors.for_bit(bit_alice), r_bob=resistors.for_bit(bit_bob))

    @property
    def r_parallel(self) -> float:
        return self.r_alice * self.r_bob / (self.r_alice + self.r_bob)

    @property
    def r_loop(self) -> float:
        return self.r_alice + self.r_bob


def generator_psd(r: float, consts: PhysicsConstants) -> float:
    """One-sided Johnson-noise voltage PSD of a resistor: 4*k*T_eff*r."""
    if r <= 0:
        raise ValueError(f"resistance must be > 0, got {r}")
    return consts.four_kt * r


def channel_current(u_a: np.ndarray, u_b: np.ndarray, r_alice, r_bob) -> np.ndarray:
    """Loop current i_c = (u_a - u_b) / (R_A + R_B), element-wise.

    The resistances are scalars or arrays that broadcast against the samples
    without adding dimensions. Returns a new array of the samples' shape.
    """
    if u_a.shape != u_b.shape:
        raise ValueError(f"shape mismatch: {u_a.shape} vs {u_b.shape}")
    i_c = np.subtract(u_a, u_b)
    i_c /= r_alice + r_bob
    return i_c


def channel_waveforms(
    u_a: np.ndarray, u_b: np.ndarray, r_alice, r_bob
) -> tuple[np.ndarray, np.ndarray]:
    """Channel voltage and current from the two generator voltages.

    Single-loop Kirchhoff solution, element-wise:
        i_c = (u_a - u_b) / (R_A + R_B)     (``channel_current``)
        u_c = (u_a * R_B + u_b * R_A) / (R_A + R_B)
    The resistances are scalars or arrays that broadcast against the samples
    without adding dimensions (one per row of a block of periods, for
    example). Returns (u_c, i_c), each of the samples' shape.
    """
    i_c = channel_current(u_a, u_b, r_alice, r_bob)
    u_c = u_a * r_bob
    u_c += u_b * r_alice
    u_c /= r_alice + r_bob
    return u_c, i_c


@dataclass(frozen=True)
class LevelTable:
    """Exact (infinite-time) mean-square channel levels for the three bit states.

    Voltage levels order v_00 < v_0110 < v_11; current levels order
    i_11 < i_0110 < i_00.
    """

    v_00: float
    v_0110: float
    v_11: float
    i_00: float
    i_0110: float
    i_11: float
    # the literature also quotes the 11 current level with a (1+alpha)*R loop
    # resistance instead of 2*alpha*R; kept as a diagnostic only
    i_11_alt_convention: float

    def voltage_for(self, actual: str) -> float:
        return {"00": self.v_00, "0110": self.v_0110, "11": self.v_11}[actual]

    def current_for(self, actual: str) -> float:
        return {"00": self.i_00, "0110": self.i_0110, "11": self.i_11}[actual]


def theoretical_levels(
    resistors: ResistorSet, consts: PhysicsConstants, bandwidth: float
) -> LevelTable:
    """Six exact mean-square levels: <u_c^2> = 4kT R_par B, <i_c^2> = 4kT B / R_loop."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    four_kt_b = consts.four_kt * bandwidth

    def pair(bit_a, bit_b):
        st = LoopState.from_bits(bit_a, bit_b, resistors)
        return four_kt_b * st.r_parallel, four_kt_b / st.r_loop

    v00, i00 = pair(0, 0)
    v01, i01 = pair(0, 1)
    v11, i11 = pair(1, 1)
    # a level of inf or nan overflowed; one of 0 or a subnormal underflowed (R_A * R_B of tiny
    # resistors, a tiny t_eff), and subnormals have too few bits to keep the levels ordered
    if not all(sys.float_info.min <= x < math.inf for x in (v00, i00, v01, i01, v11, i11)):
        raise ValueError(
            f"mean-square levels not finite and positive normal floats (voltage {v00:g}, {v01:g}, {v11:g}; "
            f"current {i00:g}, {i01:g}, {i11:g}): the resistances or noise levels overflow or underflow float64"
        )
    return LevelTable(
        v_00=v00,
        v_0110=v01,
        v_11=v11,
        i_00=i00,
        i_0110=i01,
        i_11=i11,
        i_11_alt_convention=four_kt_b / ((1.0 + resistors.alpha) * resistors.r_low),
    )
