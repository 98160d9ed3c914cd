"""System configuration: all physical and protocol parameters in one record.

Configs load from a flat ``key = value`` text file. Unknown keys are errors:
a silently ignored typo in a physics parameter is the main operator hazard.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from functools import cached_property

from .analytic import ThresholdFractions
from .circuit import PhysicsConstants, ResistorSet, LevelTable, generator_psd, theoretical_levels
from .decision import DecisionBands, make_bands
from .estimator import AveragingWindow
from .noise import NoiseSpec

MODES = ("voltage_only", "current_only", "combined")


class ConfigError(ValueError):
    """Invalid or malformed configuration."""


@dataclass(frozen=True)
class SystemConfig:
    r: float = 1.0  # Ohm, low resistor value R0
    alpha: float = 10.0  # R1 / R0
    t_eff: float | str = "normalized"  # Kelvin, or "normalized" for 4kT_eff = 1
    b_kljn: float = 1.0  # Hz, noise bandwidth
    gamma: float = 100.0  # bandwidth * averaging period
    oversample: int = 4  # f_s = oversample * b_kljn
    beta: float = 0.5
    delta: float = 0.5
    lam: float = 0.5
    rho: float = 0.5
    n_periods: int = 1000
    master_seed: int = 1
    mode: str = "combined"

    def __post_init__(self):
        for f in fields(self):
            # the hash reads each value's repr: 30 and 30.0, or 10 and numpy's 10, must be one config
            object.__setattr__(self, f.name, _checked(f.name, getattr(self, f.name), f.type))
        if self.oversample < 2:
            raise ConfigError(f"oversample must be >= 2, got {_shown(self.oversample)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_periods < 1:
            raise ConfigError(f"n_periods must be >= 1, got {_shown(self.n_periods)}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in 64 bits")
        # delegate the physics invariants so the error names the constraint; the
        # derived objects are built (and warn) once here, then cached on the instance
        try:
            self.constants
            self.resistors
            self.fractions
            self.window
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            samples = self.sample_rate * self.window.tau
        except OverflowError:  # an int oversample beyond float64
            samples = math.inf
        at = f"gamma = {self.gamma} at oversample = {_shown(self.oversample)}"
        if not math.isfinite(samples):
            raise ConfigError(
                f"b_kljn = {self.b_kljn} and {at}: the sample rate or the samples per period overflow float64"
            )
        n = self.samples_per_period
        self.check_samples(n, f"{at} gives {_shown(n)} samples per period")

    @property
    def normalized(self) -> bool:
        return isinstance(self.t_eff, str)

    @cached_property
    def constants(self) -> PhysicsConstants:
        return PhysicsConstants.normalized() if self.normalized else PhysicsConstants.si(self.t_eff)

    @cached_property
    def resistors(self) -> ResistorSet:
        return ResistorSet(r_low=self.r, alpha=self.alpha)

    @cached_property
    def fractions(self) -> ThresholdFractions:
        return ThresholdFractions(beta=self.beta, delta=self.delta, lam=self.lam, rho=self.rho)

    @cached_property
    def window(self) -> AveragingWindow:
        return AveragingWindow(gamma=self.gamma, bandwidth=self.b_kljn)

    @property
    def sample_rate(self) -> float:
        return self.oversample * self.b_kljn

    @property
    def samples_per_period(self) -> int:
        # even count so the trailing-half measurement window is exact
        n = int(round(self.sample_rate * self.window.tau))
        return n + (n % 2)

    def check_samples(self, n_samples: int, what: str) -> None:
        """Refuse ``n_samples`` of noise with no in-band FFT bin, with a ConfigError that names ``what``."""
        try:
            # unit PSD: only the bin layout is checked here, not the noise level
            NoiseSpec(psd_level=1.0, bandwidth=self.b_kljn, sample_rate=self.sample_rate, n_samples=n_samples)
        except ValueError as exc:
            raise ConfigError(f"{what}; {exc}") from exc

    def noise_spec(self, r: float, n_samples: int) -> NoiseSpec:
        """Johnson-noise generator of resistor ``r`` over ``n_samples`` samples."""
        return NoiseSpec(
            psd_level=generator_psd(r, self.constants),
            bandwidth=self.b_kljn,
            sample_rate=self.sample_rate,
            n_samples=n_samples,
        )

    def levels(self) -> LevelTable:
        return theoretical_levels(self.resistors, self.constants, self.b_kljn)

    def bands(self) -> DecisionBands:
        return make_bands(self.levels(), self.fractions)

    def resolved_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["tau"] = self.window.tau
        out["f_b"] = self.window.f_b
        out["sample_rate"] = self.sample_rate
        out["samples_per_period"] = self.samples_per_period
        return out

    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={v!r}" for k, v in sorted(self.resolved_dict().items()))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _shown(n: int) -> int | str:
    """``n`` as a refusal prints it: exact up to 2**53, beyond that in 6 significant digits.

    Beyond 2**53 the digits are rounding noise, and an echoed 400-digit input buries the message.
    """
    if abs(n) <= 2**53:
        return n
    try:
        return f"{n:.6g}"
    except OverflowError:  # beyond float64 too
        return format(Decimal(n).normalize(), ".6g")


def _clipped(text: str) -> str:
    """``text`` as a refusal echoes it: quoted in full up to 40 characters, else its start and length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _checked(name: str, value, kind: str):
    """``value`` of a field declared ``kind`` as an int, a finite float or its str, or a ConfigError.

    Bools, non-numbers and non-integral ints are refused. A ``str`` field
    takes any str; t_eff's ``float | str`` takes the word "normalized".
    """
    if kind == "str" or (kind == "float | str" and isinstance(value, str) and value == "normalized"):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind == "int" else numbers.Real):
        what = {"int": "an integer", "float": "a number"}.get(kind, "a number or 'normalized'")
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    value = int(value) if kind == "int" else float(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


# each key's declared type as its annotation reads: "int", "float", "str" or "float | str"
_FIELD_TYPES = {f.name: f.type for f in fields(SystemConfig)}
# accept the symbol name used in the formulas as an alias
_KEY_ALIASES = {"lambda": "lam"}


def parse_config(text: str, source: str = "<config>") -> SystemConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {_clipped(raw)}")
        key, _, val = line.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {_clipped(key)}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = val if kind == "str" else int(val) if kind == "int" else float(val)
        except ValueError as exc:
            if kind != "float | str":
                raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
            values[key] = val  # not a number: SystemConfig checks the text
    try:
        return SystemConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def with_overrides(config: SystemConfig, **kwargs) -> SystemConfig:
    """New config with the fields not ``None`` in ``kwargs`` replaced, revalidated.

    With no such field it is ``config`` itself: a frozen config needs no copy.
    """
    changes = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **changes) if changes else config
