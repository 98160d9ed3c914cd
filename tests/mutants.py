"""The faults that tier-1 injects, each marked by what it patches: the program, the waveform reference
(``noise.synth_band_limited``, ``tests/reference.py``) or the exact oracle. ``with inject(name, *args)`` patches
kljn at the name the program looks up (``protocol.measurement_slice``, not ``estimator.measurement_slice``), in
this process and in any forked from it; ``tests/kill_matrix.py`` runs each fault at the arguments in ``matrix``.
"""

from collections import namedtuple
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import kljn.exact
import reference
from kljn import noise, protocol
from kljn.config import SystemConfig

PROGRAM, REFERENCE, ORACLE = "program", "reference", "oracle"
Fault = namedtuple("Fault", "patches apply matrix", defaults=[((),)])


@contextmanager
def inject(name, *args):
    """Fault ``name`` at ``args``, applied to a ``pytest.MonkeyPatch`` for the ``with`` block and undone after it."""
    with pytest.MonkeyPatch.context() as patch:
        FAULTS[name].apply(patch, *args)
        yield


def _wrap(patch, owner, name, change):  # owner.name returning change(result, *args) of its result for args
    original = getattr(owner, name)
    patch.setattr(owner, name, lambda *args, **kwargs: change(original(*args, **kwargs), *args))


class _Overlay(SimpleNamespace):
    def __getattr__(self, name):  # what is not given here is the module ``base``'s
        return getattr(self.base, name)


def _irfft(patch, module, change):  # module's np.fft.irfft returning change(x) of each result x
    patch.setattr(module, "np", _Overlay(base=np, fft=_Overlay(base=np.fft)))
    _wrap(patch, module.np.fft, "irfft", lambda x, *_: change(x))


def _step(x):  # each wave's second half 2% louder
    x[..., x.shape[-1] // 2 :] *= 1.02
    return x


def _sign(tables, *_):  # the loop law with Bob's current sign wrong, in every state
    amp, rho, rho_nyquist = tables[2]["msi"]
    return *tables[:2], {**tables[2], "msi": (amp, -rho, -rho_nyquist)}


def _equal_bits(blocks, master_seed, start, stop, force_state, normals, bits):  # Bob takes Alice's bit
    for lo, k, a, _ in blocks:
        bits[lo : lo + k, 1] = a
        yield lo, k, a, a


def _level(ms, spectrum, z, bits, rule, name):  # one printed level, the 0110 voltage's, 2% high
    return ms * (1.02 if (bits, name) == ((0, 1), "msv") else 1)


def _period(patch, factor):  # every period factor times as many samples, at the same band
    n = SystemConfig.samples_per_period.fget
    patch.setattr(SystemConfig, "samples_per_period", property(lambda self: round(n(self) * factor)))


def _band(patch, width, psd=None):  # the band width times as wide at psd times the PSD, by default the same power
    psd = 1 / width if psd is None else psd
    _wrap(patch, SystemConfig, "noise_spec",
          lambda s, *_: replace(s, psd_level=s.psd_level * psd, bandwidth=s.bandwidth * width))


def _r1_spec(spec, config, r, n):  # R1's generator PSD 10% high, R0's exact: a PSD not ∝ R
    return replace(spec, psd_level=spec.psd_level * 1.1) if r == config.resistors.r1 else spec


def _r1_psd(psd, r, constants):  # the same in the reference, at the default config's R1
    return psd * (1.1 if r == SystemConfig().resistors.r1 else 1)


FAULTS = {
    "period": Fault(PROGRAM, _period, ((1.1,),)),
    "band": Fault(PROGRAM, _band, ((1.1,),)),
    # every generator's PSD k times as high, in the kernel and in the synthesis alike
    "psd": Fault(PROGRAM, lambda patch, k: _wrap(patch, noise, "_root", lambda s, *_: s * k**0.5), ((2,), (1.02,))),
    # the kernel's mean square over the whole period, not its trailing half: Q at twice the window
    "whole-window": Fault(PROGRAM, lambda patch: patch.setattr(protocol, "measurement_slice", lambda n: slice(0, n))),
    "sign": Fault(PROGRAM, lambda patch: _wrap(patch, protocol, "_reading_tables", _sign)),
    "equal-bits": Fault(PROGRAM, lambda patch: _wrap(patch, protocol, "draw_periods", _equal_bits)),
    "level": Fault(PROGRAM, lambda patch: _wrap(patch, protocol, "_whole_mean_square", _level)),
    "r1-psd": Fault(PROGRAM, lambda patch: _wrap(patch, SystemConfig, "noise_spec", _r1_spec)),
    # a float-only change: each of the program's transforms one ulp high
    "irfft-ulp": Fault(PROGRAM, lambda patch: _irfft(patch, protocol, lambda x: np.multiply(x, 1 + 2.0**-52, out=x))),
    # each wave clipped at ±2, twice the RMS of noise at unit PSD and band
    "reference-clip": Fault(REFERENCE, lambda patch: _irfft(patch, noise, lambda x: np.clip(x, -2.0, 2.0, out=x))),
    "reference-step": Fault(REFERENCE, lambda patch: _irfft(patch, noise, _step)),
    "reference-r1-psd": Fault(REFERENCE, lambda patch: _wrap(patch, reference, "generator_psd", _r1_psd)),
    # Q's eigenvalues over their trace, Σλ = 1, which drops the Nyquist bin's half bin at oversample 2
    "trace-scaled": Fault(ORACLE, lambda patch: _wrap(patch, kljn.exact, "window_eigenvalues",
                                                      lambda lam, *_: lam / lam.sum())),
}
