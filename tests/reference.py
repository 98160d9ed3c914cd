"""The waveform reference: a loop's channel waves synthesized sample by sample and solved by Kirchhoff's law."""

from kljn.circuit import LoopState, channel_waveforms, generator_psd
from kljn.noise import NoiseSpec, synth_band_limited


def reference_waves(config, bits, n, rng):
    """Channel ``(u_c, i_c)`` of ``n`` samples in the loop state ``bits`` = (Alice's bit, Bob's).

    Alice's generator wave, then Bob's, is drawn from ``rng`` by
    ``synth_band_limited``, and ``channel_waveforms`` solves the loop. Each
    generator's spec is built here from ``generator_psd``, ``config.b_kljn``
    and ``config.sample_rate``, not read from ``config.noise_spec``, so a
    fault in the program's spec does not move the reference with it.
    """
    loop = LoopState.from_bits(*bits, config.resistors)
    u_a, u_b = (
        synth_band_limited(NoiseSpec(generator_psd(r, config.constants), config.b_kljn, config.sample_rate, n), rng)
        for r in (loop.r_alice, loop.r_bob)
    )
    return channel_waveforms(u_a, u_b, loop.r_alice, loop.r_bob)
