"""Bit-error simulator and analytic toolkit for the KLJN secure key exchange."""

from .analytic import (
    ThresholdFractions,
    epsilon_combined,
    epsilon_current_00,
    epsilon_current_11,
    epsilon_voltage,
    rice_rate,
    upcrossing_rate_flat,
)
from .circuit import (
    BOLTZMANN,
    LevelTable,
    LoopState,
    PhysicsConstants,
    ResistorSet,
    channel_current,
    channel_voltage,
    channel_waveforms,
    generator_psd,
    theoretical_levels,
)
from .config import ConfigError, SystemConfig, load_config, parse_config
from .decision import (
    CombinedOutcome,
    DecisionBands,
    EmptySecureBandError,
    Interpretation,
    combine,
    interpret_current,
    interpret_voltage,
    make_bands,
)
from .estimator import (
    AveragingWindow,
    averaged_fluctuation_rms,
    finite_mean_square,
    measure_period,
    squared_noise_psd_theory,
)
from .noise import NoiseSpec, periodogram, rng_for_period, synth_band_limited
from .protocol import (
    RateEstimate,
    SessionReport,
    WorkerExited,
    error_rate,
    extract_key,
    run_session,
    wilson_interval,
)

__version__ = "0.1.0"
