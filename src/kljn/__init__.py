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
    make_bands,
)
from .estimator import (
    AveragingWindow,
    averaged_fluctuation_rms,
    squared_noise_psd_theory,
)
from .noise import NoiseSpec, periodogram, rng_for_period
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
