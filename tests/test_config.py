import math
import pickle
import re

import pytest

from kljn.circuit import PhysicsConstants
from kljn.config import ConfigError, SystemConfig, parse_config, with_overrides
from kljn.noise import NoiseSpec

GOOD = """
# reference setup
r = 2.0
alpha = 20
t_eff = normalized
b_kljn = 1.5
gamma = 80
oversample = 4
beta = 0.5
delta = 0.4
lambda = 0.3   # alias for lam
rho = 0.2
n_periods = 500
master_seed = 77
mode = combined
"""


class TestParse:
    def test_roundtrip(self):
        cfg = parse_config(GOOD)
        assert cfg.r == 2.0
        assert cfg.alpha == 20
        assert cfg.lam == 0.3
        assert cfg.normalized
        assert cfg.sample_rate == pytest.approx(6.0)
        assert cfg.window.tau == pytest.approx(80 / 1.5)
        assert cfg.samples_per_period % 2 == 0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("gamme = 100\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("gamma = 100\ngamma = 200\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("gamma = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("gamma 100\n")

    def test_alpha_constraint_named(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 0.5\n")

    def test_si_temperature(self):
        cfg = parse_config("t_eff = 1e18\n")
        assert not cfg.normalized
        assert cfg.constants == PhysicsConstants.si(1e18)


class TestSystemConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        cfg.bands()  # non-degenerate by default

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            SystemConfig(mode="telepathy")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r", "alpha", "t_eff", "b_kljn", "gamma"])
    def test_non_finite_physics_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SystemConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            parse_config(f"{name} = {value}\n")

    def test_oversample_minimum(self):
        with pytest.raises(ConfigError):
            SystemConfig(oversample=1)

    def test_zero_periods_rejected(self):
        with pytest.raises(ConfigError, match="n_periods must be >= 1, got 0"):
            SystemConfig(n_periods=0)
        assert SystemConfig(n_periods=1).n_periods == 1

    @pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
    @pytest.mark.parametrize("gamma, oversample", [(0.1, 4), (0.125, 4), (0.2, 2)])
    def test_short_period_rejected(self, gamma, oversample):
        # oversample * gamma <= 0.5 rounds to no sample per period
        message = f"gamma = {gamma} at oversample = {oversample} gives 0 samples per period; no FFT bin"
        with pytest.raises(ConfigError, match=message):
            SystemConfig(gamma=gamma, oversample=oversample)

    @pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
    @pytest.mark.parametrize("gamma, oversample", [(0.25, 4), (0.5, 4), (0.625, 4), (0.25, 8)])
    def test_no_in_band_bin_rejected(self, gamma, oversample):
        # oversample * gamma <= 2.5 rounds to 2 samples per period, which put bin 1 at half
        # the sample rate: above the band edge from oversample 3 on, so the noise would be zero
        message = (
            f"gamma = {gamma} at oversample = {oversample} gives 2 samples per period; "
            f"no FFT bin of 2 samples at sample rate {oversample} lies in the band (0, 1]"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            SystemConfig(gamma=gamma, oversample=oversample)

    @pytest.mark.filterwarnings("ignore::kljn.estimator.SmallGammaWarning")
    def test_shortest_runnable_period(self):
        # the Nyquist bin alone at oversample 2; bin 1 at the band edge at oversample 4
        assert SystemConfig(gamma=0.5, oversample=2).samples_per_period == 2
        assert SystemConfig(gamma=0.75, oversample=4).samples_per_period == 4

    def test_hash_stable_and_sensitive(self):
        a, b = SystemConfig(), SystemConfig()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != SystemConfig(gamma=101.0).config_hash()

    def test_with_overrides_revalidates(self):
        cfg = SystemConfig()
        assert with_overrides(cfg, gamma=55.0).gamma == 55.0
        assert with_overrides(cfg, master_seed=None).master_seed == cfg.master_seed
        with pytest.raises(ConfigError):
            with_overrides(cfg, beta=2.0)

    def test_derived_objects_built_once(self):
        cfg = SystemConfig(gamma=50.0)
        for name in ("constants", "resistors", "fractions", "window"):
            assert getattr(cfg, name) is getattr(cfg, name), name
        clone = pickle.loads(pickle.dumps(cfg))  # as sent to pool workers
        assert clone == cfg and clone.window == cfg.window
        assert with_overrides(cfg, gamma=80.0).window.tau == pytest.approx(80.0)

    def test_noise_spec(self):
        cfg = SystemConfig(r=2.0, b_kljn=1.5, oversample=3)
        assert cfg.noise_spec(40.0, 64) == NoiseSpec(
            psd_level=40.0, bandwidth=1.5, sample_rate=4.5, n_samples=64
        )

    def test_resolved_dict_echoes_derived(self):
        d = SystemConfig(gamma=50.0).resolved_dict()
        assert d["tau"] == pytest.approx(50.0)
        assert d["f_b"] == pytest.approx(0.02)
        assert d["samples_per_period"] == 200

    FLOAT_FIELDS = ("r", "alpha", "t_eff", "b_kljn", "gamma", "beta", "delta", "lam", "rho")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma": 30},
            {"alpha": 100, "gamma": 1000},
            {"r": 2, "b_kljn": 3},
            {"t_eff": 300},
        ],
    )
    def test_int_and_float_values_hash_alike(self, overrides):
        floats = {k: float(v) for k, v in overrides.items()}
        api_int = SystemConfig(**overrides)
        api_float = SystemConfig(**floats)
        from_file = parse_config("".join(f"{k} = {v}\n" for k, v in overrides.items()))
        overridden = with_overrides(SystemConfig(), **overrides)
        expected = api_float.config_hash()
        for cfg in (api_int, from_file, overridden):
            assert cfg == api_float
            assert cfg.config_hash() == expected
            for name in self.FLOAT_FIELDS:
                assert not isinstance(getattr(cfg, name), int), name

    def test_numpy_scalars_hash_like_floats(self):
        import numpy as np

        cfg = SystemConfig(gamma=np.float64(30.0), alpha=np.int64(100))
        assert cfg.config_hash() == SystemConfig(gamma=30.0, alpha=100.0).config_hash()
        # int fields store numpy integers as Python ints
        numpy_ints = {"n_periods": np.int64(10), "oversample": np.int32(4), "master_seed": np.uint64(2**64 - 1)}
        plain = {name: int(value) for name, value in numpy_ints.items()}
        cfg = SystemConfig(**numpy_ints)
        assert cfg.config_hash() == SystemConfig(**plain).config_hash()
        assert cfg == with_overrides(SystemConfig(), **numpy_ints)
        for name in numpy_ints:
            assert type(getattr(cfg, name)) is int, name

    INT_FIELDS = ("oversample", "n_periods", "master_seed")

    @pytest.mark.parametrize("name", FLOAT_FIELDS + INT_FIELDS)
    def test_bools_rejected(self, name):
        """Bools in every numeric field, non-numbers anywhere and non-integers in the int fields."""
        bad = [True, False, "30", None, [30.0], 30j]
        if name in self.INT_FIELDS:
            bad += [10.0, 4.5, 3.7, float(2**64 - 1)]
        for value in bad:
            if name == "t_eff" and isinstance(value, str):
                continue  # a string t_eff is read as a unit name
            what = "an integer" if name in self.INT_FIELDS else "a number"
            with pytest.raises(ConfigError, match=f"{name} must be {what}"):
                SystemConfig(**{name: value})
            if value is not None:  # with_overrides reads None as "keep"
                with pytest.raises(ConfigError, match=f"{name} must be {what}"):
                    with_overrides(SystemConfig(), **{name: value})
        if name == "t_eff":
            with pytest.raises(ConfigError, match="t_eff must be a number or 'normalized', got '30'"):
                SystemConfig(t_eff="30")
            with pytest.raises(ConfigError, match="t_eff must be a number or 'normalized', got 'hot'"):
                parse_config("t_eff = hot\n")
