import math
import pickle

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
