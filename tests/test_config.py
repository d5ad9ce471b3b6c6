import dataclasses
import logging
import math
import os
import re

import pytest

import slicepower.sweep
from slicepower import (BcdOptions, LatencyInfeasibleError, ScenarioConfig, Scheme,
                        distance_from_mean_snr, load_config, run_sweep, scheme_f_u_count)
from slicepower.channel import Geometry
from slicepower.config import dump_config
from slicepower.units import db_to_linear, dbm_to_watt, snr_db_to_gain


class TestDefaults:
    def test_reference_setup(self):
        cfg = ScenarioConfig()
        assert cfg.f_count == 12 and cfg.m_count == 7
        assert cfg.slot_duration == 1e-3 and cfg.delta_f == 180e3
        assert cfg.n_e == 8640.0 and cfg.n_u == pytest.approx(2160.0 / 7.0)
        assert cfg.epsilon_u == 1e-5
        assert cfg.antenna_gain_db == 17.15 and cfg.carrier_hz == 2e9
        assert cfg.d0 == 10.0 and cfg.path_loss_exponent == 4.0
        assert cfg.cell_radius == 500.0 and cfg.noise_dbm == -108.0
        assert cfg.geometry() == Geometry()
        assert cfg.schemes == ("noma", "oma-3", "oma-6", "oma-9")

    def test_empty_file_reproduces_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        assert load_config(path) == ScenarioConfig()

    def test_derived_objects(self):
        cfg = ScenarioConfig()
        assert cfg.grid().T_m == pytest.approx(1e-3 / 7.0)
        assert cfg.traffic().epsilon_u == 1e-5
        assert cfg.geometry().cell_radius == 500.0
        tuned = ScenarioConfig(mu0_fraction=0.2, tau=1e-3, crn_draws=7)
        assert tuned.bcd_options() == BcdOptions(mu0_fraction=0.2, tau=1e-3, draws=7)
        assert ScenarioConfig().bcd_options() == BcdOptions()

    @pytest.mark.parametrize("snr_db", [30.0, 40.0, 50.0, 60.0, 70.0, 80.0])
    def test_mean_gain_at_the_distance_anchors(self, snr_db):
        # the per-watt mean SNR of C1's anchors, as a per-mW gain
        cfg = ScenarioConfig()
        sigma2_w = dbm_to_watt(cfg.noise_dbm)
        d = distance_from_mean_snr(db_to_linear(snr_db), cfg.geometry(), sigma2_w)
        assert cfg.mean_gain(d) == pytest.approx(snr_db_to_gain(snr_db), rel=1e-12)


class TestParsing:
    def test_overrides_and_comments(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text(
            "drops = 10        # fewer drops\n"
            "d_u = 50, 100.5\n"
            "schemes = noma, oma-6\n"
            "epsilon_u = 1e-2\n"
            "auto_build_tables = true\n"
        )
        cfg = load_config(path)
        assert cfg.drops == 10
        assert cfg.d_u == (50.0, 100.5)
        assert cfg.schemes == ("noma", "oma-6")
        assert cfg.epsilon_u == 1e-2
        assert cfg.auto_build_tables is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequency_count = 12\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("drops 10\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(path)

    @pytest.mark.parametrize("line, bad", [
        ("drops = abc", "'abc'"), ("d_u = 50, x", "'x'"), ("auto_build_tables = maybe", "'maybe'"),
    ])
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, line, bad):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\nseed = 3\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {key}: .*{bad}"):
            load_config(path)

    def test_bad_scheme_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("schemes = noma, tdma\n")
        with pytest.raises(ValueError, match="unknown scheme"):
            load_config(path)

    def test_bad_algorithm_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("algorithms = fea, simplex\n")
        with pytest.raises(ValueError, match="unknown algorithm"):
            load_config(path)

    def test_non_integral_count_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("drops = 2.5\n")
        with pytest.raises(ValueError, match="'drops'"):
            load_config(path)
        path.write_text("table_trials = 1e7\n")  # integral, in float notation
        assert load_config(path).table_trials == 10**7

    @pytest.mark.parametrize("line", ["table_trials = 0", "crn_draws = 0", "evidence_trials = -3"])
    def test_sample_count_below_one_rejected(self, tmp_path, line):
        # rejected at load time, before any table is built
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=line.split()[0] + " must be >= 1"):
            load_config(path)

    def test_programmatic_overrides(self):
        cfg = load_config(None, overrides={"seed": 9, "drops": 3})
        assert cfg.seed == 9 and cfg.drops == 3

    def test_round_trip(self, tmp_path):
        cfg = load_config(None, overrides={"d_u": (25.0, 75.0), "drops": 42})
        path = tmp_path / "dump.cfg"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg


class TestValidation:
    """Every way of building a config runs the same checks."""

    ONE_POINT = {"d_u": (100.0,), "schemes": ("oma-3",), "algorithms": ("fea",)}

    def test_bad_drops_fail_before_any_table(self, monkeypatch, tmp_path):
        tables = []
        monkeypatch.setattr(slicepower.sweep, "ensure_table",
                            lambda *args: tables.append(args))
        with pytest.raises(ValueError, match="drops"):
            run_sweep(ScenarioConfig(drops=0, table_dir=str(tmp_path), **self.ONE_POINT))
        with pytest.raises(ValueError, match="'drops'"):
            run_sweep(load_config(None, overrides={"drops": 2.5, "table_dir": str(tmp_path),
                                                   **self.ONE_POINT}))
        assert tables == []

    @pytest.mark.parametrize("field,value,message", [
        ("epsilon_u", 0.0, "epsilon_u"),
        ("f_count", 0, "F >= 1"),
        ("path_loss_exponent", 2.0, "path-loss exponent"),
        ("schemes", ("tdma",), "unknown scheme"),
        ("algorithms", ("simplex",), "unknown algorithm"),
        ("drops", 2.5, "integer field 'drops'"),
        ("crn_draws", 0, "crn_draws must be >= 1"),
        ("d_u", (5.0,), "5 m is outside the 500 m cell"),  # inside d0 = 10 m
        ("d_u", (5000.0,), "5000 m is outside the 500 m cell"),
        ("gamma_e_db", (10.0,), "1469.06 m is outside the 500 m cell"),
        # a non-positive or NaN step returns the start with 0 sweeps; an infinite
        # one never halves, and tau <= 0 halves the step until it underflows
        ("mu0_fraction", 0.0, "mu0_fraction must be positive and finite"),
        ("mu0_fraction", -0.1, "mu0_fraction must be positive and finite"),
        ("mu0_fraction", math.nan, "mu0_fraction must be positive and finite"),
        ("mu0_fraction", math.inf, "mu0_fraction must be positive and finite"),
        ("tau", 0.0, "tau must be positive and finite"),
        ("tau", -1e-7, "tau must be positive and finite"),
        ("tau", math.nan, "tau must be positive and finite"),
        ("tau", math.inf, "tau must be positive and finite"),
    ])
    def test_rejected_at_construction(self, field, value, message):
        builds = [ScenarioConfig, lambda **kw: dataclasses.replace(ScenarioConfig(), **kw)]
        if field in ("mu0_fraction", "tau"):  # the descent's own controls check themselves
            builds.append(BcdOptions)
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["n_e", "n_u", "delta_f", "slot_duration", "antenna_gain_db",
                                       "carrier_hz", "path_loss_exponent", "noise_dbm"])
    def test_non_finite_scalar_is_named(self, field, value, tmp_path):
        # each used to construct and fail at the first drop with a message naming no field
        path = tmp_path / "scenario.cfg"
        path.write_text(f"{field} = {value}\n", encoding="utf-8")
        for build in (lambda: ScenarioConfig(**{field: value}), lambda: load_config(path)):
            with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
                build()

    @pytest.mark.parametrize("overrides,error,message", [
        ({"m_u": 0}, ValueError, "the URLLC window must span at least one mini-slot"),
        ({"m_u": 8}, LatencyInfeasibleError,
         r"window of 8 mini-slots exceeds the remaining budget 7 \(M_u_max=7, W_u=0\)"),
        ({"m_u_max": 10}, ValueError,
         r"latency budget M_u_max=10 exceeds the slot \(7 mini-slots\)"),
        ({"m_u": 5, "w_u": 4}, LatencyInfeasibleError,
         r"window of 5 mini-slots exceeds the remaining budget 3 \(M_u_max=7, W_u=4\)"),
    ])
    def test_unplaceable_window_rejected_at_construction(self, overrides, error, message):
        # the error the first drop's broadband stage would raise, before any drop
        builds = [ScenarioConfig, lambda **kw: dataclasses.replace(ScenarioConfig(), **kw),
                  lambda **kw: load_config(None, overrides=kw)]
        for build in builds:
            with pytest.raises(error, match=message):
                build(**overrides)
        assert ScenarioConfig(m_u=3, w_u=4).traffic().max_window == 3

    def test_override_replaces_a_bad_file_value(self, tmp_path):
        # the file value is never checked on its own: one construction
        path = tmp_path / "case.cfg"
        path.write_text("drops = 0\n")
        assert load_config(path, overrides={"drops": 5}).drops == 5
        with pytest.raises(ValueError, match="drops must be >= 1"):
            load_config(path)

    def test_placements_on_the_cell_edges_are_accepted(self):
        cfg = ScenarioConfig(d_u=(10.0, 500.0), gamma_u_db=(30.0, 80.0))
        assert cfg.placements()[0][0] == 10.0 and cfg.placements()[0][-1] == 500.0

    def test_placements_merge_distances_and_mean_snrs(self):
        cfg = ScenarioConfig(gamma_u_db=(60.0,), d_u=(100.0,))
        d_60db = distance_from_mean_snr(db_to_linear(60.0), cfg.geometry(),
                                        dbm_to_watt(cfg.noise_dbm))
        assert d_60db < 100.0
        assert cfg.placements() == ([d_60db, 100.0], [146.9])


class TestSchemeMapping:
    def test_noma_gets_full_band(self):
        assert scheme_f_u_count("noma", 12) == (Scheme.NOMA, 12)

    @pytest.mark.parametrize("label,count", [("oma-3", 3), ("oma-6", 6), ("oma-9", 9)])
    def test_oma_reservations(self, label, count):
        assert scheme_f_u_count(label, 12) == (Scheme.OMA, count)

    def test_oma_reservation_bounds(self):
        with pytest.raises(ValueError):
            scheme_f_u_count("oma-12", 12)
        with pytest.raises(ValueError):
            scheme_f_u_count("oma-0", 12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            scheme_f_u_count("puncturing", 12)


class TestSampleSizeWarning:
    EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "example-scenario.cfg")

    def _warnings(self, caplog, *args, build=load_config, **kwargs):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="slicepower.config"):
            build(*args, **kwargs)
        return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]

    def test_default_and_example_configs_are_quiet(self, caplog):
        assert self._warnings(caplog) == []
        assert self._warnings(caplog, self.EXAMPLE) == []
        assert self._warnings(caplog, build=ScenarioConfig) == []

    def test_directly_built_and_replaced_configs_warn_once(self, caplog):
        messages = self._warnings(caplog, build=ScenarioConfig, crn_draws=999_999)
        assert len(messages) == 1 and "crn_draws = 999999" in messages[0]
        messages = self._warnings(caplog, ScenarioConfig(), build=dataclasses.replace,
                                  evidence_trials=10)
        assert len(messages) == 1 and "evidence_trials = 10" in messages[0]

    def test_names_each_short_field_and_the_minimum_once(self, caplog):
        messages = self._warnings(caplog, self.EXAMPLE,
                                  overrides={"crn_draws": 999, "evidence_trials": 10})
        assert len(messages) == 1
        assert "crn_draws = 999" in messages[0] and "evidence_trials = 10" in messages[0]
        assert "table_trials" not in messages[0]
        assert "10/epsilon_u = 1000" in messages[0]

    def test_minimum_follows_the_target(self, caplog):
        messages = self._warnings(caplog, overrides={"table_trials": 999_999})
        assert len(messages) == 1 and "table_trials = 999999" in messages[0]
        assert "10/epsilon_u = 1000000" in messages[0]
        assert self._warnings(caplog, overrides={"epsilon_u": 1e-4, "crn_draws": 100_000}) == []
