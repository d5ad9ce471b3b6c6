import numpy as np
import pytest

from slicepower import Geometry, distance_from_mean_snr, mean_snr_from_distance
from slicepower.channel import drop
from slicepower.rng import substream
from slicepower.units import db_to_linear, dbm_to_watt, linear_to_db

GEOM = Geometry()
SIGMA2_W = dbm_to_watt(-108.0)

# (mean SNR [dB], distance [m], tolerance [m])
DISTANCE_ANCHORS = [
    (30.0, 464.56, 0.5),
    (40.0, 261.2, 0.5),
    (50.0, 146.9, 0.2),
    (60.0, 82.6, 0.5),
    (70.0, 46.5, 0.5),
    (80.0, 26.1, 0.5),
]


class TestSampler:
    def test_mean_and_variance(self):
        mean = 1000.0
        n = 10**6
        draws = drop(123, 0, mean, n)
        se_mean = mean / np.sqrt(n)
        assert abs(draws.mean() - mean) < 5 * se_mean
        # exponential variance is mean^2; its sample estimate has
        # standard error mean^2 * sqrt(8/n)
        se_var = mean**2 * np.sqrt(8.0 / n)
        assert abs(draws.var() - mean**2) < 5 * se_var

    def test_deterministic_given_seed(self):
        a = drop(7, 0, 42.0, 1000)
        b = drop(7, 0, 42.0, 1000)
        assert np.array_equal(a, b)

    def test_cdf_at_mean(self):
        n = 200_000
        draws = drop(11, 0, 3.5, n)
        p = np.mean(draws <= 3.5)
        ref = 1.0 - np.exp(-1.0)
        assert abs(p - ref) < 3 * np.sqrt(ref * (1 - ref) / n)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            drop(1, 0, 0.0, 10)
        with pytest.raises(ValueError):
            drop(1, 0, 1.0, 0)

    @pytest.mark.parametrize("mean", [np.nan, np.inf])
    def test_rejects_nan_or_infinite_mean(self, mean):
        with pytest.raises(ValueError, match="finite mean"):
            drop(1, 0, mean, 12)


class TestDrop:
    @pytest.mark.parametrize("seed,index", [(1, 0), (1, 19), (606, 3)])
    def test_fading_is_the_drop_substream(self, seed, index):
        # the sweep CSVs and the benchmark digests depend on this stream
        expected = 2.5 * substream(seed, "drop", index).standard_exponential(12)
        assert drop(seed, index, 2.5, 12).tobytes() == expected.tobytes()

    def test_drop_is_the_broadband_gain_vector(self):
        gamma_e = drop(4, 2, 10.0, 6)
        assert isinstance(gamma_e, np.ndarray)
        assert gamma_e.dtype == np.float64 and gamma_e.shape == (6,)


class TestDistanceInversion:
    @pytest.mark.parametrize("snr_db,d_ref,tol", DISTANCE_ANCHORS)
    def test_reference_distances(self, snr_db, d_ref, tol):
        d = distance_from_mean_snr(db_to_linear(snr_db), GEOM, SIGMA2_W)
        assert abs(d - d_ref) < tol

    def test_power_law_scaling(self):
        d1 = distance_from_mean_snr(1e5, GEOM, SIGMA2_W)
        d2 = distance_from_mean_snr(4e5, GEOM, SIGMA2_W)
        assert d1 / d2 == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_strictly_decreasing(self):
        gammas = np.logspace(2, 9, 40)
        ds = [distance_from_mean_snr(g, GEOM, SIGMA2_W) for g in gammas]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_snr_at_anchor_distance(self):
        gamma = mean_snr_from_distance(146.9, GEOM, SIGMA2_W)
        assert abs(linear_to_db(gamma) - 50.0) < 0.01

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for d in rng.uniform(GEOM.d0, 500.0, size=100):
            gamma = mean_snr_from_distance(d, GEOM, SIGMA2_W)
            assert distance_from_mean_snr(gamma, GEOM, SIGMA2_W) == pytest.approx(d, rel=1e-9)

    def test_snr_ratio_power_law(self):
        g2 = mean_snr_from_distance(2 * GEOM.d0, GEOM, SIGMA2_W)
        g4 = mean_snr_from_distance(4 * GEOM.d0, GEOM, SIGMA2_W)
        assert g2 / g4 == pytest.approx(2.0**GEOM.alpha, rel=1e-12)

    def test_inside_free_space_region(self):
        with pytest.raises(ValueError):
            mean_snr_from_distance(GEOM.d0 / 2, GEOM, SIGMA2_W)

    def test_non_positive_snr(self):
        with pytest.raises(ValueError):
            distance_from_mean_snr(0.0, GEOM, SIGMA2_W)


class TestGeometry:
    def test_rejects_shallow_path_loss(self):
        with pytest.raises(ValueError):
            Geometry(alpha=2.0)

    def test_rejects_radius_inside_d0(self):
        with pytest.raises(ValueError):
            Geometry(d0=100.0, cell_radius=50.0)
