"""Unit conversions: zero power and ``-inf`` dBm map onto each other."""

import math

from slicepower.units import dbm_to_mw, mw_to_dbm


class TestZeroPower:
    def test_minus_infinity_dbm_is_zero_mw(self):
        assert dbm_to_mw(-math.inf) == 0.0

    def test_zero_mw_is_minus_infinity_dbm(self):
        assert mw_to_dbm(0.0) == -math.inf

    def test_negative_zero_mw_is_minus_infinity_dbm(self):
        assert mw_to_dbm(-0.0) == -math.inf
