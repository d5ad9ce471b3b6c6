"""Unit conversions shared across the package.

Internal convention: transmit powers are linear milliwatts, and channel
gains are normalized per milliwatt, i.e. ``gain * power_mw`` is the
received SNR.  Mean-SNR figures quoted in dB elsewhere are normalized per
watt, so converting them to the internal gain scale subtracts 30 dB.
dB / dBm appear only at I/O boundaries (configs, tables, CLI, CSV).
"""

from __future__ import annotations

import math

#: exact speed of light [m/s]
C_LIGHT = 299_792_458.0


def db_to_linear(value_db: float) -> float:
    """10^(x/10)."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError(f"dB undefined for non-positive value {value!r}")
    return 10.0 * math.log10(value)


def dbm_to_mw(power_dbm: float) -> float:
    """dBm -> linear mW.  ``-inf`` maps to exactly 0 mW."""
    return 10.0 ** (power_dbm / 10.0)


def mw_to_dbm(power_mw: float) -> float:
    """Linear mW -> dBm.  0 mW maps to ``-inf``."""
    if power_mw < 0.0:
        raise ValueError(f"negative power {power_mw!r} mW")
    if power_mw == 0.0:
        return -math.inf
    return 10.0 * math.log10(power_mw)


def dbm_to_watt(power_dbm: float) -> float:
    return dbm_to_mw(power_dbm) * 1e-3


def snr_db_to_gain(mean_snr_db: float) -> float:
    """Mean SNR in dB (per-watt normalization) -> per-mW linear gain."""
    return 10.0 ** ((mean_snr_db - 30.0) / 10.0)


def gain_to_snr_db(gain_per_mw: float) -> float:
    """Per-mW linear gain -> mean SNR in dB (per-watt normalization)."""
    return linear_to_db(gain_per_mw) + 30.0
