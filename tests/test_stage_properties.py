"""Bitwise equality of the broadband stage with its frozen reference copies
(need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from slicepower import RateInfeasibleError, Scheme  # noqa: E402
from slicepower.grid import select_urllc_frequencies  # noqa: E402
from slicepower.waterfill import embb_power, sic_power, waterfill  # noqa: E402

from oracles import (  # noqa: E402
    ref_embb_power,
    ref_select_urllc_frequencies,
    ref_sic_power,
    ref_waterfill,
)


def _bitwise(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert np.array_equal(np.signbit(new), np.signbit(ref))


def _same(fn, ref_fn, *args):
    """Equal outputs bit for bit, or the same exception type."""
    try:
        expected = ref_fn(*args)
    except (ValueError, RateInfeasibleError) as exc:
        with pytest.raises(type(exc)):
            fn(*args)
        return None
    got = fn(*args)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        _bitwise(got, expected)
    return got


@st.composite
def gain_vectors(draw):
    """1 to 24 gains spread over 1e-3 .. 1e9, with ties and exact zeros."""
    f = draw(st.integers(1, 24), label="f")
    exponents = draw(st.lists(st.floats(-3.0, 9.0), min_size=f, max_size=f), label="exponents")
    gains = 10.0 ** np.array(exponents)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, f - 1), st.integers(0, f - 1)),
                                  max_size=f), label="ties"):
        gains[dst] = gains[src]
    zeros = draw(st.lists(st.integers(0, f - 1), max_size=f), label="zeros")
    gains[zeros] = 0.0
    return gains


#: rates [bit/s/Hz] per offered channel; at 16 even one usable channel of 24,
#: and its cancellation floor, stay far below float64 overflow
RATES = st.floats(1e-2, 16.0)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(gains=gain_vectors(), rate=RATES, data=st.data())
def test_broadband_stage_matches_reference_bitwise(gains, rate, data):
    positive = gains[gains > 0.0]
    if positive.size:
        _same(waterfill, ref_waterfill, positive, rate * positive.size)
    p_e = _same(embb_power, ref_embb_power, gains, rate)
    if p_e is None:
        p_e = np.zeros_like(gains)
    # the floor over the stage's own powers, and over powers with exact zeros
    for interference in (p_e, np.where(gains > 1.0, 1.0 / np.maximum(gains, 1e-300), 0.0)):
        _same(sic_power, ref_sic_power, interference, gains, rate, Scheme.NOMA)
    k = data.draw(st.integers(0, gains.size), label="f_u_count")
    _same(select_urllc_frequencies, ref_select_urllc_frequencies, gains, k)


def _same_or_infeasible(fn, ref_fn, *args):
    """The reference's finite output bit for bit, or ``RateInfeasibleError``
    where the reference overflows to a non-finite power."""
    try:
        with np.errstate(over="ignore"):
            expected = ref_fn(*args)
    except (ValueError, RateInfeasibleError) as exc:
        with pytest.raises(type(exc)):
            fn(*args)
        return None
    if not np.isfinite(expected).all():
        with pytest.raises(RateInfeasibleError, match="beyond float64 range"):
            fn(*args)
        return None
    got = fn(*args)
    _bitwise(got, expected)
    return got


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(gains=gain_vectors(), rate=st.floats(16.0, 100.0), data=st.data())
def test_high_rates_match_reference_or_are_infeasible(gains, rate, data):
    # few usable channels carry the rate of all: levels past 2^1024 occur
    gains[data.draw(st.integers(1, gains.size), label="usable"):] = 0.0
    positive = gains[gains > 0.0]
    if positive.size:
        _same_or_infeasible(waterfill, ref_waterfill, positive, rate * positive.size)
    p_e = _same_or_infeasible(embb_power, ref_embb_power, gains, rate)
    if p_e is not None:
        _same_or_infeasible(sic_power, ref_sic_power, p_e, gains, rate, Scheme.NOMA)
