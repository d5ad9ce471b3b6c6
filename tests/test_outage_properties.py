"""Property tests of the frozen-draw outage estimator (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from slicepower import CommonRandomOutage  # noqa: E402
from slicepower.units import snr_db_to_gain  # noqa: E402

#: powers [mW]: exact zeros, and SNRs from far below to far above the target
POWERS = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(data=st.data())
def test_coordinate_try_equals_full_recompute(data):
    f_count = data.draw(st.integers(1, 12), label="f_count")
    vector = st.lists(POWERS, min_size=f_count, max_size=f_count)
    p_u = np.array(data.draw(vector, label="p_u"))
    p_e = np.array(data.draw(vector, label="p_e"))
    f = data.draw(st.integers(0, f_count - 1), label="f")
    value = data.draw(POWERS, label="value")
    crn = CommonRandomOutage(snr_db_to_gain(30.0), f_count, 1.0, draws=2_000, seed=41)
    crn.attach(p_u, p_e)
    moved = p_u.copy()
    moved[f] = value
    assert crn.try_coordinate(f, value).p_hat == crn.estimate(moved, p_e).p_hat
