"""Property tests of the frozen-draw outage estimator (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from slicepower import CommonRandomOutage  # noqa: E402
from slicepower.outage import _row_totals  # noqa: E402
from slicepower.units import snr_db_to_gain  # noqa: E402

from oracles import UncachedCommonRandomOutage, every_total  # noqa: E402

#: draws spanning three full blocks of the blocked kernels and a partial fourth
DRAWS = 3 * 4096 + 5
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
    crn = CommonRandomOutage(snr_db_to_gain(30.0), f_count, 1.0, draws=DRAWS, seed=41)
    crn.attach(p_u, p_e)
    moved = p_u.copy()
    moved[f] = value
    assert crn.try_coordinate(f, value).p_hat == crn.estimate(moved, p_e).p_hat


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    f_count=st.integers(1, 24), rows=st.integers(1, 5000), low=st.integers(-300, 300),
    span=st.integers(0, 600), seed=st.integers(0, 2**32 - 1), zeros=st.booleans(),
)
def test_row_totals_equal_numpy_sum_bitwise(f_count, rows, low, span, seed, zeros):
    # magnitudes from 10^low to 10^(low+span), within 1e-300..1e300, both
    # signs, and with exact +0.0 and -0.0 entries when ``zeros``
    rng = np.random.default_rng(seed)
    high = min(low + span, 300)
    values = 10.0 ** rng.uniform(low, high, (rows, f_count))
    values *= rng.choice([-1.0, 1.0], values.shape)
    if zeros:
        values[rng.random(values.shape) < 0.3] = 0.0
        values[rng.random(values.shape) < 0.3] = -0.0
    expected = values.sum(axis=1)
    # draw-major: the columns of a C-ordered block; resource-major: the
    # C-ordered rows of its transpose
    for cols in (values.T, np.ascontiguousarray(values.T)):
        got = _row_totals(cols, np.empty(rows))
        assert got.tobytes() == expected.tobytes()


#: what a try or commit does to a coordinate's power: cut it to zero, lower
#: it, keep it, or raise it
FACTORS = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0), st.floats(1.0, 2.0))
#: one call of a session: attach afresh, try, commit, or a run of commits
#: that scale one coordinate down or up, with tries of every coordinate
#: after each: to 0 (every draw), below its power and above it (the near
#: set)
CALLS = st.one_of(
    st.tuples(st.just("attach")),
    st.tuples(st.just("try"), st.integers(0, 11), FACTORS),
    st.tuples(st.just("commit"), st.integers(0, 11), FACTORS),
    st.tuples(st.just("run"), st.integers(0, 11), st.integers(1, 12),
              st.one_of(st.floats(0.7, 1.0), st.floats(1.0, 1.5)),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(1.0, 2.0)),
)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_call_sequences_match_the_uncached_oracle(data):
    f_count = data.draw(st.integers(1, 12), label="f_count")
    interfered = data.draw(st.booleans(), label="interfered")
    args = (snr_db_to_gain(20.0), f_count, 1.0, DRAWS, 43)
    new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
    # powers of 3 mW to 1 W: mean SNRs of -5 to 20 dB per resource
    levels = st.lists(st.floats(0.5, 3.0), min_size=f_count, max_size=f_count)
    current = np.zeros(f_count)

    def same(a, b):
        assert a.p_hat == b.p_hat
        assert np.array_equal(every_total(new), old._total)

    def attach():
        current[:] = 10.0 ** np.array(data.draw(levels, label="p_u dB/10"))
        p_e = 10.0 ** np.array(data.draw(levels, label="p_e dB/10")) if interfered else 0.0
        same(new.attach(current, p_e), old.attach(current, p_e))

    def tried(f, value):
        same(new.try_coordinate(f, value), old.try_coordinate(f, value))

    def commit(f, value):
        new.commit(f, value)
        old.commit(f, value)
        current[f] = value
        assert np.array_equal(every_total(new), old._total)

    def try_all(below, above):
        for g in range(f_count):
            for factor in (0.0, below, above):
                tried(g, current[g] * factor)

    attach()
    try_all(0.5, 1.5)
    for call in data.draw(st.lists(CALLS, min_size=1, max_size=30), label="calls"):
        if call[0] == "attach":
            attach()
        elif call[0] == "run":
            _, f, length, factor, below, above = call
            for _ in range(length):
                commit(f % f_count, current[f % f_count] * factor)
                try_all(below, above)
        else:
            verb, f, factor = call
            (tried if verb == "try" else commit)(f % f_count, current[f % f_count] * factor)
