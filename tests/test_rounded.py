"""core.rounded against Python's round: bit for bit, entry by entry, on the
digit counts cfkit mac uses (6 printed, 10 and 12 for dedup keys), with the
values where rint(v * 10^n) / 10^n alone would go wrong: decimal half-way
points, signed zeros, subnormals, scaled values at or past 2^51, NaN and the
infinities."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfkit.core import rounded  # noqa: E402

DIGITS = (6, 10, 12)


def _same(got: float, want: float) -> bool:
    """Equal bits, or both NaN."""
    return np.float64(got).tobytes() == np.float64(want).tobytes() or (
        math.isnan(got) and math.isnan(want))


def _half_way(n: int):
    """(k + 0.5) / 10^n and its float neighbours, for k of every size up to
    past 2^51."""
    k = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 53, 2 ** 53))
    point = k.map(lambda k: (k + 0.5) / 10 ** n)
    return st.tuples(point, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda pv: pv[0] if pv[1] is None else math.nextafter(pv[0], pv[1]))


def _values(n: int):
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-1e4, 1e4),
        _half_way(n),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         math.nan, math.inf, -math.inf, 2.0 ** 51 / 10 ** n,
                         -(2.0 ** 51) / 10 ** n, 2.0 ** 51, 1.7976931348623157e308]),
        st.floats(min_value=2.0 ** 51 / 10 ** n, max_value=1e300),
        st.floats(-1e-300, 1e-300))


@st.composite
def cases(draw):
    n = draw(st.sampled_from(DIGITS))
    return n, draw(st.lists(_values(n), min_size=1, max_size=40))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_equals_python_round_bit_for_bit(case):
    n, values = case
    got = rounded(np.array(values), n)
    for v, g in zip(values, got.tolist()):
        assert _same(g, round(v, n)), (v, n, g, round(v, n))


@pytest.mark.parametrize("n", DIGITS)
def test_every_half_way_point_of_a_range(n):
    # each k + 0.5 in a range, scaled down: the exactly representable ones
    # round half to even, the others to the side of their exact value
    k = np.arange(-20000, 20000)
    values = np.concatenate([(k + 0.5) / 10 ** n, k / 10 ** n])
    want = [round(v, n) for v in values.tolist()]
    assert rounded(values, n).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", DIGITS)
@pytest.mark.parametrize("size", [1, 5, 4000])
def test_rates_of_every_table_size(n, size):
    # values like the rates, sums and gaps cfkit mac rounds, most of them
    # cleared on the largest entry without a call of round
    rng = np.random.default_rng([n, size])
    values = np.concatenate([rng.uniform(0.0, 30.0, size), rng.normal(0.0, 3.0, size)])
    values = values.reshape(2, size)
    want = [round(v, n) for v in values.ravel().tolist()]
    assert rounded(values, n).tobytes() == np.array(want).tobytes()


def test_shape_kept_and_no_warnings():
    values = np.array([[math.nan, math.inf], [-math.inf, 1e308], [-0.0, 0.5]])
    with np.errstate(all="raise"):
        got = rounded(values, 12)
    assert got.shape == (3, 2)
    assert [_same(g, round(v, 12)) for g, v in zip(got.ravel().tolist(),
                                                   values.ravel().tolist())] == [True] * 6
    assert rounded(np.zeros((0, 4)), 6).shape == (0, 4)
