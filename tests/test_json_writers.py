"""The template writers of search.json and mac_assignments.json against
json.dumps(payload, sort_keys=True, indent=2): byte-identical on every
payload shape the commands write, with the leaves json treats specially
(-0.0, NaN, infinities, extreme and np.float64 floats, negative and large
ints, strings that need escapes).  The mac writer takes the payload's
assignments as columns, one per field."""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfkit.cli import _mac_json, _search_json  # noqa: E402

_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300,
                     -1e-300, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_INTS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
_STRATEGIES = st.one_of(st.sampled_from(["parallel", "successive"]),
                        st.text(max_size=6))


def _matrix(rows, cols):
    return st.lists(st.lists(_INTS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _expected(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _columns(payload) -> dict:
    """A mac_assignments.json payload as _mac_json takes it: one column
    per assignment field, the k-th entry from assignment k."""
    entries = payload["assignments"]
    columns = {key: [e[key] for e in entries]
               for key in ("strategy", "A", "pi", "rates", "sum_rate", "gap")}
    columns["sum_capacity"] = payload["sum_capacity"]
    return columns


@st.composite
def search_payloads(draw):
    L = draw(st.integers(1, 6))
    M = draw(st.integers(1, 6))
    vec = lambda n, leaf: st.lists(leaf, min_size=n, max_size=n)  # noqa: E731
    rows = [{"row": draw(vec(L, _INTS)), "sigma2_parallel": draw(_FLOATS),
             "sigma2_successive": draw(_FLOATS)} for _ in range(M)]
    return {"entry_bound": draw(_FLOATS), "max_abs_entry": draw(_INTS),
            "A_star": draw(_matrix(M, L)), "norms_squared": draw(vec(M, _FLOATS)),
            "rows": rows}


@st.composite
def mac_payloads(draw):
    L = draw(st.integers(1, 6))
    n = draw(st.one_of(st.just(0), st.integers(0, 60)))
    vec = lambda leaf: st.lists(leaf, min_size=L, max_size=L)  # noqa: E731
    entries = [{"strategy": draw(_STRATEGIES), "A": draw(_matrix(L, L)),
                "pi": draw(vec(_INTS)), "rates": draw(vec(_FLOATS)),
                "sum_rate": draw(_FLOATS), "gap": draw(_FLOATS)} for _ in range(n)]
    return {"sum_capacity": draw(_FLOATS), "assignments": entries}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(payload=search_payloads())
def test_search_json_equals_json_dumps(payload):
    assert _search_json(payload) == _expected(payload)


# up to 60 assignments of up to 6 users: drawing them dominates the time
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(payload=mac_payloads())
def test_mac_json_equals_json_dumps(payload):
    assert _mac_json(_columns(payload)) == _expected(payload)


@pytest.mark.parametrize("L", range(1, 7))
@pytest.mark.parametrize("n", [0, 1, 2, 60])
def test_mac_json_every_user_count_and_table_size(L, n):
    entries = [{"strategy": "successive", "A": np.eye(L, dtype=int).tolist(),
                "pi": list(range(1, L + 1)), "rates": [np.float64(-0.0)] * L,
                "sum_rate": math.nan, "gap": -math.inf} for _ in range(n)]
    payload = {"sum_capacity": np.float64(1e300), "assignments": entries}
    assert _mac_json(_columns(payload)) == _expected(payload)
