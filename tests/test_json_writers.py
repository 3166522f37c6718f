"""The template writers of search.json, mac_assignments.json and
report.json against json.dumps(payload, sort_keys=True, indent=2) (with
default=float for report.json): byte-identical on every payload shape the
commands write, with the leaves json treats specially (-0.0, NaN,
infinities, extreme and np.float64 floats, negative and large ints, strings
that need escapes).  The mac writer takes the payload's assignments as
columns, one per field."""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfkit import cli  # noqa: E402
from cfkit.cli import _mac_json, _report_json, _search_json  # noqa: E402

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


def _report_expected(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n"


@st.composite
def report_payloads(draw):
    mode = draw(st.sampled_from(["parallel", "successive"]))
    M, L, C = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    vec = lambda n, leaf: st.lists(leaf, min_size=n, max_size=n)  # noqa: E731
    levels = draw(vec(C, _FLOATS))
    results = []
    for level in levels:
        combos = []
        for m in range(M):
            combo = {"combination_index": m + 1, "errors": draw(_INTS), "trials": draw(_INTS),
                     "rate_estimate": draw(_FLOATS), "ci_low": draw(_FLOATS),
                     "ci_high": draw(_FLOATS)}
            if mode == "successive":
                combo["real_errors"] = draw(_INTS)
            combos.append(combo)
        results.append({"noise_std": level, "trials": draw(_INTS), "combinations": combos,
                        "mean_power_per_user": draw(vec(L, _FLOATS))})
    return {"config": {"mode": mode, "trials": draw(_INTS), "master_seed": draw(_INTS),
                       "noise_std": levels, "A": draw(_matrix(M, L))},
            "results": results}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(payload=report_payloads())
def test_report_json_equals_json_dumps(payload):
    assert _report_json(payload) == _report_expected(payload)


def test_report_json_takes_leaves_as_float_like_default_float():
    # json.dumps(default=float) writes a leaf json cannot encode as its float
    payload = {"config": {"mode": "parallel", "trials": np.int64(5), "master_seed": 0,
                          "noise_std": [np.float32(0.5)], "A": [[1, 2]]},
               "results": [{"noise_std": 0.5, "trials": 5, "mean_power_per_user": [1.0, 2.0],
                            "combinations": [{"combination_index": 1, "errors": 0,
                                              "trials": 5, "rate_estimate": 0.0,
                                              "ci_low": 0.0, "ci_high": 0.4}]}]}
    assert _report_json(payload) == _report_expected(payload)


_ENSEMBLE2 = {"n": 2, "p": 3, "gamma": 3.0, "levels": [[0, 1], [0, 2]], "seed": 21}
_ENSEMBLE3 = {"n": 2, "p": 3, "gamma": 3.0, "levels": [[0, 1], [0, 2], [0, 1]], "seed": 5}
_SUCC2 = {"mode": "successive", "mapping": [[1, 1], [1, 2], [2, 2]]}
_H3 = [[1, 0.5, -1], [0.5, 2, 1], [1, 1, 1]]


@pytest.mark.parametrize("fields", [
    {"mode": "parallel", "noise_std": [0.5]},
    {**_SUCC2, "noise_std": [0.5, 0.05]},
    {"mode": "parallel", "noise_std": [0.3, 0.1, 0.2, 0.0]},
    {**_SUCC2, "noise_std": [0.5, 0.05, 0.2, 0.1]},
    {**_SUCC2, "noise_std": 0.3},
    {"mode": "parallel", "noise_std": 0.0},
    {"ensemble": _ENSEMBLE3, "H": _H3, "P": [1.0, 2.0, 0.5], "mode": "parallel",
     "A": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "noise_std": [0.4, 0.1]},
    {"ensemble": _ENSEMBLE3, "H": _H3, "P": [1.0, 2.0, 0.5], "mode": "successive",
     "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "mapping": [[1, 1], [2, 2], [3, 3]],
     "noise_std": [0.4]},
    {"mode": "parallel", "A": [[1, 2]], "noise_std": [0.5, 0.1]},
    {"ensemble": _ENSEMBLE3, "H": _H3, "P": [1.0, 2.0, 0.5], "mode": "parallel",
     "A": [[1, 1, 1]], "noise_std": 0.2},
    {"ensemble": _ENSEMBLE3, "H": _H3, "P": [1.0, 2.0, 0.5], "mode": "parallel",
     "A": [[1, 1, 0], [0, 1, 2]], "noise_std": [0.2, 0.6, 0.1, 0.05]},
], ids=["parallel-1-level", "successive-2-levels", "parallel-4-levels",
        "successive-4-levels", "successive-scalar-level", "parallel-scalar-level",
        "three-users-parallel", "three-users-successive", "one-row-A",
        "one-row-A-three-users", "two-rows-three-users"])
def test_simulate_report_equals_json_dumps(tmp_path, monkeypatch, fields):
    # report.json of a campaign, against json.dumps of the payload that
    # cmd_simulate hands its writer
    payloads = []
    honest = cli._report_json
    monkeypatch.setattr(cli, "_report_json", lambda payload: payloads.append(payload)
                        or honest(payload))
    doc = {"ensemble": _ENSEMBLE2, "H": [[1, 1], [1, 2]], "P": [1.0, 1.0],
           "A": [[1, 1], [1, 2]], "trials": 130, "master_seed": 11, **fields}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    [payload] = payloads
    assert (tmp_path / "report.json").read_text() == _report_expected(payload)
    levels = doc["noise_std"] if isinstance(doc["noise_std"], list) else [doc["noise_std"]]
    assert payload["config"]["A"] == doc["A"] and len(payload["results"]) == len(levels)
