"""Random campaign files through ``cfkit simulate``: every run ends in exit 0
with a report, or in exit 2 with one ``error:`` line on stderr, and never in
a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfkit.cli import main  # noqa: E402

# Small fields and blocklengths keep most tables to a few rows; (7, 4) and
# (5, 5) give tables of 2401 and 3125 rows, which the quantizer searches as
# implicit trees.  Levels may exceed the blocklength or the desk-scale caps.
_ENSEMBLES = st.one_of(
    st.tuples(st.integers(1, 4), st.sampled_from([2, 3, 5]), st.integers(0, 3)),
    st.sampled_from([(6, 7, 4), (8, 7, 4), (6, 5, 5), (3, 4, 2), (2, 3, 3)]))

_NUMBER = st.one_of(st.floats(-2.0, 4.0), st.sampled_from([0.0, 1e-300, 1e154, 1e300]),
                    st.integers(-2, 3))


@st.composite
def campaign_docs(draw):
    n, p, kf = draw(_ENSEMBLES)
    users = draw(st.integers(1, 3))
    levels = []
    for _ in range(users):
        kc = draw(st.integers(0, kf))
        levels.append([kc, draw(st.integers(kc, kf))])
    if draw(st.booleans()):
        levels[-1][1] = kf
    antennas = draw(st.integers(1, 2))
    gain = st.floats(-3.0, 3.0)
    rows = draw(st.integers(1, 3))
    doc = {
        "ensemble": {"n": n, "p": p, "gamma": draw(st.sampled_from([float(p), 2.5, 0.5, 40.0])),
                     "levels": levels, "seed": draw(st.integers(0, 50))},
        "H": [[draw(gain) for _ in range(users)] for _ in range(antennas)],
        "P": [draw(st.floats(0.0, 4.0)) for _ in range(users)],
        "A": [[draw(st.integers(-2, 3)) for _ in range(users)] for _ in range(rows)],
        "mode": draw(st.sampled_from(["parallel", "successive"])),
        "noise_std": draw(st.one_of(_NUMBER, st.lists(_NUMBER, min_size=1, max_size=3))),
        "trials": draw(st.integers(1, 12)),
        "master_seed": draw(st.integers(0, 2 ** 64 - 1)),
    }
    if doc["mode"] == "successive" and draw(st.booleans()):
        doc["mapping"] = [[m + 1, l + 1] for m in range(rows + 1) for l in range(users)
                          if draw(st.booleans()) and (m < rows or draw(st.booleans()))]
    return doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=campaign_docs())
def test_campaign_files_end_in_exit_0_or_one_error_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", str(path), "--out", tmp])
        report = Path(tmp) / "report.json"
        err = err.getvalue()
        if code == 0:
            assert err == "", err
            results = json.loads(report.read_text())["results"]
            assert [r["trials"] for r in results] == [doc["trials"]] * len(results)
        else:
            assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err
            assert not report.exists()
