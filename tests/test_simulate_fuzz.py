"""Random campaign files through ``cfkit simulate``: every run ends in exit 0
with a report, or in exit 2 with one ``error:`` line on stderr and no --out
directory, and never in a traceback.  A mapping pair outside A exits 2 in
either mode.  In the ensemble's integer fields and in the equalizers, an
integral float reads as its integer, and a fraction (in an integer field)
or a string exits 2 naming the field.  A gamma anywhere in the float range
gives a report whose powers are finite, or exit 2 naming gamma's range."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfkit.cli import main  # noqa: E402
from cfkit.lattice import GAMMA_MAX  # noqa: E402

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
    if draw(st.booleans()):
        doc["mapping"] = [[m + 1, l + 1] for m in range(rows + 1) for l in range(users)
                          if draw(st.booleans()) and (m < rows or draw(st.booleans()))]
    return doc


def _simulate(doc: dict) -> tuple[int, str, bytes | None]:
    """Exit code, stderr and report.json of ``cfkit simulate`` on doc, run
    with an --out that does not exist yet, after checking that --out holds
    exactly report.json and report.csv after exit 0 and is absent after
    exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "campaign.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", str(path), "--out", str(out)])
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]
            return code, err.getvalue(), (out / "report.json").read_bytes()
        assert not out.exists(), sorted(p.name for p in out.iterdir())
        return code, err.getvalue(), None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=campaign_docs())
def test_campaign_files_end_in_exit_0_or_one_error_line(doc):
    code, err, report = _simulate(doc)
    rows, users = len(doc["A"]), len(doc["A"][0])
    if any(not (1 <= m <= rows and 1 <= l <= users) for m, l in doc.get("mapping", [])):
        assert code == 2, "a mapping pair outside A ran"  # in either mode
    if code == 0:
        assert err == "", err
        results = json.loads(report)["results"]
        assert [r["trials"] for r in results] == [doc["trials"]] * len(results)
    else:
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err
        assert report is None


_VARIANTS = {"integral": float, "fraction": lambda v: v + 0.5, "string": str}


@st.composite
def number_rule_cases(draw):
    """(target, variant, doc, mutated): a campaign on the README channel
    that runs, and a copy in which one integer entry of the target field is
    written as an integral float, a fraction or a string."""
    mode = draw(st.sampled_from(["parallel", "successive"]))
    doc = {"ensemble": {"n": draw(st.integers(2, 4)), "p": draw(st.sampled_from([3, 5, 7])),
                        "gamma": 3.0, "seed": draw(st.integers(0, 50)),
                        "levels": draw(st.sampled_from([[[0, 1], [0, 2]], [[0, 2], [1, 2]],
                                                        [[1, 2], [0, 1]]]))},
           "H": [[1, 1], [1, 2]], "P": [1.0, 1.0], "A": [[1, 1], [1, 2]], "mode": mode,
           "noise_std": [0.5], "trials": 6, "master_seed": draw(st.integers(0, 2 ** 64 - 1))}
    target = draw(st.sampled_from(["n", "p", "seed", "levels", "equalizers"]))
    variant = draw(st.sampled_from(sorted(_VARIANTS)))
    weights = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    if mode == "successive":
        doc["mapping"] = [[1, 1], [1, 2], [2, 2]]
        doc["equalizers"] = [[draw(weights), draw(st.lists(st.integers(-2, 2), max_size=m))]
                             for m in range(2)]
    else:
        doc["equalizers"] = [draw(weights) for _ in range(2)]
    mutated = json.loads(json.dumps(doc))
    if target == "equalizers":
        row = mutated["equalizers"][draw(st.integers(0, 1))]
        entries = row if mode == "parallel" else row[0]
    elif target == "levels":
        entries = mutated["ensemble"]["levels"][draw(st.integers(0, 1))]
    else:
        entries = mutated["ensemble"]
    index = target if target in entries else draw(st.integers(0, 1))
    entries[index] = _VARIANTS[variant](entries[index])
    return target, variant, doc, mutated


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=number_rule_cases())
def test_integer_fields_follow_the_number_rule(case):
    target, variant, doc, mutated = case
    code, err, report = _simulate(mutated)
    if variant == "integral":
        assert code == 0 and (code, err, report) == _simulate(doc), err
    elif variant == "fraction" and target == "equalizers":
        assert code == 0, err  # a fractional weight is a number
    else:
        assert code == 2 and err.count("\n") == 1 and f"field {target!r}" in err, err
        assert report is None


# log-uniform over the whole float range and past its ends (2.0 ** -1100 is 0)
_GAMMAS = st.floats(-1100.0, 1023.9).map(lambda e: 2.0 ** e)
_RANGE = "gamma must be finite and positive, in [p 2^-1022, 2^500]"


def _assert_finite_powers_or_range_error(code, err, report):
    if code == 0:
        assert err == "", err
        for result in json.loads(report)["results"]:
            assert all(math.isfinite(v) for v in result["mean_power_per_user"]), result
    else:
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err
        assert report is None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=campaign_docs(), gamma=_GAMMAS)
def test_any_gamma_gives_finite_powers_or_one_error_line(doc, gamma):
    doc["ensemble"]["gamma"] = gamma
    _assert_finite_powers_or_range_error(*_simulate(doc))


def _readme_campaign(gamma, n=2, p=3, levels=((0, 1), (0, 2))):
    return {"ensemble": {"n": n, "p": p, "gamma": gamma, "levels": [list(v) for v in levels],
                         "seed": 21},
            "H": [[1, 1], [1, 2]], "P": [1.0, 1.0], "A": [[1, 1], [1, 2]],
            "mode": "successive", "mapping": [[1, 1], [1, 2], [2, 2]],
            "noise_std": [0.5, 0.05], "trials": 50, "master_seed": 0}


# the README campaign, and a 2401-row table that the quantizer searches as
# an implicit tree
@pytest.mark.parametrize("shape", [{}, {"n": 6, "p": 7, "levels": ((0, 3), (1, 4))}],
                         ids=["readme", "tree"])
def test_gamma_range_ends(shape):
    p = shape.get("p", 3)
    low = p * 2.0 ** -1022
    for gamma in (low, GAMMA_MAX):
        code, err, report = _simulate(_readme_campaign(gamma, **shape))
        assert code == 0, err
        _assert_finite_powers_or_range_error(code, err, report)
    for gamma in (math.nextafter(low, 0.0), 5e-324, math.nextafter(GAMMA_MAX, math.inf),
                  1e160, 1e200, 1e300):
        code, err, report = _simulate(_readme_campaign(gamma, **shape))
        assert code == 2 and _RANGE in err and f"for p = {p}" in err, (gamma, err)
        assert err.count("\n") == 1 and report is None
