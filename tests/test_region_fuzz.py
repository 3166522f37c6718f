"""Random input files through ``cfkit region``: every run ends in exit 0 with
a silent stderr, or in exit 2 with one ``error:`` line on stderr and no file
written, and never in a traceback.  The coefficient matrices may be ragged,
non-square, of the wrong width or not integral, and the mappings may name
rows and users the matrix does not have: a file written for such a mapping
names only pairs inside the matrix.  Compound runs draw receivers whose
gains may span six decades.  A file whose H, P or compound receiver breaks
the shape rule exits 2 naming the field."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cfkit.cli import main  # noqa: E402
from test_cli_fuzz import misshapen  # noqa: E402

_GAINS = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                   st.floats(-4.0, 4.0, allow_nan=False))
_BAD_ENTRIES = st.sampled_from([0.5, 2 ** 70, float("inf"), "1", None, [1]])
_SHAPES = ["square", "short", "tall", "ragged", "wide", "entry"]
# an admissible mapping plus pairs naming no row or no user of A
_JUNK_PAIRS = {"H": [[1, 0.7], [0.2, 1.3]], "P": [2, 3], "A": [[1, 1], [0, 1]],
               "mapping": [[1, 1], [1, 2], [2, 2], [1, 5], [0, 0], [-3, 9]]}


@st.composite
def coefficient_matrices(draw, users: int):
    """A users x users integer matrix, or one with a row fewer or more, a
    ragged last row, a column too many, or one bad entry."""
    shape = draw(st.sampled_from(_SHAPES))
    rows = {"short": max(1, users - 1), "tall": users + 1}.get(shape, users)
    width = users + 1 if shape == "wide" else users
    small = st.integers(-3, 3)
    A = [[draw(small) for _ in range(width)] for _ in range(rows)]
    if shape == "ragged":
        A[-1].append(draw(small))
    elif shape == "entry":
        A[draw(st.integers(0, rows - 1))][draw(st.integers(0, width - 1))] = \
            draw(_BAD_ENTRIES)
    return A


@st.composite
def region_docs(draw):
    users = draw(st.sampled_from([2, 3, 1]))
    antennas = draw(st.integers(1, 2))
    doc = {"H": [[draw(_GAINS) for _ in range(users)] for _ in range(antennas)],
           "P": [draw(st.sampled_from([0.5, 1.0, 4.0, 16.0])) for _ in range(users)],
           "A": draw(coefficient_matrices(users))}
    if draw(st.booleans()):
        index = st.integers(0, users + 2)
        doc["mapping"] = draw(st.lists(st.lists(index, min_size=2, max_size=2),
                                       max_size=2 * users + 2))
    return doc


# m * 10**e, m in [1, 10): gains from 1e-3 to about 1e3
_WIDE = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-3, 2))


@st.composite
def compound_docs(draw):
    """1 to 3 receivers of two users with 1 or 2 antennas each; a receiver
    draws its gains near 1 or across six decades."""
    def receiver():
        gain = draw(st.sampled_from([_GAINS, _WIDE]))
        return [[draw(gain) for _ in range(2)] for _ in range(draw(st.integers(1, 2)))]
    return {"H": [receiver() for _ in range(draw(st.integers(1, 3)))],
            "P": [draw(st.sampled_from([0.1, 0.5, 1.0, 4.0])) for _ in range(2)]}


@st.composite
def misshapen_docs(draw):
    """(mode, key, doc): a region doc whose H or P, named by key, is
    misshapen; in compound mode, one receiver of H or P is."""
    mode = draw(st.sampled_from(["para", "succ", "asc", "mac", "sic", "compound"]))
    doc = draw(compound_docs() if mode == "compound" else region_docs())
    key = draw(st.sampled_from(["H", "P"]))
    if mode == "compound" and key == "H":
        receiver = draw(st.integers(0, len(doc["H"]) - 1))
        doc["H"][receiver] = draw(misshapen(doc["H"][receiver]))
    else:
        doc[key] = draw(misshapen(doc[key]))
    return mode, key, doc


def _run_region(mode: str, doc: dict) -> tuple[int, dict, str]:
    """Run ``cfkit region`` on doc; return the exit code, the written files
    (name -> text) and stderr, after checking that the run ended in exit 0
    with a silent stderr or in exit 2 with one ``error:`` line and no file
    written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "region.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["region", "--mode", mode, "--input", str(path), "--out", tmp])
        written = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir()) if p != path}
    err = err.getvalue()
    if code == 0:
        assert err == "", err
    else:
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err
        assert not written, sorted(written)
    return code, written, err


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(["para", "succ", "asc", "mac", "sic"]), doc=region_docs())
@example(mode="succ", doc=_JUNK_PAIRS)
@example(mode="asc", doc=_JUNK_PAIRS)
def test_region_files_end_in_exit_0_or_one_error_line(mode, doc):
    _, written, _ = _run_region(mode, doc)
    if mode in ("succ", "asc") and written:
        box = json.loads(written[f"region_{mode}.json"])["boxes"][0]["provenance"]
        M, L = len(box["Atilde"]), len(box["Atilde"][0])
        assert all(1 <= m <= M and 1 <= l <= L for m, l in box["mapping"]), box["mapping"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=compound_docs())
def test_compound_files_end_in_exit_0_or_one_error_line(doc):
    _run_region("compound", doc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=misshapen_docs())
def test_misshapen_channels_exit_2_naming_the_field(case):
    mode, key, doc = case
    code, _, err = _run_region(mode, doc)
    assert code == 2 and f"field {key!r}" in err, err


@pytest.mark.parametrize("mode", ["para", "succ", "asc"])
@pytest.mark.parametrize("doc, code", [
    ({"H": [[0, 0]], "P": [1, 1], "A": [[0], [0, 0]]}, 2),   # ragged rows
    ({"H": [[1, 2]], "P": [1, 1], "A": [[1, 0]]}, 0),        # fewer rows than users
    ({"H": [[1]], "P": [1], "A": [[1], [1]]}, 0),            # more rows than users
], ids=["ragged", "short", "tall"])
def test_inputs_that_raised_before(mode, doc, code):
    got, written, _ = _run_region(mode, doc)
    assert got == code and (f"region_{mode}.json" in written) == (code == 0)
