"""Random channel files through ``cfkit mac`` and ``cfkit search``: every run
ends in exit 0 with a silent stderr and the command's file in --out, or in
exit 2 with one ``error:`` line on stderr and no --out directory, and never
in a traceback.  A file whose H or P breaks the shape rule
(H a list of rows of numbers, P a list of numbers) exits 2 naming it."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfkit import intsearch  # noqa: E402
from cfkit.cli import main  # noqa: E402

def _magnitudes(low: int, high: int):
    """m * 10**e, m in [1, 10), evenly in the exponent e."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                     st.integers(low, high))


# Each channel draws its entries from ordinary magnitudes near 1, so that
# the run reaches the assignment tables, or from 1e-3 to about 1e200, so that
# overflowing and ill-conditioned channels are drawn.  A gain may be 0, and
# some channels get one zero-power user.
_SCALES = [_magnitudes(-1, 0), _magnitudes(-3, 199)]


@st.composite
def channel_docs(draw):
    users = draw(st.integers(1, 4))
    antennas = draw(st.integers(1, 3))
    scale = draw(st.sampled_from(_SCALES))
    gain = st.one_of(st.just(0.0), scale, scale.map(lambda x: -x))
    H = [[draw(gain) for _ in range(users)] for _ in range(antennas)]
    P = [draw(scale) for _ in range(users)]
    if draw(st.booleans()):
        P[draw(st.integers(0, users - 1))] = 0.0
    return {"H": H, "P": P}


def misshapen(value):
    """value as a scalar, a string or null, or with one axis fewer, one more
    or two more."""
    leaf = value[0][0] if isinstance(value[0], list) else value[0]
    return st.sampled_from([leaf, str(leaf), None, value[0], [value], [[value]]])


@st.composite
def misshapen_docs(draw):
    """(key, doc): a channel doc whose H or P, named by key, is misshapen."""
    doc = draw(channel_docs())
    key = draw(st.sampled_from(["H", "P"]))
    doc[key] = draw(misshapen(doc[key]))
    return key, doc


_FILES = {"mac": ["mac_assignments.json"], "search": ["search.json"]}


def _run(command: str, doc: dict) -> tuple[int, str]:
    """Exit code and stderr of the command on doc, run with an --out that
    does not exist yet, after checking that --out holds exactly the
    command's file after exit 0 and is absent after exit 2."""
    # A small node budget keeps each run short.  Searches past it end in the
    # node-budget input error, a one-line exit 2.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(intsearch, "MAX_SEARCH_NODES", 20_000):
        path, out = Path(tmp) / "channel.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--input", str(path), "--out", str(out)])
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == _FILES[command]
        else:
            assert not out.exists(), sorted(p.name for p in out.iterdir())
    return code, err.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["mac", "search"]), doc=channel_docs())
def test_channel_files_end_in_exit_0_or_one_error_line(command, doc):
    code, err = _run(command, doc)
    if code == 0:
        assert err == "", err
    else:
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["mac", "search"]), case=misshapen_docs())
def test_misshapen_channels_exit_2_naming_the_field(command, case):
    key, doc = case
    code, err = _run(command, doc)
    assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err
    assert f"field {key!r}" in err, err
