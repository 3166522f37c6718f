"""One integer rule for the library: every entry point that takes a
coefficient matrix, a mapping, an index or a symbol vector reads it through
cfkit._exact, so a fractional entry is refused, an integral float reads as
its int, and a tensor or an entry past int64 is refused where int64 is kept.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from cfkit import _exact, _zp, intsearch, lattice, mac_opt, regions, simulator
from cfkit.core import ChannelInstance
from cfkit.lattice import NestedLatticeEnsemble

CH = ChannelInstance(H=[[1.0, 0.5], [0.3, 1.2]], P=[2.0, 3.0])
A = [[1, 1], [1, 2]]
U = [[1, 0], [1, 1]]  # unimodular; lu_mapping gives ({(1, 1), (2, 2)}, (1, 2))
PAIRS = frozenset({(1, 1), (2, 2)})
ENS = lattice.build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=0)
POINTS = [lattice.label_inverse(ENS, w) for w in ([1, 2], [0, 1])]
G = ENS.G.tolist()


def _config(A):
    return simulator.TrialConfig(ensemble=ENS, ch=CH, A=A, mode="successive",
                                 mapping=PAIRS, noise_std=0.5)


# (name, call, argument, kind).  kind "int64": read by _exact.int_matrix,
# so past int64 is refused; "exact": read by _exact.int_rows, exact in any
# size; "index": a sequence of integers read one by one with _exact._as_int.
CASES = [
    ("intsearch.rowspan_contains_real-Atilde",
     lambda x: intsearch.rowspan_contains_real(x, [[2, 3]]), A, "int64"),
    ("intsearch.rowspan_contains_real-A",
     lambda x: intsearch.rowspan_contains_real(A, x), [[2, 3]], "int64"),
    ("intsearch.mod_p_solvability", lambda x: intsearch.mod_p_solvability(x, 1, 3), A, "int64"),
    ("intsearch.is_unimodular", intsearch.is_unimodular, U, "exact"),
    ("intsearch.primitivity", intsearch.primitivity, [[2, 4], [0, 0]], "int64"),
    ("intsearch.primitivize", intsearch.primitivize, [[2, 4], [0, 0]], "int64"),
    ("mac_opt.mac_mapping", mac_opt.mac_mapping, A, "int64"),
    ("mac_opt.mac_mapping-pivot_order", lambda x: mac_opt.mac_mapping(A, x), [1, 0], "index"),
    ("mac_opt.successive_mac_assignment",
     lambda x: mac_opt.successive_mac_assignment(CH, x, PAIRS, (1, 2)), U, "int64"),
    ("mac_opt.successive_mac_assignment-pi",
     lambda x: mac_opt.successive_mac_assignment(CH, U, PAIRS, x), (1, 2), "index"),
    ("mac_opt.successive_sum_identity",
     lambda x: mac_opt.successive_sum_identity(CH, x, (1, 2)), U, "int64"),
    ("mac_opt.successive_sum_identity-pi",
     lambda x: mac_opt.successive_sum_identity(CH, U, x), (1, 2), "index"),
    ("regions.mapping_pairs", lambda x: regions.mapping_pairs(x, 2, 2), PAIRS, "index"),
    ("regions.participation_mapping", regions.participation_mapping, A, "int64"),
    ("regions.is_admissible", lambda x: regions.is_admissible(x, PAIRS), U, "exact"),
    ("regions.lu_mappings_all", regions.lu_mappings_all, A, "int64"),
    ("regions.row_variances", lambda x: regions.row_variances(CH, x, True), A, "int64"),
    ("regions.para_region", lambda x: regions.para_region(CH, x), A, "int64"),
    ("regions.succ_region", lambda x: regions.succ_region(CH, x, PAIRS), U, "int64"),
    ("regions.asc_region", lambda x: regions.asc_region(CH, x, PAIRS), U, "int64"),
    ("regions.membership", lambda x: regions.membership(CH, x, [0, 0]), A, "int64"),
    ("regions.sic_rates", lambda x: regions.sic_rates(CH, x), [2, 1], "index"),
    ("simulator.TrialConfig", lambda x: _config(x).cancellation, U, "int64"),
    ("simulator.parallel_equalizers",
     lambda x: simulator.parallel_equalizers(CH, x, (0.5,)), A, "int64"),
    ("simulator.successive_equalizers",
     lambda x: simulator.successive_equalizers(CH, x, (0.5,)), A, "int64"),
    ("simulator.zp_asc_matrix", lambda x: simulator.zp_asc_matrix(x, PAIRS, 3), U, "int64"),
    ("simulator.true_combinations",
     lambda x: simulator.true_combinations(ENS, x, POINTS), A, "int64"),
    ("simulator.recover_real_combo",
     lambda x: simulator.recover_real_combo(ENS, POINTS[0], POINTS[1], POINTS, x),
     [1, 2], "int64"),
    ("simulator.encode-message",
     lambda x: simulator.encode(ENS, 2, x, np.zeros(3)), [2], "int64"),
    ("lattice.label_inverse", lambda x: lattice.label_inverse(ENS, x), [1, 2], "int64"),
    ("lattice.label_add-labels", lambda x: lattice.label_add(ENS, x, [1, 2]),
     [[1, 2], [0, 1]], "int64"),
    ("lattice.label_add-coeffs", lambda x: lattice.label_add(ENS, [[1, 2], [0, 1]], x),
     [1, 2], "int64"),
    ("lattice.coset_contains-candidate",
     lambda x: lattice.coset_contains(ENS, 2, x, [2]), [0, 2], "int64"),
    ("lattice.coset_contains-message",
     lambda x: lattice.coset_contains(ENS, 2, [0, 2], x), [2], "int64"),
    ("lattice.zero_padded_label", lambda x: lattice.zero_padded_label(ENS, 2, x), [2], "int64"),
    ("lattice.NestedLatticeEnsemble-G",
     lambda x: NestedLatticeEnsemble(n=3, p=3, gamma=3.0, levels=ENS.levels, G=x).G, G, "int64"),
    ("lattice.NestedLatticeEnsemble-levels",
     lambda x: NestedLatticeEnsemble(n=3, p=3, gamma=3.0, levels=x, G=G).levels,
     [[0, 1], [1, 2]], "exact"),
    ("lattice.build_ensemble-G",
     lambda x: lattice.build_ensemble(3, 3, 3.0, ENS.levels, seed=0, G=x).G, G, "int64"),
    ("lattice.build_ensemble-levels",
     lambda x: lattice.build_ensemble(3, 3, 3.0, x, seed=0).G, [[0, 1], [1, 2]], "exact"),
    ("zp.reduce_mod", lambda x: _zp.reduce_mod(x, 3), A, "exact"),
    ("zp.solve_mod_p-A", lambda x: _zp.solve_mod_p(x, [1, 2], 3), A, "exact"),
    ("zp.solve_mod_p-b", lambda x: _zp.solve_mod_p(A, x, 3), [1, 2], "exact"),
    ("zp.in_rowspan_mod_p", lambda x: _zp.in_rowspan_mod_p(A, x, 3), [[2, 3]], "exact"),
    ("exact.int_det-1d", _exact.int_det, [5], "exact"),
    ("exact.int_rank-1d", _exact.int_rank, [3, 4], "exact"),
]
IDS = [c[0] for c in CASES]


def _first_leaf(x, f):
    """x with f applied to its first number (a set's least element)."""
    if isinstance(x, (set, frozenset)):
        first, *rest = sorted(x)
        return type(x)([_first_leaf(first, f), *rest])
    if isinstance(x, (list, tuple)):
        return type(x)([_first_leaf(x[0], f), *x[1:]])
    return f(x)


def _floats(x):
    if isinstance(x, (set, frozenset, list, tuple)):
        return type(x)(_floats(v) for v in x)
    return float(x)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name, call, arg, kind", CASES, ids=IDS)
def test_fractional_entry_refused(name, call, arg, kind):
    with pytest.raises(ValueError, match="must be integers"):
        call(_first_leaf(arg, lambda v: v + 0.5))


@pytest.mark.parametrize("name, call, arg, kind", CASES, ids=IDS)
def test_integral_float_reads_as_its_int(name, call, arg, kind):
    assert _same(call(_floats(arg)), call(arg))


@pytest.mark.parametrize("name, call, arg, kind",
                         [c for c in CASES if c[3] != "index"],
                         ids=[c[0] for c in CASES if c[3] != "index"])
def test_tensor_refused(name, call, arg, kind):
    with pytest.raises(ValueError):
        call(np.reshape(arg, (1,) * (3 - np.ndim(arg)) + np.shape(arg)).tolist())


@pytest.mark.parametrize("name, call, arg, kind",
                         [c for c in CASES if c[3] == "int64"],
                         ids=[c[0] for c in CASES if c[3] == "int64"])
def test_entry_past_int64_refused(name, call, arg, kind):
    with pytest.raises(ValueError):
        call(_first_leaf(arg, lambda v: 2 ** 70))


def test_one_dimensional_input_is_one_row():
    assert _exact.int_rows([1.0, 2]) == [[1, 2]] and _exact.int_rows([]) == []
    with pytest.raises(ValueError, match="square"):
        _exact.int_det([1, 2])


def test_int64_array_passes_through():
    arr = np.array(A, dtype=np.int64)
    assert _exact.int_matrix(arr) is arr
    assert _exact.int_matrix(arr[0]).base is arr


_CASTS = [re.compile(r"asarray\(.*dtype=(int|np\.int64)\b"),
          re.compile(r"map\(int,"),
          re.compile(r"\(int\(m\), int\(l\)\)"),
          re.compile(r"int\(v\) % p")]


def test_integer_casts_only_in_exact():
    src = Path(__file__).resolve().parent.parent / "src" / "cfkit"
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "_exact.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if any(p.search(line) for p in _CASTS)]
    assert not found, "integer input is read by cfkit._exact:\n" + "\n".join(found)
