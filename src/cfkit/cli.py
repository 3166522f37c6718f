"""Command-line front door.

Subcommands: region (rate-region boxes/boundaries), search (integer
coefficient search), mac (multiple-access assignment tables), simulate
(Monte-Carlo campaigns), verify (identity and lattice self-checks).

Exit codes: 0 success, 1 verification failure, 2 input error.  Computed
values print with six decimal places, except report.json's rate_estimate,
ci_low, ci_high and mean_power_per_user and compound_points.json's numbers,
which print floats in full; runs with identical inputs and seeds produce
byte-identical files.  CFKIT_OUTDIR sets the default output directory.

main is the one place that turns an exception into exit 2 with a single
"error: <message>" line on stderr.  It catches InputError (raised here with
a message of its own), ValueError (numpy's LinAlgError and undecodable input
among them), ArithmeticError, RuntimeError (searches that exhaust their box
or node budget) and OSError (unreadable input, unwritable --out).  Any other
exception is a fault of the program and ends in a traceback.

Every JSON field is read by _array, through _field where the field may be
missing: one shape-and-number rule turns a value into a nonempty array with
an exact number of axes (a number for a scalar field), whose leaves are JSON
numbers, and whose integer fields are read exactly.  A value it refuses
ends in one InputError line that names the field.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import intsearch, lattice, mac_opt, regions, simulator
from .core import (UNBOUNDED, ChannelInstance, chained_variances, effective_matrix,
                   lattice_gram, rounded, sigma_para_opt, sum_capacity)


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except ValueError as exc:  # bad JSON syntax, or bytes that are not UTF-8
        raise InputError(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object")
    return doc


def _array(value, key: str, what: str, shape: tuple = (), integer: bool = False,
           lo=None, hi=None, section: str | None = None, name: str | None = None):
    """value read by the one rule every field follows: a nonempty array with
    len(shape) axes, or a number when shape is (); else InputError naming key.

    Each axis is a nonempty list, of one length at its depth, which is
    shape's entry there unless that is None.  The leaves are JSON numbers:
    true, false, strings, nulls and lists are not.  An integer field takes
    integral floats, keeps its integers exact, needs lo <= v < hi, and as
    an array is int64, so its entries lie in [-2^63, 2^63).  A field of an
    object such as "ensemble" names the object as section; name replaces
    "field 'key'" in a message that keeps its own wording.
    """
    items, dims = [value], []
    for size in shape:  # one depth at a time, so each list is visited once
        n = len(items[0]) if type(items[0]) is list else 0
        if not n or size not in (None, n) or any(type(x) is not list or len(x) != n
                                                 for x in items):
            items = [[]]  # fails as a leaf that is not a number
            break
        dims.append(n)
        items = [v for x in items for v in x]
    kinds = set(map(type, items))
    if kinds <= {int, float}:
        try:
            if not integer:
                return np.array(items, dtype=float).reshape(dims) if shape else float(items[0])
            items = [int(v) if type(v) is float and v.is_integer() else v for v in items]
            if all(type(v) is int for v in items) and (lo is None or min(items) >= lo) \
                    and (hi is None or max(items) < hi):
                return np.array(items, dtype=np.int64).reshape(dims) if shape else items[0]
        except OverflowError:  # an int past the float range, or an entry past int64
            pass
    lead = f"bad {section}: " if section else ""
    if bool in kinds:
        lead += ("a field" if section else f"bad numeric field: {key!r}") + \
            " holds true or false; "
    got = "" if type(value) is list else f", got {value!r}"
    raise InputError(f"{lead}{name or f'field {key!r}'} must be {what}{got}")


def _field(doc: dict, key: str, what: str, shape: tuple = (), **rule):
    """doc[key] read by _array; an absent or null key is a missing field."""
    value = doc.get(key)
    if value is None:
        section = rule.get("section")
        raise InputError(f"{f'bad {section}: ' if section else ''}missing field {key!r}")
    return _array(value, key, what, shape, **rule)


_COEFFS = "an integer matrix, given as a list of rows, with entries in [-2^63, 2^63)"


def _channel(H, P) -> ChannelInstance:
    ch = ChannelInstance(H=H, P=P)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = (np.all(np.isfinite(ch.H @ ch.P_matrix() @ ch.H.T))
                  and np.all(np.isfinite(ch.H.T @ ch.H)))
    if not finite:
        raise InputError("channel overflows: I + H P H^T or H^T H is not finite")
    return ch


def _channel_from(doc: dict) -> ChannelInstance:
    return _channel(_field(doc, "H", "a matrix of numbers, given as a list of rows", (None, None)),
                    _field(doc, "P", "a list of numbers", (None,)))


def _mapping_from(doc: dict):
    if doc.get("mapping") is None:
        return None
    pairs = _field(doc, "mapping", "a list of [m, l] pairs", (None, 2), integer=True)
    return frozenset(map(tuple, pairs.tolist()))


def _outdir(args) -> Path:
    out = args.out or os.environ.get("CFKIT_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str):
    path.write_text(text)
    print(f"wrote {path}")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


_LEAF = "\x00"  # a skeleton's placeholder leaf, which json writes as "\u0000"

# json.dumps(leaves, default=float) for a list, with "\n" between the items:
# no indent, so the C encoder runs, and an encoded leaf never holds a raw
# newline
_encode_leaves = json.JSONEncoder(separators=("\n", ":"), default=float).encode


def _template(skeleton) -> list:
    """json.dumps(skeleton, sort_keys=True, indent=2) + "\n" cut at each
    _LEAF: the text between the leaves, one piece more than leaves."""
    return (json.dumps(skeleton, sort_keys=True, indent=2) + "\n").split(json.dumps(_LEAF))


def _render(pieces: list, leaves: list) -> str:
    """The pieces with the leaves between them, each as json.dumps writes
    it; the leaves come in the pieces' order."""
    text = [None] * (2 * len(pieces) - 1)
    text[::2] = pieces
    text[1::2] = _encode_leaves(leaves)[1:-1].split("\n")
    return "".join(text)


@functools.cache
def _search_template(M: int, L: int) -> list:
    """search.json's pieces; the leaves come in sorted-key order."""
    row = {"row": [_LEAF] * L, "sigma2_parallel": _LEAF, "sigma2_successive": _LEAF}
    return _template({"A_star": [[_LEAF] * L] * M, "entry_bound": _LEAF,
                      "max_abs_entry": _LEAF, "norms_squared": [_LEAF] * M,
                      "rows": [row] * M})


def _search_json(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\n" for search.json."""
    A = payload["A_star"]
    leaves = [v for row in A for v in row]
    leaves += [payload["entry_bound"], payload["max_abs_entry"], *payload["norms_squared"]]
    for r in payload["rows"]:
        leaves += [*r["row"], r["sigma2_parallel"], r["sigma2_successive"]]
    return _render(_search_template(len(A), len(A[0])), leaves)


@functools.cache
def _mac_template(L: int) -> tuple[list, list, str]:
    """(none, one, between) for an L-user mac_assignments.json: the pieces
    of the file with no assignment and with one, and the text from one
    assignment's last leaf to the next one's first.  With W = len(one) - 2
    leaves per assignment, the file of K >= 1 assignments has the pieces
    one[:W] + ([between] + one[1:W]) * (K - 1) + one[W:]."""
    entry = {"A": [[_LEAF] * L] * L, "gap": _LEAF, "pi": [_LEAF] * L,
             "rates": [_LEAF] * L, "strategy": _LEAF, "sum_rate": _LEAF}
    none, one, two = (_template({"assignments": [entry] * K, "sum_capacity": _LEAF})
                      for K in range(3))
    return none, one, two[len(one) - 2]


def _mac_json(payload: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n" for
    mac_assignments.json, where doc = {"assignments": [...], "sum_capacity":
    payload["sum_capacity"]} and assignment k has the k-th entry of each of
    the payload's columns "strategy", "A", "pi", "rates", "sum_rate" and
    "gap" (lists: K strings, K L x L matrices, K and K rows of L, K and K
    numbers).  One encoder call writes the leaves."""
    K = len(payload["strategy"])
    none, one, between = _mac_template(len(payload["pi"][0]) if K else 0)
    W = len(one) - 2
    leaves = []
    for A, gap, pi, rates, strategy, total in zip(
            payload["A"], payload["gap"], payload["pi"], payload["rates"],
            payload["strategy"], payload["sum_rate"]):
        leaves += itertools.chain.from_iterable(A)
        leaves += (gap, *pi, *rates, strategy, total)
    leaves.append(payload["sum_capacity"])
    pieces = one[:W] + ([between] + one[1:W]) * (K - 1) + one[W:] if K else none
    return _render(pieces, leaves)


_COMBINATION = {"ci_high": _LEAF, "ci_low": _LEAF, "combination_index": _LEAF, "errors": _LEAF,
                "rate_estimate": _LEAF, "trials": _LEAF}


@functools.cache
def _report_template(mode: str, M: int, L: int, C: int) -> list:
    """report.json's pieces for a campaign of an M x L matrix A at C noise
    levels; the leaves come in sorted-key order."""
    combination = dict(_COMBINATION, **({"real_errors": _LEAF} if mode == "successive" else {}))
    result = {"combinations": [combination] * M, "mean_power_per_user": [_LEAF] * L,
              "noise_std": _LEAF, "trials": _LEAF}
    return _template({"config": {"A": [[_LEAF] * L] * M, "master_seed": _LEAF, "mode": _LEAF,
                                 "noise_std": [_LEAF] * C, "trials": _LEAF},
                      "results": [result] * C})


def _report_json(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n"
    for report.json: payload["config"] holds the campaign's mode, trials,
    master_seed, noise_std (C levels) and A (M rows of L), and
    payload["results"] its C reports (simulator.run_campaign), each of M
    combinations, with real_errors in successive mode, and L powers."""
    config, results = payload["config"], payload["results"]
    A, mode = config["A"], config["mode"]
    real = mode == "successive"
    leaves = [v for row in A for v in row]
    leaves += [config["master_seed"], mode, *config["noise_std"], config["trials"]]
    for result in results:
        for c in result["combinations"]:
            leaves += (c["ci_high"], c["ci_low"], c["combination_index"], c["errors"],
                       c["rate_estimate"])
            if real:
                leaves.append(c["real_errors"])
            leaves.append(c["trials"])
        leaves += (*result["mean_power_per_user"], result["noise_std"], result["trials"])
    return _render(_report_template(mode, len(A), len(A[0]), len(results)), leaves)


def _sic_spec(ch: ChannelInstance) -> regions.RateRegionSpec:
    boxes = [regions.Box(caps=regions.sic_rates(ch, order),
                         provenance={"sic_order": list(order)})
             for order in itertools.permutations(range(1, ch.num_users + 1))]
    return regions.RateRegionSpec(L=ch.num_users, boxes=boxes)


def _succ_mac_spec(ch: ChannelInstance, sic: regions.RateRegionSpec) -> regions.RateRegionSpec:
    """Successive-computation region for recovering all messages: the boxes
    of sic (the channel's _sic_spec) plus every valid sum-capacity
    assignment of the dominant solution."""
    boxes = list(sic.boxes)
    for asg in mac_opt.successive_mac_assignments(ch):
        boxes.append(regions.Box(caps=asg.rates,
                                 provenance={"A": asg.A.tolist(), "pi": list(asg.pi)}))
    return regions.RateRegionSpec(L=ch.num_users, boxes=boxes)


def cmd_region(args) -> int:
    doc = _load_json(args.input)
    out = _outdir(args)
    mode = args.mode
    if mode == "compound":
        return _cmd_region_compound(doc, out)
    ch = _channel_from(doc)
    if mode in ("para", "succ", "asc"):
        key = "A" if doc.get("Atilde") is None else "Atilde"
        A = _field(doc, key, _COEFFS, (None, None), integer=True)
        if A.shape[1] != ch.num_users:
            raise InputError(f"coefficient matrix has {A.shape[1]} columns "
                             f"for {ch.num_users} users")
    if mode == "para":
        spec = regions.para_region(ch, A)
    elif mode in ("succ", "asc"):
        mapping = _mapping_from(doc)
        if mapping is None:  # every row serves every user
            mapping = frozenset(itertools.product(range(1, A.shape[0] + 1),
                                                  range(1, ch.num_users + 1)))
        fn = regions.succ_region if mode == "succ" else regions.asc_region
        spec = fn(ch, A, mapping)
    elif mode == "mac":
        spec = regions.mac_region(ch)
    else:
        spec = _sic_spec(ch)
    files = {f"region_{mode}.json": regions.spec_to_json(spec)}
    if ch.num_users == 2 and not any(UNBOUNDED in b.caps for b in spec.boxes):
        verts = regions.region_2d([spec], "intersect")
        files[f"region_{mode}_boundary.csv"] = regions.boundary_to_csv(verts)
    for name, text in files.items():
        _write(out / name, text)
    return 0


def _cmd_region_compound(doc: dict, out: Path) -> int:
    P = _field(doc, "P", "a list of numbers", (None,))
    receivers, what = doc.get("H"), "a list of matrices, one per receiver"
    if type(receivers) is not list or not receivers:
        raise InputError("missing field 'H'" if receivers is None else f"field 'H' must be {what}")
    channels = [_channel(_array(H, "H", what, (None, None)), P) for H in receivers]
    if any(ch.num_users != 2 for ch in channels):
        raise InputError("compound mode supports exactly two users")
    for name, text in _compound_files(channels).items():
        _write(out / name, text)
    return 0


def _compound_files(channels) -> dict:
    """File name -> text of every compound-mode output, in writing order."""
    panels = {}
    points = {}
    macs, sics, succs = [], [], []
    for i, ch in enumerate(channels, start=1):
        mac = regions.mac_region(ch)
        sic = _sic_spec(ch)
        succ = _succ_mac_spec(ch, sic)
        macs.append(mac)
        sics.append(sic)
        succs.append(succ)
        panels[f"rx{i}_mac"] = [mac]
        panels[f"rx{i}_sic"] = [sic]
        panels[f"rx{i}_succ"] = [succ]
        points[f"rx{i}"] = {
            "sic_corners": [list(b.caps) for b in sic.boxes],
            "succ_points": [list(b.caps) for b in succ.boxes],
        }
    panels["intersection_mac"] = macs
    panels["intersection_sic"] = sics
    panels["intersection_succ"] = succs
    files = {}
    for name, specs in panels.items():
        verts = regions.region_2d(specs, "intersect")
        files[f"compound_{name}.csv"] = regions.boundary_to_csv(verts)
    for name, specs in (("hull_sic", sics), ("hull_succ", succs)):
        verts = regions.region_2d(specs, "hull")
        files[f"compound_{name}.csv"] = regions.boundary_to_csv(verts)
    files["compound_points.json"] = json.dumps(points, sort_keys=True, indent=2,
                                               default=float) + "\n"
    return files


def cmd_search(args) -> int:
    doc = _load_json(args.input)
    ch = _channel_from(doc)
    out = _outdir(args)
    box = {}  # dominant_solution's own max_radius under --bound auto
    if args.bound != "auto":
        try:
            box["max_radius"] = int(args.bound)
        except ValueError:
            raise InputError("--bound must be 'auto' or an integer")
        if box["max_radius"] <= 0:
            raise InputError("empty search box: bound must be positive")
    bound_val = intsearch.entry_bound(ch)
    dom = intsearch.dominant_solution(effective_matrix(ch), **box)
    # the rows of A_star are exactly independent
    chained = chained_variances(ch, dom.A_star).tolist()
    unchained = regions.row_variances(ch, dom.A_star, chained=False)
    rows = [{"row": [int(v) for v in row],
             "sigma2_parallel": round(para, 6),
             "sigma2_successive": round(succ, 6)}
            for row, para, succ in zip(dom.A_star, unchained, chained)]
    payload = {"entry_bound": round(bound_val, 6),
               "max_abs_entry": int(np.floor(np.sqrt(bound_val))),
               "A_star": dom.A_star.tolist(),
               "norms_squared": [round(float(v) ** 2, 6) for v in dom.norms],
               "rows": rows}
    _write(out / "search.json", _search_json(payload))
    print(f"dominant solution: {dom.A_star.tolist()}")
    return 0


def _mac_payload(ch: ChannelInstance) -> dict:
    """The content of `cfkit mac`'s mac_assignments.json for the channel, as
    _mac_json's columns: the parallel then the successive table's rows,
    each field a list from one tolist().  Every printed value, the rates,
    sums, gaps and sum capacity, is round(v, 6), taken in one core.rounded
    call."""
    cap = sum_capacity(ch)
    parallel, successive = mac_opt._parallel_table(ch), mac_opt._successive_table(ch)
    sums = np.concatenate([parallel.sums, successive.sums])
    K, L = len(sums), ch.num_users
    values = rounded(np.concatenate([parallel.rates.ravel(), successive.rates.ravel(), sums,
                                     cap - sums, [cap]]), 6)
    totals = values[K * L:].tolist()
    return {"strategy": ["parallel"] * len(parallel.sums) + ["successive"] * len(successive.sums),
            "A": np.array(parallel.matrices + successive.matrices).tolist(),
            "pi": [*parallel.steps.tolist(), *successive.steps.tolist()],
            "rates": values[:K * L].reshape(K, L).tolist(),
            "sum_rate": totals[:K], "gap": totals[K:-1], "sum_capacity": totals[-1]}


def cmd_mac(args) -> int:
    doc = _load_json(args.input)
    ch = _channel_from(doc)
    out = _outdir(args)
    payload = _mac_payload(ch)
    _write(out / "mac_assignments.json", _mac_json(payload))
    # each value as _fmt writes it: "%.6f" % x == f"{x:.6f}"
    strategy = payload["strategy"]
    rate_fmt = " ".join(["%.6f"] * ch.num_users)
    rate_text = ("\n".join([rate_fmt] * len(strategy))
                 % tuple(itertools.chain.from_iterable(payload["rates"]))).split("\n")
    rows = "\n%-11s %-30s %9.6f %9.6f" * len(strategy) % tuple(itertools.chain.from_iterable(
        zip(strategy, rate_text, payload["sum_rate"], payload["gap"])))
    print(f"{'strategy':<11} {'rates':<30} {'sum':>9} {'gap':>9}" + rows)
    return 0


def _ensemble_from(doc: dict) -> lattice.NestedLatticeEnsemble:
    e = doc.get("ensemble")
    if type(e) is not dict:
        raise InputError("missing field 'ensemble'" if e is None
                         else "field 'ensemble' must be an object")

    def read(key, what, shape=(), integer=True, **rule):
        return _field(e, key, what, shape, integer=integer, section="ensemble config", **rule)

    n = read("n", f"an integer in [1, {lattice.MAX_N}]", lo=1, hi=lattice.MAX_N + 1)
    p = read("p", f"an integer in [2, {lattice.MAX_P}]", lo=2, hi=lattice.MAX_P + 1)
    gamma = read("gamma", "a number", integer=False)
    levels = read("levels", "a list of [k_C, k_F] pairs", (None, 2)).tolist()
    if e.get("G") is None:
        return lattice.build_ensemble(n, p, gamma, levels,
                                      seed=read("seed", "an integer >= 0", lo=0))
    kf = max(b for _, b in levels)
    G = read("G", f"a list of k_F * n = {kf * n} integers", (kf * n,))
    return lattice.build_ensemble(n, p, gamma, levels, seed=0, G=G.reshape(kf, n))


def _equalizers_from(doc: dict, ch: ChannelInstance, A, mode: str):
    """The optional "equalizers" field: "optimal", or a list with one entry
    per row of A, each b (parallel) or [b, c] (successive), where b holds
    one finite weight per antenna and c finite weights on the real
    combinations decoded before that row; c may be empty."""
    eq = doc.get("equalizers")
    if eq is None or eq == "optimal":
        return "optimal"
    entry = "[b, c] pair" if mode == "successive" else "vector b"
    what = (f"\"optimal\" or a list of {A.shape[0]} entries, one {entry} per row of A, "
            f"with {ch.num_antennas} finite weights in b")
    problem = InputError(f"field 'equalizers' must be {what}")
    if type(eq) is not list or len(eq) != A.shape[0]:
        raise problem
    out = []
    for row in eq:
        if mode == "successive" and (type(row) is not list or len(row) != 2):
            raise problem
        b, c = row if mode == "successive" else (row, [])
        b = _array(b, "equalizers", what, (ch.num_antennas,))
        c = _array(c, "equalizers", what, (None,)) if c != [] else np.zeros(0)
        if not (np.isfinite(b).all() and np.isfinite(c).all()):
            raise problem
        out.append((b, c) if mode == "successive" else b)
    return out


def _campaign_from(doc: dict) -> tuple[dict, int]:
    """A simulate config's simulator.TrialConfig fields and trial count."""
    ens = _ensemble_from(doc)
    ch = _channel_from(doc)
    A = _field(doc, "A", _COEFFS, (None, None), integer=True)
    mode = doc.get("mode")
    if mode not in ("parallel", "successive"):
        raise InputError("field 'mode' must be 'parallel' or 'successive'")
    mapping = _mapping_from(doc)
    equalizers = _equalizers_from(doc, ch, A, mode)
    levels = doc.get("noise_std")
    noise = _field(doc, "noise_std", "a number or a non-empty list of numbers",
                   (None,) if type(levels) is list else ())
    noise_list = noise.tolist() if type(levels) is list else [noise]
    trials = _field(doc, "trials", "an integer >= 1", integer=True, lo=1, name="trials")
    master_seed = _field(doc, "master_seed", "an integer in [0, 2**64)", integer=True,
                         lo=0, hi=2 ** 64)
    return dict(ensemble=ens, ch=ch, A=A, mode=mode, mapping=mapping, noise_std=noise_list,
                equalizers=equalizers, master_seed=master_seed), trials


def _report_files(config: simulator.TrialConfig, trials: int, results: list) -> dict:
    """File name -> text of a campaign's outputs, report.json then
    report.csv, from its run_campaign reports."""
    levels = list(config.levels)
    csv_lines = ["noise_std,combination_index,errors,trials,rate_estimate,ci_low,ci_high"]
    for ns, rep in zip(levels, results):
        for combo in rep["combinations"]:
            csv_lines.append(
                f"{_fmt(ns)},{combo['combination_index']},{combo['errors']},"
                f"{combo['trials']},{_fmt(combo['rate_estimate'])},"
                f"{_fmt(combo['ci_low'])},{_fmt(combo['ci_high'])}")
    payload = {"config": {"mode": config.mode, "trials": trials,
                          "master_seed": config.master_seed, "noise_std": levels,
                          "A": config.A.tolist()},
               "results": results}
    return {"report.json": _report_json(payload), "report.csv": "\n".join(csv_lines) + "\n"}


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    out = _outdir(args)
    fields, trials = _campaign_from(doc)
    config = simulator.TrialConfig(**fields)
    results = simulator.run_campaign(config, trials)
    for name, text in _report_files(config, trials, results).items():
        _write(out / name, text)
    total_errors = sum(c["errors"] for r in results for c in r["combinations"])
    print(f"total errors: {total_errors}")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

VERIFY_REPS = 100  # random instances per identity check (some take a share)
VERIFY_MAX_ANTENNAS = 2  # receive antennas of a verify channel: 1 or 2


def _random_channel(rng, L=None):
    L = L or int(rng.integers(2, 4))
    nr = int(rng.integers(1, VERIFY_MAX_ANTENNAS + 1))
    H = rng.normal(size=(nr, L)) * 2.0
    P = rng.uniform(0.5, 8.0, size=L)
    return ChannelInstance(H=H, P=P)


def _run_checks(checks) -> list:
    """(name, None) for each (name, fn) whose fn returns, (name, message)
    for each whose fn fails an assertion; run in order."""
    out = []
    for name, fn in checks:
        try:
            fn()
            out.append((name, None))
        except AssertionError as exc:
            out.append((name, str(exc) or "assertion failed"))
    return out


def _verify_identities(seed: int):
    rng = np.random.default_rng(seed)

    def woodbury():
        for _ in range(VERIFY_REPS):
            ch = _random_channel(rng)
            gram = lattice_gram(ch)
            P = ch.P_matrix()
            G = np.eye(ch.num_antennas) + ch.H @ P @ ch.H.T
            alt = P - P @ ch.H.T @ np.linalg.solve(G, ch.H @ P)
            assert np.max(np.abs(gram - alt)) <= 1e-10 * max(1.0, np.max(np.abs(gram))), \
                "matrix-inversion identity violated beyond 1e-10"

    def factor_invariance():
        for _ in range(VERIFY_REPS // 4):
            ch = _random_channel(rng)
            gram = lattice_gram(ch)
            w, V = np.linalg.eigh(gram)
            F2 = (V * np.sqrt(w)) @ V.T  # symmetric square root, another factor
            a = rng.integers(-3, 4, size=ch.num_users)
            v1 = sigma_para_opt(ch, a).variance
            v2 = float(np.sum((F2 @ a) ** 2))
            assert abs(v1 - v2) <= 1e-9 * max(1.0, v1), \
                "variance depends on the factor choice"

    def unimodular_sum():
        for _ in range(VERIFY_REPS):
            L = int(rng.integers(2, 5))
            ch = _random_channel(rng, L=L)
            A = mac_opt.random_unimodular(L, rng)
            pi = tuple(rng.permutation(L) + 1)
            lhs, rhs = mac_opt.successive_sum_identity(ch, A, pi)
            assert abs(lhs - rhs) <= 1e-8, f"identity off by {abs(lhs - rhs):.2e}"

    def containment():
        for _ in range(VERIFY_REPS // 4):
            ch = _random_channel(rng)
            L = ch.num_users
            A = mac_opt.random_unimodular(L, rng)
            para = regions.para_region(ch, A).boxes[0]
            mapping = regions.participation_mapping(A)
            succ = regions.succ_region(ch, A, mapping).boxes[0]
            assert all(ps <= ss + 1e-9 for ps, ss in zip(para.caps, succ.caps)), \
                "parallel box exceeded the successive box"

    def sic_sum():
        for _ in range(VERIFY_REPS // 4):
            ch = _random_channel(rng)
            order = tuple(rng.permutation(ch.num_users) + 1)
            total = sum(regions.sic_rates(ch, order))
            assert abs(total - sum_capacity(ch)) <= 1e-9, "SIC sum missed capacity"

    def parallel_gap():
        for _ in range(VERIFY_REPS // 2):
            L = int(rng.integers(2, 4))
            ch = _random_channel(rng, L=L)
            asg = mac_opt.parallel_mac_assignment(ch)
            bound = 0.5 * L * np.log2(L)
            assert asg.gap_to_capacity <= bound + 1e-9, \
                f"gap {asg.gap_to_capacity:.4f} above {bound:.4f}"

    def negative_control():
        bad = regions.is_admissible([[1, 1], [1, 2]], {(1, 1), (2, 2)})
        assert bad is None, \
            "corrupted fixture accepted: non-admissible mapping passed the admissibility check"

    return _run_checks([
        ("matrix-inversion identity (1e-10)", woodbury),
        ("factor-choice invariance of variances", factor_invariance),
        ("unimodular successive sum identity (1e-8)", unimodular_sum),
        ("parallel region contained in successive region", containment),
        ("SIC rates sum to capacity", sic_sum),
        ("parallel assignment within (L/2) log2 L of capacity", parallel_gap),
        ("negative control: corrupted mapping rejected", negative_control)])


def _verify_lattice(seed: int):
    rng = np.random.default_rng(seed)
    ens = lattice.build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=seed)

    def roundtrip():
        for w in itertools.product(range(ens.p), repeat=ens.k):
            lam = lattice.label_inverse(ens, w)
            assert tuple(lattice.linear_label(ens, lam)) == w, f"round trip failed at {w}"

    def linearity():
        pts = [lattice.label_inverse(ens, w)
               for w in itertools.product(range(ens.p), repeat=ens.k)]
        for _ in range(200):
            i, j = rng.integers(0, len(pts), size=2)
            a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            lhs = lattice.linear_label(ens, a * pts[i] + b * pts[j])
            rhs = lattice.label_add(
                ens, [lattice.linear_label(ens, pts[i]),
                      lattice.linear_label(ens, pts[j])], [a, b])
            assert np.array_equal(lhs, rhs), "labeling is not linear"

    def level_structure():
        for w in itertools.product(range(ens.p), repeat=ens.k):
            lam = lattice.label_inverse(ens, w)
            for user in range(1, ens.num_users + 1):
                in_fine = np.allclose(
                    lattice.mod_lattice(ens, ("F", user), lam), 0, atol=1e-9)
                assert in_fine == lattice.in_fine_lattice(ens, user, [w])[0], \
                    f"fine-level structure broke at {w}"

    def nested_quantization():
        for _ in range(200):
            x = rng.normal(size=ens.n) * 4.0
            lhs = lattice.mod_lattice(ens, "C", lattice.nearest_point(ens, "F", x))
            inner = lattice.mod_lattice(ens, "C", x)
            rhs = lattice.mod_lattice(ens, "C", lattice.nearest_point(ens, "F", inner))
            assert np.allclose(lhs, rhs, atol=1e-9), "nested quantization identity failed"

    def distributive():
        for _ in range(200):
            x, y = rng.normal(size=ens.n) * 4, rng.normal(size=ens.n) * 4
            a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            lhs = lattice.mod_lattice(
                ens, "C", a * lattice.mod_lattice(ens, "C", x)
                + b * lattice.mod_lattice(ens, "C", y))
            rhs = lattice.mod_lattice(ens, "C", a * x + b * y)
            assert np.allclose(lhs, rhs, atol=1e-9), "distributive law failed"

    def codebook_size():
        for user in range(1, ens.num_users + 1):
            kc, kf = ens.levels[user - 1]
            pts = set()
            for w in itertools.product(range(ens.p), repeat=kf - kc):
                lam = simulator.encode(ens, user, w, np.zeros(ens.n))[0]
                pts.add(tuple(np.round(lam, 6)))
            assert len(pts) == ens.p ** (kf - kc), \
                f"user {user} codebook has {len(pts)} points"

    return _run_checks([
        ("labeling round trip (exhaustive)", roundtrip),
        ("labeling linearity", linearity),
        ("level structure from label suffixes", level_structure),
        ("nested quantization property", nested_quantization),
        ("mod-lattice distributive law", distributive),
        ("codebook cardinality p^(kF-kC)", codebook_size)])


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be an integer >= 0, got {args.seed}")
    checks = []
    if args.suite in ("identities", "all"):
        checks += _verify_identities(args.seed)
    if args.suite in ("lattice", "all"):
        checks += _verify_lattice(args.seed)
    failures = 0
    for name, err in checks:
        if err is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {err}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every main call."""
    ap = argparse.ArgumentParser(prog="cfkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="compute rate regions and boundaries")
    p.add_argument("--input", required=True, help="JSON with H, P and optional A/mapping")
    p.add_argument("--mode", required=True,
                   choices=["para", "succ", "asc", "mac", "sic", "compound"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("search", help="integer coefficient search")
    p.add_argument("--input", required=True)
    p.add_argument("--bound", default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("mac", help="multiple-access assignment table")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mac)

    p = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="self-check identities and lattice algebra")
    p.add_argument("--suite", default="all", choices=["identities", "lattice", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
