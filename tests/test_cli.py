import json
import re
from pathlib import Path

import numpy as np
import pytest

from cfkit import cli
from cfkit.cli import main


@pytest.fixture
def fig7_input(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(json.dumps({"H": [[1, 1.5]], "P": [7, 4]}))
    return path


@pytest.fixture
def fig8_input(tmp_path):
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps({"H": [[[3.3, 2.1]], [[2.4, 4.2]]], "P": [4, 3]}))
    return path


def run(args):
    return main([str(a) for a in args])


def assert_input_error(code, capsys, message):
    """Exit 2 with exactly one stderr line, `error: ...` naming the cause."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err


class TestRegion:
    def test_mac_boundary_contains_capacity_corner(self, fig7_input, tmp_path):
        assert run(["region", "--input", fig7_input, "--mode", "mac",
                    "--out", tmp_path]) == 0
        text = (tmp_path / "region_mac_boundary.csv").read_text()
        assert text.startswith("R1,R2\n")
        assert "1.500000,0.543731" in text

    def test_para_region_box_json(self, tmp_path):
        doc = {"H": [[1, 1.5]], "P": [7, 4], "A": [[1, 1], [1, 2]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert run(["region", "--input", path, "--mode", "para",
                    "--out", tmp_path]) == 0
        out = json.loads((tmp_path / "region_para.json").read_text())
        assert out["boxes"][0]["caps"] == [0.99396, 0.590286] or \
            np.allclose(out["boxes"][0]["caps"], [0.993964, 0.590286], atol=1e-5)

    def test_compound_panels(self, fig8_input, tmp_path):
        assert run(["region", "--input", fig8_input, "--mode", "compound",
                    "--out", tmp_path]) == 0
        rx2 = (tmp_path / "compound_rx2_mac.csv").read_text()
        assert "2.293682,0.839336" in rx2
        hull = (tmp_path / "compound_hull_succ.csv").read_text()
        assert "2.293682,0.187535" in hull
        inter = (tmp_path / "compound_intersection_mac.csv").read_text()
        assert "1.010942,1.915432" in inter

    def test_compound_builds_each_spec_once(self, fig8_input, tmp_path, monkeypatch):
        from cfkit import mac_opt, regions

        calls = {"successive_mac_assignments": 0, "sic_rates": 0, "mac_region": 0}
        for module, name in ((mac_opt, "successive_mac_assignments"),
                             (regions, "sic_rates"), (regions, "mac_region")):
            def spy(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, spy)
        assert run(["region", "--input", fig8_input, "--mode", "compound",
                    "--out", tmp_path]) == 0
        # two receivers, two users: one mac, two SIC orders and one
        # successive table per receiver
        assert calls == {"successive_mac_assignments": 2, "sic_rates": 4, "mac_region": 2}

    @pytest.mark.parametrize("first", [[1.7, 1], [True, 1], ["1", "1"]],
                             ids=["fraction", "bool", "string"])
    def test_mapping_entries_must_be_integers(self, tmp_path, capsys, first):
        doc = {"H": [[1, 1.5]], "P": [7, 4], "A": [[1, 1], [1, 2]],
               "mapping": [first, [1, 2], [2, 2]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = run(["region", "--input", path, "--mode", "succ", "--out", tmp_path])
        assert_input_error(code, capsys, "field 'mapping' must be a list of [m, l] pairs")
        assert not (tmp_path / "region_succ.json").exists()

    def test_integral_float_mapping_entries_accepted(self, tmp_path):
        reports = []
        for mapping in ([[1, 1], [1, 2], [2, 2]], [[1.0, 1], [1, 2.0], [2, 2]]):
            doc = {"H": [[1, 1.5]], "P": [7, 4], "A": [[1, 1], [1, 2]],
                   "mapping": mapping}
            path = tmp_path / "in.json"
            path.write_text(json.dumps(doc))
            assert run(["region", "--input", path, "--mode", "succ",
                        "--out", tmp_path]) == 0
            reports.append((tmp_path / "region_succ.json").read_bytes())
        assert reports[0] == reports[1]

    def test_para_mode_checks_a_given_mapping(self, tmp_path, capsys):
        # README campaign's channel: a pair outside A is refused as in
        # succ/asc mode, and an in-range mapping is read and not used
        doc = {"H": [[1, 1], [1, 2]], "P": [1.0, 1.0], "A": [[1, 1], [1, 2]]}
        reports = []
        for mapping in (None, [[1, 1]], [[9, 9], [0, 0]]):
            path = tmp_path / "in.json"
            path.write_text(json.dumps(dict(doc, mapping=mapping)))
            out = tmp_path / f"out{len(reports)}"
            code = run(["region", "--input", path, "--mode", "para", "--out", out])
            if mapping == [[9, 9], [0, 0]]:
                assert_input_error(code, capsys,
                                   "mapping pairs [m, l] need 1 <= m <= 2 and 1 <= l <= 2")
                assert not out.exists()
            else:
                assert code == 0
                reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert reports[0] == reports[1] and "region_para.json" in reports[0]

    def test_missing_A_for_para_is_input_error(self, fig7_input, tmp_path):
        assert run(["region", "--input", fig7_input, "--mode", "para",
                    "--out", tmp_path]) == 2

    def test_empty_A_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"H": [[1, 1.5]], "P": [7, 4], "A": []}))
        assert run(["region", "--input", path, "--mode", "para",
                    "--out", tmp_path]) == 2
        assert "A" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["region", "--input", bad, "--mode", "mac",
                    "--out", tmp_path]) == 2


class TestSearch:
    def test_fig7_dominant_solution(self, fig7_input, tmp_path):
        assert run(["search", "--input", fig7_input, "--out", tmp_path]) == 0
        out = json.loads((tmp_path / "search.json").read_text())
        assert out["A_star"] == [[1, 1], [1, 2]]
        assert out["max_abs_entry"] == 4

    def test_zero_channel(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"H": [[0, 0]], "P": [1, 1]}))
        assert run(["search", "--input", path, "--out", tmp_path]) == 0
        out = json.loads((tmp_path / "search.json").read_text())
        rows = {tuple(r) for r in out["A_star"]}
        assert rows == {(0, 1), (1, 0)}

    def test_zero_bound_rejected(self, fig7_input, tmp_path):
        assert run(["search", "--input", fig7_input, "--bound", "0",
                    "--out", tmp_path]) == 2


class TestMac:
    def test_fig7_table(self, fig7_input, tmp_path, capsys):
        assert run(["mac", "--input", fig7_input, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "mac_assignments.json").read_text())
        succ = [tuple(e["rates"]) for e in doc["assignments"]
                if e["strategy"] == "successive"]
        expect = {(0.382767, 1.660964), (1.5, 0.543731),
                  (1.084963, 0.958769), (1.362446, 0.681285)}
        assert {tuple(round(v, 6) for v in r) for r in succ} == expect
        for e in doc["assignments"]:
            if e["strategy"] == "successive":
                assert abs(e["gap"]) < 5e-7
            else:
                assert e["gap"] <= 1.0
        para = [e for e in doc["assignments"] if e["strategy"] == "parallel"]
        assert len(para) == 2

    def test_single_user(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"H": [[2.0]], "P": [3.0]}))
        assert run(["mac", "--input", path, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "mac_assignments.json").read_text())
        assert all(abs(e["gap"]) < 1e-6 for e in doc["assignments"])

    @pytest.mark.parametrize("doc", [{"H": [[100.0], [100.0]], "P": [10000.0]},
                                     {"H": [[150.0], [100.0]], "P": [100000.0]}])
    def test_more_antennas_than_users(self, tmp_path, doc):
        # I + H P H^T is rank one plus I with entries near 1e8 to 2e9; the
        # sum capacity comes from the 1 x 1 I + P^1/2 H^T H P^1/2 instead
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(doc))
        assert run(["mac", "--input", path, "--out", tmp_path]) == 0
        out = json.loads((tmp_path / "mac_assignments.json").read_text())
        succ = [e for e in out["assignments"] if e["strategy"] == "successive"]
        assert succ and all(e["sum_rate"] == out["sum_capacity"] for e in succ)


# Commands run on channels whose exact work overflows or is ill-conditioned.
_OVERFLOW_RUNS = [["mac"], ["search"], *(["region", "--mode", mode]
                                         for mode in ("para", "succ", "asc", "mac", "sic"))]

# Three users a million times stronger than the fourth: the search would
# visit a ball of about 575,000 points on their plane, and more than a
# million nodes on its way there.
_NEAR_SINGULAR = {"H": [[1e6, 0, 0, 0], [0, 1e6, 0, 0], [0, 0, 1e6, 0]], "P": [1, 1, 1, 1]}

# An ill-conditioned 3-user channel: the float chained rates of A = I,
# pi = (1, 2, 3) sum to 1.26e-8 off the sum capacity, past the 1e-8 check.
_ILL_CONDITIONED_3_USERS = {
    "H": [[0.18741764658239202, 3240.7824325742536, 347.20363251559723],
          [-3947.6845546120926, -203.38369279157774, -0.3125176278023317],
          [2.6173547520922833, 0.049296135617367245, -0.00856342679795989]],
    "P": [0.3495355968249849, 7737.990263562073, 479.81084557660967]}

# Channel files outside README's shape rule (H a list of rows of numbers,
# P a list of numbers, compound H a list of such matrices), each with the
# field its error names.
_COMPOUND = ["region", "--mode", "compound"]
_MISSHAPEN = [
    ({"H": 3, "P": [1]}, "field 'H' must be a matrix"),
    ({"H": "1", "P": [7]}, "field 'H' must be a matrix"),
    ({"H": [["1", "1.5"]], "P": ["7", "4"]}, "field 'H' must be a matrix"),
    ({"H": [1, 2], "P": [1, 1]}, "field 'H' must be a matrix"),
    ({"H": [[1, 2]], "P": [[1, 1]]}, "field 'P' must be a list of numbers"),
    ({"H": [[1, 2]], "P": None}, "missing field 'P'"),
]

# A receiver whose gains are five decades apart: the dominant search's
# default box of radius 64 does not certify its picks.
_WIDE_GAINS = [0.0025322789496672257, 404.172447150663]
_WIDE_POWERS = [0.11459278121198337, 0.41364925345864595]


@pytest.mark.parametrize("argv,doc,message", [
    (["mac"], {"H": [[1, 1.5]], "P": [1, 0]}, "user 2 has zero power"),
    (["mac"], {"H": [[1, 1.5, 2, 0.5, 1.2]], "P": [1] * 5},
     "exact enumeration capped at 4 users"),
    *[([command], {"H": [[1e12, 1]], "P": [1, 1]}, "enumeration exhausted at radius 64")
      for command in ("mac", "search")],
    (["mac"], {"H": [[1e12, 1, 1, 1]], "P": [1, 1, 1, 1]},
     "enumeration exhausted at radius 64"),
    *[([command], _NEAR_SINGULAR, "enumeration stopped at 1000000 nodes")
      for command in ("search", "mac")],
    (["search"], {"H": [[1, 1.5]], "P": [1, 0]}, "user 2 has zero power"),
    (["region", "--mode", "para"], {"H": [[1, 1.5]], "P": [1, 0], "A": [[1, 1], [1, 2]]},
     "user 2 has zero power"),
    *[(argv, {"H": [[1e200, 1]], "P": [1, 1], "A": [[1, 0], [0, 1]]},
       "channel overflows") for argv in _OVERFLOW_RUNS],
    *[(argv, {"H": [[1e15, 1e15]], "P": [1, 1], "A": [[1, 1], [1, 2]]},
       "inconsistent Gram matrix") for argv in _OVERFLOW_RUNS[:5]],
    (["region", "--mode", "compound"], {"H": [[[1e15, 1e15]], [[1, 2]]], "P": [1, 1]},
     "inconsistent Gram matrix"),
    (["region", "--mode", "compound"], {"H": [[[1, 2]], [_WIDE_GAINS]], "P": _WIDE_POWERS},
     "enumeration exhausted at radius 64"),
    (["region", "--mode", "succ"], {"H": [[1, 1]], "P": [1, 1],
                                     "A": [[10 ** 12, 1], [10 ** 12 + 1, 1]],
                                     "mapping": [[1, 1], [1, 2]]},
     "mapping is not admissible"),
    (["region", "--mode", "succ"], {"H": [[1, 0.7], [0.2, 1.3]], "P": [2, 3],
                                     "A": [[1, 1], [0, 1]], "mapping": [[1, 1], [1, 5]]},
     "mapping pairs [m, l] need 1 <= m <= 2 and 1 <= l <= 2"),
    (["mac"], _ILL_CONDITIONED_3_USERS,
     "successive sum rate misses the sum capacity by 1.26e-08"),
    # rows 1 and 2 are exactly independent but numerically parallel
    (["region", "--mode", "succ"], {"H": [[1, 2, 0.5]], "P": [1, 1, 1],
                                     "A": [[10 ** 12, 1, 0], [10 ** 12 + 1, 1, 0], [0, 0, 1]]},
     "A_prev must have full row rank"),
    *[(["mac"], doc, message) for doc, message in _MISSHAPEN],
    (_COMPOUND, {"H": [[[1, 2]]]}, "missing field 'P'"),
    (_COMPOUND, {"H": [[[1, 2]], 5], "P": [1, 1]}, "field 'H' must be a list of matrices"),
], ids=["mac-zero-power", "mac-5-users", "mac-exhausted", "search-exhausted",
        "mac-4-users-box-cap", "search-node-budget", "mac-node-budget",
        "search-zero-power", "region-para-zero-power",
        *[f"{'-'.join(a[::2])}-overflow" for a in _OVERFLOW_RUNS],
        *[f"{'-'.join(a[::2])}-ill-conditioned" for a in _OVERFLOW_RUNS[:5]],
        "region-compound-ill-conditioned", "region-compound-exhausted",
        "region-succ-borderline-mapping", "region-succ-pair-outside-A",
        "mac-sum-identity-miss", "region-succ-rank-refusal",
        "mac-H-scalar", "mac-H-string", "mac-strings", "mac-H-vector", "mac-P-matrix",
        "mac-P-null", "region-compound-no-P", "region-compound-scalar-receiver"])
def test_library_errors_are_input_errors(tmp_path, capsys, argv, doc, message):
    # --out does not exist yet, and a run that fails must not create it
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    code = run(argv + ["--input", path, "--out", tmp_path / "out"])
    assert_input_error(code, capsys, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["channel.json"]


@pytest.mark.parametrize("argv,message", [
    (["verify", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["mac", "--input", "{tmp}", "--out", "{tmp}/out"], "Is a directory"),
    (["mac", "--input", "{tmp}/fig7.json", "--out", "{tmp}/taken"], "File exists"),
    (["mac", "--input", "{tmp}/latin1.json", "--out", "{tmp}/out"],
     "latin1.json: 'utf-8' codec can't decode"),
    (["mac", "--input", "{tmp}/array.json", "--out", "{tmp}/out"],
     "array.json must hold a JSON object"),
], ids=["verify-negative-seed", "input-is-directory", "out-is-file",
        "input-not-utf8", "input-not-object"])
def test_unusable_arguments_are_input_errors(tmp_path, capsys, argv, message):
    files = {"fig7.json": json.dumps({"H": [[1, 1.5]], "P": [7, 4]}).encode(),
             "latin1.json": '{"H": [[1, 1.5]], "P": [7, 4], "site": "Å"}'.encode("latin-1"),
             "array.json": b"[1, 2]", "taken": b""}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code = run([a.format(tmp=tmp_path) for a in argv])
    assert_input_error(code, capsys, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("argv", [["region", "--mode", "para", "--input"], ["search", "--input"],
                                  ["mac", "--input"], ["simulate", "--config"]],
                         ids=lambda argv: argv[0])
def test_out_naming_a_file_is_refused_before_the_work(tmp_path, capsys, monkeypatch, argv):
    # the command never reads its channel: main refuses --out first
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"H": [[1, 1.5]], "P": [7, 4]}))
    (tmp_path / "taken").write_bytes(b"")
    calls = []
    monkeypatch.setattr(cli, "_channel_from", lambda doc: calls.append(doc))
    code = run(argv + [path, "--out", tmp_path / "taken"])
    assert_input_error(code, capsys, f"File exists: '{tmp_path / 'taken'}'")
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json", "taken"]
    assert (tmp_path / "taken").read_bytes() == b""


def test_cfkit_outdir_is_the_default_and_out_takes_precedence(fig7_input, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setenv("CFKIT_OUTDIR", str(tmp_path / "env"))
    assert run(["search", "--input", fig7_input]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {tmp_path / 'env' / 'search.json'}"
    assert sorted(p.name for p in (tmp_path / "env").iterdir()) == ["search.json"]
    (tmp_path / "env" / "search.json").unlink()
    assert run(["search", "--input", fig7_input, "--out", tmp_path / "flag"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {tmp_path / 'flag' / 'search.json'}"
    assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == ["search.json"]
    assert not any((tmp_path / "env").iterdir())


class TestSimulate:
    def config(self, tmp_path, **overrides):
        doc = {
            "ensemble": {"n": 2, "p": 3, "gamma": 3.0,
                         "levels": [[0, 1], [0, 2]], "seed": 21},
            "H": [[1, 1], [1, 2]], "P": [1.0, 1.0],
            "A": [[1, 1], [1, 2]], "mode": "parallel",
            "noise_std": [0.0], "trials": 25, "master_seed": 7,
        }
        doc.update(overrides)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(doc))
        return path

    def test_noiseless_smoke(self, tmp_path):
        cfg = self.config(tmp_path)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        csv = (tmp_path / "report.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == ("noise_std,combination_index,errors,trials,"
                            "rate_estimate,ci_low,ci_high")
        for line in lines[1:]:
            assert line.split(",")[2] == "0"

    def test_sweep_monotone_and_deterministic(self, tmp_path):
        cfg = self.config(tmp_path, noise_std=[2.0, 0.02], trials=120)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        first = (tmp_path / "report.csv").read_bytes()
        first_json = (tmp_path / "report.json").read_bytes()
        rows = [l.split(",") for l in first.decode().strip().split("\n")[1:]]
        errs = {(float(r[0])): int(r[2]) for r in rows if r[1] == "1"}
        assert errs[0.02] <= errs[2.0]
        # byte-identical across repeat runs
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "report.csv").read_bytes() == first
        assert (tmp_path / "report.json").read_bytes() == first_json

    def test_successive_mode(self, tmp_path):
        cfg = self.config(tmp_path, mode="successive",
                          mapping=[[1, 1], [1, 2], [2, 2]], noise_std=0.0)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert all(c["errors"] == 0 and c["real_errors"] == 0
                   for r in doc["results"] for c in r["combinations"])

    def test_tiny_noise_level_gives_a_report(self, tmp_path):
        # the README campaign at a level of 1e-300: the equalizers come from
        # the unscaled channel, so nothing is scaled by 1 / noise_std
        cfg = self.config(tmp_path, mode="successive", mapping=[[1, 1], [1, 2], [2, 2]],
                          noise_std=[1e-300, 0.0], trials=500, master_seed=17)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert [r["noise_std"] for r in results] == [1e-300, 0.0]
        assert all(c["errors"] == 0 and c["real_errors"] == 0
                   for r in results for c in r["combinations"])

    def test_one_row_campaign_writes_a_report(self, tmp_path):
        # a coefficient matrix with fewer rows than users: one combination
        # per level in both files
        cfg = self.config(tmp_path, A=[[1, 2]], noise_std=[0.5, 0.0], trials=140)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["A"] == [[1, 2]] and doc["config"]["noise_std"] == [0.5, 0.0]
        results = doc["results"]
        assert [len(r["combinations"]) for r in results] == [1, 1]
        assert [len(r["mean_power_per_user"]) for r in results] == [2, 2]
        assert results[1]["combinations"][0]["errors"] == 0
        assert all(r["trials"] == 140 for r in results)
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert [line.split(",")[:2] for line in lines[1:]] == [["0.500000", "1"],
                                                                ["0.000000", "1"]]

    def test_malformed_config(self, tmp_path):
        cfg = self.config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["trials"]
        cfg.write_text(json.dumps(doc))
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2

    def test_bad_mode_named(self, tmp_path, capsys):
        cfg = self.config(tmp_path, mode="sideways")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("trials", 0), ("trials", -5), ("trials", 2.5), ("trials", "7"),
        ("trials", True)])
    def test_counts_must_be_positive_integers(self, tmp_path, capsys, field, value):
        cfg = self.config(tmp_path, **{field: value})
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{field} must be an integer >= 1" in err
        assert not (tmp_path / "report.json").exists()

    def test_integral_trials_float_runs_the_integer_count(self, tmp_path):
        reports = []
        for trials in (10, 10.0):
            cfg = self.config(tmp_path, noise_std=[0.5], trials=trials)
            assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("overrides,message", [
        ({"mode": "successive", "mapping": [[1, 1], [2, 2]]},
         "mapping is not admissible (row 1)"),
        ({"ensemble": {"n": 2, "p": 2, "gamma": 2.0, "levels": [[0, 1], [0, 2]], "seed": 21},
          "A": [[2, 1], [1, 0]], "mode": "successive", "mapping": [[1, 1], [1, 2], [2, 2]]},
         "p = 2 too small"),
        ({"mode": "successive", "mapping": [[1, 1], [1, 2], [3, 2]]},
         "mapping pairs [m, l] need 1 <= m <= 2 and 1 <= l <= 2"),
        ({"A": [[1, 1]], "mode": "successive", "mapping": [[1, 1]]},
         "mapping is not admissible (row 1)"),
        ({"mode": "successive", "mapping": [[1, 1], [1, 2], [2, 2]], "P": [1.0, 0.0]},
         "user 2 has zero power"),
    ], ids=["not-admissible", "p-too-small", "pair-out-of-range", "fewer-rows-than-users",
            "zero-power"])
    def test_mapping_errors_are_input_errors(self, tmp_path, capsys, overrides, message):
        cfg = self.config(tmp_path, noise_std=[0.5], **overrides)
        assert_input_error(run(["simulate", "--config", cfg, "--out", tmp_path]),
                           capsys, message)
        assert not (tmp_path / "report.json").exists()

    def test_parallel_mode_checks_a_given_mapping(self, tmp_path, capsys):
        # a pair outside A is refused as in successive mode, and an
        # in-range mapping is read and not used
        reports = []
        for mapping in (None, [[1, 1]], [[9, 9], [0, 0]]):
            cfg = self.config(tmp_path, noise_std=[0.5], mapping=mapping)
            out = tmp_path / f"out{len(reports)}"
            code = run(["simulate", "--config", cfg, "--out", out])
            if mapping == [[9, 9], [0, 0]]:
                assert_input_error(code, capsys,
                                   "mapping pairs [m, l] need 1 <= m <= 2 and 1 <= l <= 2")
                assert not out.exists()
            else:
                assert code == 0
                reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert reports[0] == reports[1] and sorted(reports[0]) == ["report.csv", "report.json"]

    @pytest.mark.parametrize("mode,equalizers", [
        ("parallel", {"0": [1, 0], "1": [0, 1]}),
        ("parallel", [[1, 0]]),
        ("parallel", [[1, 0, 0], [0, 1, 0]]),
        ("successive", [[1, 0], [0, 1]]),
    ], ids=["object", "one-entry-short", "b-too-long", "successive-without-c"])
    def test_equalizers_must_be_optimal_or_one_per_row(self, tmp_path, capsys, mode,
                                                        equalizers):
        cfg = self.config(tmp_path, mode=mode, mapping=[[1, 1], [1, 2], [2, 2]],
                          equalizers=equalizers)
        assert_input_error(run(["simulate", "--config", cfg, "--out", tmp_path]),
                           capsys, "field 'equalizers' must be \"optimal\" or a list of 2")
        assert not (tmp_path / "report.json").exists()

    def test_equalizers_list_accepted(self, tmp_path):
        cfg = self.config(tmp_path, equalizers=[[1, 0], [0, 1]])
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        cfg = self.config(tmp_path, mode="successive", mapping=[[1, 1], [1, 2], [2, 2]],
                          equalizers=[[[1, 0], []], [[0, 1], [0.0]]])
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0

    @pytest.mark.parametrize("overrides,message", [
        ({"mode": "successive", "mapping": [1, 2, 3]}, "field 'mapping'"),
        *[({"mode": "successive", "mapping": [first, [1, 2], [2, 2]]},
           "field 'mapping' must be a list of [m, l] pairs")
          for first in ([1.7, 1], [True, 1], ["1", "1"])],
        ({"noise_std": ["loud"]}, "field 'noise_std'"),
        ({"master_seed": "seven"}, "field 'master_seed'"),
        ({"master_seed": 1.5}, "field 'master_seed'"),
        ({"master_seed": True}, "field 'master_seed'"),
        ({"master_seed": "7"}, "field 'master_seed'"),
        ({"master_seed": 2 ** 64 + 3}, "field 'master_seed'"),
        ({"master_seed": 2 ** 64}, "field 'master_seed'"),
        ({"master_seed": -1}, "field 'master_seed'"),
        ({"master_seed": None}, "field 'master_seed'"),
        ({"noise_std": []}, "field 'noise_std'"),
        ({"noise_std": True}, "field 'noise_std'"),
        ({"noise_std": "0.5"}, "field 'noise_std'"),
        ({"noise_std": [0.5, "0.5"]}, "field 'noise_std'"),
        ({"noise_std": [0.5, False]}, "field 'noise_std'"),
        ({"noise_std": {"level": 0.5}}, "field 'noise_std'"),
        ({"noise_std": [[0.5]]}, "field 'noise_std'"),
        ({"noise_std": 10 ** 400}, "field 'noise_std'"),
        ({"noise_std": [0.5, -0.1]}, "noise_std must be finite and nonnegative"),
        ({"A": [[True, False], [False, True]]}, "field 'A' must be an integer matrix"),
        ({"P": [True, 1.0]}, "bad numeric field: 'P' holds true or false"),
        ({"H": [[1, 1], [True, 2]]}, "bad numeric field: 'H' holds true or false"),
        ({"ensemble": {"n": 2, "p": 3, "gamma": 3.0, "levels": [[0, 1], [0, 2]],
                       "seed": True}}, "bad ensemble config: a field holds true or false"),
        ({"equalizers": [[True, False], [False, True]]}, "field 'equalizers'"),
        ({"equalizers": [["1", "0"], ["0", "1"]]}, "field 'equalizers'"),
        ({"ensemble": {"n": 2, "p": 3, "gamma": 3.0, "levels": [[0, 1.5], [0, 2]],
                       "seed": 21}}, "field 'levels'"),
        ({"ensemble": {"n": 2, "p": 3, "gamma": 3.0, "levels": [[0, 1], [0, 2]],
                       "seed": 21.5}}, "field 'seed'"),
        ({"ensemble": {"n": 2, "p": 3, "gamma": 3.0, "levels": [[0, 1], [0, 2]],
                       "G": [1.5, 0, 0, 1]}}, "field 'G'"),
        *[({"ensemble": {"n": 2, "p": 3, "gamma": gamma, "levels": [[0, 1], [0, 2]],
                         "seed": 21}}, "gamma must be finite and positive")
          for gamma in (float("inf"), float("nan"), 1e160, 5e-324)],
        ({"P": None}, "missing field 'P'"),
        ({"trials": 10 ** 12}, "trials = 1000000000000; desk scale caps a campaign at 1000000"),
        ({"noise_std": [0.5] * 101},
         "noise_std has 101 levels; desk scale caps a campaign at 100"),
    ], ids=["mapping", "mapping-fraction", "mapping-bool", "mapping-string",
            "noise_std", "master_seed", "master_seed-fraction",
            "master_seed-bool", "master_seed-string", "master_seed-past-2**64",
            "master_seed-2**64", "master_seed-negative", "master_seed-null",
            "noise_std-empty", "noise_std-bool", "noise_std-string",
            "noise_std-string-in-list", "noise_std-bool-in-list", "noise_std-object",
            "noise_std-nested", "noise_std-overflow", "noise_std-negative-level",
            "A-bool", "P-bool", "H-bool", "ensemble-seed-bool",
            "equalizers-bool", "equalizers-string", "ensemble-levels-fraction",
            "ensemble-seed-fraction", "ensemble-G-fraction", "gamma-infinite", "gamma-nan",
            "gamma-past-2**500", "gamma-subnormal", "P-null", "trials-past-cap",
            "noise_std-past-cap"])
    def test_malformed_fields_named(self, tmp_path, capsys, overrides, message):
        cfg = self.config(tmp_path, **overrides)
        assert_input_error(run(["simulate", "--config", cfg, "--out", tmp_path]),
                           capsys, message)
        assert not (tmp_path / "report.json").exists()


    @pytest.mark.parametrize("seed,reported", [(0, 0), (7.0, 7), (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_master_seed_range_accepted(self, tmp_path, seed, reported):
        cfg = self.config(tmp_path, noise_std=[0.5], master_seed=seed)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["master_seed"] == reported

    def test_integral_float_ensemble_sizes_run_the_integer_sizes(self, tmp_path):
        reports = []
        for n, p in ((2, 3), (2.0, 3.0)):
            cfg = self.config(tmp_path, noise_std=[0.5], ensemble={
                "n": n, "p": p, "gamma": 3.0, "levels": [[0, 1], [0, 2]], "seed": 21})
            assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_readme_campaign_runs(self, tmp_path):
        # the fenced JSON block of README's campaign section, as documented
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"Campaign config JSON.*?```json\n(.*?)```", readme, re.S)
        doc = json.loads(block.group(1))
        cfg = tmp_path / "campaign.json"
        cfg.write_text(block.group(1))
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert len(results) == len(doc["noise_std"])
        assert all(r["trials"] == doc["trials"] for r in results)

    def test_integral_seed_float_runs_the_integer_seed(self, tmp_path):
        reports = []
        for seed in (7, 7.0):
            cfg = self.config(tmp_path, noise_std=[0.5, 2.0], master_seed=seed)
            assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestParser:
    def test_main_calls_share_one_parser(self, fig7_input, tmp_path, capsys, monkeypatch):
        import argparse

        parsers = []
        honest = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, *a, **k: parsers.append(self) or honest(self, *a, **k))
        argv = ["search", "--input", fig7_input, "--out", tmp_path]
        assert run(argv) == 0
        first = (tmp_path / "search.json").read_bytes()
        assert run(["search", "--input", fig7_input, "--bound", "3",
                    "--out", tmp_path]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        with pytest.raises(SystemExit) as exc:
            run(["search", "--bound", "3", "--out", tmp_path])  # --input missing
        assert exc.value.code == 2
        capsys.readouterr()
        (tmp_path / "search.json").unlink()
        assert run(argv) == 0  # --bound is back at its default
        assert (tmp_path / "search.json").read_bytes() == first
        assert len(set(map(id, parsers))) == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run(["verify", "--suite", "all", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "negative control" in out

    def test_many_seeds_identities(self):
        for seed in range(5):
            assert run(["verify", "--suite", "identities", "--seed", seed]) == 0
