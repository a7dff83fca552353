import json

import pytest

from contactfb import experiment, fatou_bieberbach
from contactfb.cli import main
from contactfb.fatou_bieberbach import (
    PushOutState,
    SelectionError,
    build_pushout,
    desk_schedule,
    save_state,
)


def write_config(path, **overrides):
    doc = {
        "n": 1,
        "i_max": 3,
        "k_max": 2,
        "samples": {"lemma_disks": 5, "per_shell": 20, "identity": 50,
                    "divergence": 20},
        "lemma_n0": [1],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_default_output_exact(self, tmp_path, capsys):
        # the settable config fields and the hash, and nothing cached on the
        # config
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["validate", "--config", str(cfg)]) == 0
        want = {
            "n": 1, "i_max": 6, "k_max": 6, "pushout_dim": 2,
            "eps_base": 0.5, "seed": 0, "margin": 1e-06,
            "schedule_kind": "desk", "explicit_shells": [],
            "lemma_disks": 60, "lemma_n0": [1, 2, 3],
            "samples_per_shell": 200, "identity_samples": 1000,
            "divergence_samples": 100,
            "lambda_budget": 1000.0, "config_hash": "44136fa355b3678a",
        }
        assert capsys.readouterr().out == json.dumps(want, indent=1) + "\n"

    def test_invalid_shell_named_by_index(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": {
            "kind": "explicit", "shells": [[1, 3, 5], [2, 4, 10]]}}))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "schedule.shells[2]" in err and "interleaved" in err

    def test_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config invalid" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("doc, named", [
        ({"schedule": 5}, "schedule: expected an object"),
        ({"samples": []}, "samples: expected an object"),
        ({"lemma_n0": 5}, "lemma_n0: expected a list"),
        ({"schedule": {"kind": "explicit", "shells": [5]}},
         "schedule.shells[1]: expected [a, b, c]"),
        ('{"seed": 1e400}', "seed: must be a finite number"),
        ({"i_max": "inf"}, "i_max: must be a finite number"),
        ({"margin": "nan"}, "margin: must be a finite number"),
        ({"budget": {"lambda_budget": "nan"}},
         "budget.lambda_budget: must be a finite number"),
        ({"budget": {"lambda_budget": -1}},
         "budget.lambda_budget: must be positive"),
        ({"schedule": {"kind": "explicit", "shells": [[0.5, 0.6, 1]]}},
         "schedule.shells[1].a: must be > 1"),
        # the heights n*2^(3*i_max+1) leave float64 range
        ({"i_max": 341}, "i_max: the obstacle heights n*2^(3*i_max+1) "
                         "overflow float64"),
        ({"i_max": 400}, "i_max: the obstacle heights n*2^(3*i_max+1) "
                         "overflow float64"),
        ({"n": 8, "i_max": 340}, "i_max: the obstacle heights "
                                 "n*2^(3*i_max+1) overflow float64"),
        # settings of the pattern search the bisection replaced
        ({"budget": {"restarts": 2}},
         "budget.restarts: no longer a setting; the directed-norm bound "
         "runs no search"),
        ({"budget": {"iterations": 12}},
         "budget.iterations: no longer a setting; the directed-norm bound "
         "runs no search"),
        ({"budget": {"degree": 2}},
         "budget.degree: no longer a setting; the directed-norm bound "
         "runs no search"),
        # round 1 of the push-out needs an exponent above EXPONENT_CAP
        ({"i_max": 9}, "i_max: push-out round 1 fails: shell 9: exponent "
                       "2236409 exceeds cap 1000000 (binding inequality: "
                       "pinching)"),
        ({"i_max": 9, "pushout_dim": 3},
         "i_max: push-out round 1 fails: shell 9: exponent 2236409 exceeds "
         "cap 1000000 (binding inequality: pinching)"),
        ({"schedule": {"kind": "explicit",
                       "shells": [[2, 2, 5], [2.0000001, 1e10, 8]]}},
         "schedule.shells: push-out round 1 fails: shell 2: exponent "
         "8164540037 exceeds cap 1000000 (binding inequality: pinching)"),
        # a later round leaves float64 range
        ({"k_max": 45}, "k_max: push-out round 40 fails: shell 6: a "
                        "log-domain quantity is beyond float64 range"),
        # one shell lasts 120 rounds, then its upper band bound overflows
        ({"schedule": {"kind": "explicit", "shells": [[2, 2, 5]]},
          "k_max": 200},
         "k_max: push-out round 121 fails: shell 1: the output band "
         "(4.884178339119542e+307, nan) is beyond float64 range"),
        # eps_k = eps_base * 2^-k underflows to 0 before a round it sets
        ({"eps_base": 5e-324}, "eps_base: push-out round 1 fails: eps_1 = "
                               "eps_base * 2^-1 underflows to 0"),
        ({"eps_base": 1e-323, "i_max": 1, "k_max": 3},
         "k_max: push-out round 2 fails: eps_2 = eps_base * 2^-2 "
         "underflows to 0"),
        # the derivative bound covers 1 <= N0 < i_max: the origin bracket
        # and the contrapositive need N0 = 1, the lemma suite each entry
        ({"i_max": 1}, "i_max: the derivative bound covers 1 <= N0 < i_max "
                       "on standard_obstacle(n, i_max) only; N0 = 1 is not "
                       "below i_max = 1"),
        ({"i_max": 2, "lemma_n0": [1, 2, 3]},
         "lemma_n0: the derivative bound covers 1 <= N0 < i_max on "
         "standard_obstacle(n, i_max) only; N0 = 2 is not below i_max = 2"),
        # a key outside the schema, which the defaults would replace
        ({"imax": 3}, "imax: unknown key"),
        ({"samples": {"per_shel": 5}}, "samples.per_shel: unknown key"),
        ({"budget": {"margin": 0.1}}, "budget.margin: unknown key"),
        ({"schedule": {"shells": [[2, 3, 5]]}},
         "schedule.shells: only the explicit kind reads shells"),
        # integers are read exactly: through a float, this text rounds to
        # the integer 9007199254740994
        pytest.param({"seed": "9007199254740993.5"}, "seed: expected an "
                     "integer", id="seed-non-integral-string"),
        pytest.param({"seed": 1.5}, "seed: expected an integer",
                     id="seed-non-integral-number"),
        pytest.param({"k_max": True}, "k_max: expected a number or decimal "
                     "string", id="k_max-bool"),
        # True == 1, the supported version
        pytest.param({"schema_version": True},
                     "schema_version: unsupported value True",
                     id="schema_version-bool"),
        # run would ask sample_polydisk for that many points
        pytest.param({"samples": {"identity": 10 ** 30}},
                     "samples.identity: must be <= 1000000",
                     id="samples-identity-above-cap"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_field_named(self, tmp_path, capsys, command, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        args = [command, "--config", str(cfg)]
        if command == "run":
            args += ["--suite", "lemma"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config invalid: {named}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("doc", [
        # the desk schedule's round 1 builds up to i_max = 8
        {"i_max": 8},
        # an explicit schedule leaves i_max to the obstacle heights alone
        {"n": 7, "i_max": 340,
         "schedule": {"kind": "explicit", "shells": [[2, 3, 5]]}},
    ])
    def test_largest_i_max_accepted(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["i_max"] == doc["i_max"]

    @pytest.mark.parametrize("seed, want", [
        (9007199254740993, 2 ** 53 + 1), ("9007199254740993", 2 ** 53 + 1),
        ("9007199254740993.0", 2 ** 53 + 1),
        # past float range: a float reads it as inf
        (int("9" * 401), 10 ** 401 - 1)],
        ids=["int", "string", "decimal-string", "int-401-digits"])
    def test_integers_read_exactly(self, tmp_path, capsys, seed, want):
        # 2^53 + 1: a float reads 2^53, and the run would then draw from
        # another seed than the one the config hash covers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == want

    def test_decimal_strings_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_base": "0.25", "k_max": "3"}))
        assert main(["validate", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eps_base"] == 0.25 and out["k_max"] == 3


class TestRun:
    def test_lemma_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["run", "--suite", "lemma", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert lines and all(ln.startswith("PASS") for ln in lines)
        assert "passed=True" in out

    def test_pushout_suite_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        code = main(["run", "--suite", "pushout", "--config", cfg,
                     "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is True
        assert report["suite"] == "pushout"
        names = [c["name"] for c in report["checks"]]
        assert names == sorted(names)
        assert (out_dir / "pushout_state.json").exists()
        csv_text = (out_dir / "orbits.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "point_index,coordinates,round,log_magnitude,classification"

    def test_deterministic_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--suite", "pushout", "--config", cfg,
                     "--out", str(a)]) == 0
        assert main(["run", "--suite", "pushout", "--config", cfg,
                     "--out", str(b)]) == 0
        assert (a / "orbits.csv").read_bytes() == (b / "orbits.csv").read_bytes()
        assert (a / "pushout_state.json").read_bytes() == \
            (b / "pushout_state.json").read_bytes()

    def test_failing_check_exits_nonzero(self, tmp_path, capsys):
        # a tiny scaling budget cannot push the full-space bound under the
        # degeneration threshold, so that check fails
        cfg = write_config(tmp_path / "cfg.json",
                           budget={"lambda_budget": 10})
        code = main(["run", "--suite", "kobayashi", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 1
        assert any(ln.startswith("FAIL kobayashi/full-space-degeneration")
                   for ln in out.splitlines())

    @pytest.mark.parametrize("suite, doc, errors", [
        # validate builds every round, and the push-out suite reads that
        # state, so the suite is made to fail after its round checks
        ("pushout", {"k_max": 2}, {"pushout/error:SelectionError"}),
        # the same through "all": the other suites still run and pass
        ("all", {"k_max": 2}, {"pushout/error:SelectionError"}),
    ])
    def test_suite_error_is_a_failed_check(self, tmp_path, capsys,
                                           monkeypatch, suite, doc, errors):
        def fail(*args, **kwargs):
            raise SelectionError("round 1: injected", 1, "representation")
        monkeypatch.setattr(PushOutState, "orbit_logs", fail)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code = main(["run", "--suite", suite, "--config", str(cfg),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        failed = {ln.split()[1] for ln in captured.out.splitlines()
                  if ln.startswith("FAIL ") and "/error:" in ln}
        assert failed == errors
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is False
        assert {c["name"] for c in report["checks"]
                if "/error:" in c["name"]} == errors

    def test_run_builds_each_round_once(self, tmp_path, capsys,
                                        monkeypatch):
        # validate builds the push-out and the suite reads that state;
        # rounds are counted wherever a caller could build them
        built = []
        build = fatou_bieberbach.build_shear_round

        def counting(state):
            built.append(state.k + 1)
            return build(state)
        monkeypatch.setattr(fatou_bieberbach, "build_shear_round", counting)
        monkeypatch.setattr(experiment, "build_shear_round", counting,
                            raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["run", "--suite", "pushout", "--config", str(cfg)]) == 0
        assert built == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("case, reason", [
        ("file", "File exists"),
        # a dangling link: no directory can be created under it
        ("dangling-link", "No such file or directory"),
    ])
    def test_bad_out_exits_two(self, tmp_path, capsys, case, reason):
        if case == "file":
            out = tmp_path / "out"
            out.write_text("")
        else:
            (tmp_path / "link").symlink_to(tmp_path / "missing" / "dir")
            out = tmp_path / "link" / "sub"
        cfg = write_config(tmp_path / "cfg.json")
        code = main(["run", "--suite", "lemma", "--config", cfg,
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        # refused before any suite runs
        assert captured.out == ""
        assert captured.err == f"out invalid: {out}: {reason}\n"

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_base": 2.0}))
        assert main(["run", "--suite", "lemma", "--config", str(cfg)]) == 2


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    path = tmp_path_factory.mktemp("state") / "state.json"
    save_state(build_pushout(desk_schedule(2, 3), dim=2, k_max=2), path)
    return str(path)


class TestClassify:
    def test_classifications(self, saved_state, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("# header comment\n0,0\n2.0,0\n")
        code = main(["classify", "--state", saved_state,
                     "--points", str(pts)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "point_index,classification"
        assert lines[1] == "0,in_omega_certified"
        assert lines[2] == "1,escaped"

    def test_dimension_mismatch(self, saved_state, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0\n")
        assert main(["classify", "--state", saved_state,
                     "--points", str(pts)]) == 2
        assert "expected 2 coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, named", [
        ("nan", "coordinate 1 is not finite"),
        ("inf", "coordinate 1 is not finite"),
        ("x", "malformed"),
        ("1.5e308+1.5e308j", "too large"),
    ])
    def test_bad_cell_names_row(self, saved_state, tmp_path, capsys,
                                cell, named):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"# header comment\n0,0\n2.0,{cell}\n")
        assert main(["classify", "--state", saved_state,
                     "--points", str(pts)]) == 2
        captured = capsys.readouterr()
        assert "row 3 " in captured.err and named in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_bad_cell_names_no_point(self, saved_state, tmp_path, capsys,
                                     cell):
        # the row names the point; the error names only the coordinate
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0,0\n2.0,{cell}\n")
        assert main(["classify", "--state", saved_state,
                     "--points", str(pts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("row 2 ")
        assert ": coordinate 1 is not finite" in err
        assert "point 0" not in err

    def test_missing_points_exits_two(self, saved_state, tmp_path, capsys):
        assert main(["classify", "--state", saved_state,
                     "--points", str(tmp_path / "nope.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("points invalid: ")
        assert "No such file" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content, named", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ("drop-dim", "missing key 'dim'"),
        ("phi-exponent-1", "'rounds[0].phi' term 0 is"),
        ("version-1", "format version 1 is not supported"),
    ])
    def test_bad_state_exits_two(self, saved_state, tmp_path, capsys,
                                 content, named):
        state = tmp_path / "state.json"
        if content in ("drop-dim", "phi-exponent-1", "version-1"):
            doc = json.loads(open(saved_state).read())
            if content == "drop-dim":
                del doc["dim"]
            elif content == "phi-exponent-1":
                doc["rounds"][0]["phi"][0][1] = 1
            else:
                doc["version"] = 1
            state.write_text(json.dumps(doc))
        elif content is not None:
            state.write_text(content)
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n")
        assert main(["classify", "--state", str(state),
                     "--points", str(pts)]) == 2
        captured = capsys.readouterr()
        assert "state invalid" in captured.err and named in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestPlanPath:
    def test_endpoint_reached(self, capsys):
        code = main(["plan-path", "--from", "0,0,0", "--to", "1,2,3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segments"]
        end = [complex(s) for s in doc["endpoint"]]
        assert max(abs(a - b) for a, b in zip(end, [1, 2, 3])) <= 1e-10

    def test_identity_path(self, capsys):
        code = main(["plan-path", "--from", "1,2,3", "--to", "1,2,3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segments"] == []
        assert [complex(s) for s in doc["endpoint"]] == [1, 2, 3]

    def test_dimension_mismatch(self, capsys):
        assert main(["plan-path", "--from", "0,0,0",
                     "--to", "0,0,0,0,0"]) == 2

    def test_complex_literals(self, capsys):
        code = main(["plan-path", "--from", "0,0,0", "--to", "1+2j,0,1j"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        end = [complex(s) for s in doc["endpoint"]]
        assert end[0] == pytest.approx(1 + 2j, abs=1e-10)
        assert end[2] == pytest.approx(1j, abs=1e-10)

    @pytest.mark.parametrize("frm, to, needle", [
        ("0,0", "0,0,1", "odd length"),
        ("0,0,0", "1,x,0", "complex"),
    ])
    def test_malformed_point_exits_two(self, capsys, frm, to, needle):
        assert main(["plan-path", "--from", frm, "--to", to]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("frm, to", [
        # a coefficient's exact quotient, then a difference, overflows
        ("0,0,0", "1e200,1e200,0"),
        ("1e308,1e308,0", "-1e308,-1e308,0"),
    ])
    def test_path_past_float_range_exits_two(self, capsys, frm, to):
        assert main(["plan-path", "--from", frm, f"--to={to}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid point: the path between the points "
                                "leaves float range\n")

    @pytest.mark.parametrize("frm", ["nan,0,0", "inf,0,0"])
    def test_non_finite_point_exits_two(self, capsys, frm):
        assert main(["plan-path", "--from", frm, "--to", "0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid point: coordinate 0 is not finite\n"
