"""File-emitting runner: outputs, exit statuses, and reproducibility.

Exit status doubles as the CI verdict: 0 all rows pass, 1 a tolerance was
missed, 2 the run could not be carried out at all (the failure record in
results.json says why).
"""

import csv
import json
import os

import pytest

from subexp import cli, parse_config, run
from subexp.errors import SchemaError

E1_MEMBERS = [
    {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
    {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
]


def config_doc(experiment="axioms", parameters=None, **extra):
    doc = {
        "model": {"label": "E1", "members": E1_MEMBERS},
        "experiment": experiment,
        "parameters": parameters or {},
    }
    doc.update(extra)
    return doc


def run_doc(doc, out_dir, **kw):
    cfg = parse_config(json.dumps(doc))
    return run(cfg, out=str(out_dir), **kw)


def test_passing_run_emits_three_files(tmp_path, capsys):
    code = run_doc(config_doc(parameters={"trials": 50}), tmp_path)
    assert code == 0
    for name in ("results.json", "results.csv", "resolved_config.json"):
        assert (tmp_path / name).exists()
    assert "PASS" in capsys.readouterr().out


def test_results_json_payload_shape(tmp_path):
    run_doc(config_doc(parameters={"trials": 50}), tmp_path)
    payload = json.loads((tmp_path / "results.json").read_text())
    assert payload["experiment"] == "axioms"
    assert payload["passed"] is True
    assert len(payload["run_id"]) == 12
    row = payload["rows"][0]
    assert set(row) == {"statistic", "value", "tolerance", "passed", "strategy", "seed", "n"}


def test_csv_layout_and_float_format(tmp_path):
    run_doc(
        config_doc("choquet_series", {"p": 1.0, "K": 5000},
                   model={"label": "p15", "members": [{"kind": "pareto", "alpha": 1.5, "scale": 1.0, "right_mass": 0.5}]}),
        tmp_path,
    )
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "run_id,experiment,strategy,seed,n,statistic,value,tolerance,verdict"
    verdicts = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert verdicts <= {"pass", "fail", "info"}
    # floats are emitted with repr-exact precision
    value_field = lines[1].split(",")[6]
    assert value_field == f"{float(value_field):.17g}"


def test_failed_tolerance_exits_one(tmp_path):
    # the exact escape capacity at n=256 exceeds the pinned 0.05 threshold
    code = run_doc(config_doc("weak_lln"), tmp_path)
    assert code == 1
    payload = json.loads((tmp_path / "results.json").read_text())
    assert payload["passed"] is False
    assert any(r["passed"] is False for r in payload["rows"])


def test_impossible_run_exits_two_with_record(tmp_path, capsys):
    doc = config_doc("weak_lln", model={
        "label": "V2",
        "members": [
            {"kind": "finite", "atoms": [[[1.0, 0.0], 1.0]]},
            {"kind": "finite", "atoms": [[[0.0, 1.0], 1.0]]},
        ],
    })
    code = run_doc(doc, tmp_path)
    assert code == 2
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"]["type"] == "ValueError"
    assert "d=1" in record["error"]["message"]
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("parameters, bad", [
    ({"mode": "mc", "ns": [0], "mc_replicas": 2}, 0),
    ({"mode": "exact", "ns": [8, -4]}, -4),
])
def test_weak_lln_n_below_one_exits_two(tmp_path, parameters, bad):
    assert run_doc(config_doc("weak_lln", parameters), tmp_path) == 2
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"]["type"] == "ValueError"
    assert f"got {bad}" in record["error"]["message"]


@pytest.mark.parametrize("mode", ["mc", "exact"])
@pytest.mark.parametrize("epsilon", [0.0, -0.3, -1.0])
def test_weak_lln_nonpositive_epsilon_exits_two(tmp_path, capsys, mode, epsilon):
    # Every path escapes a nonpositive epsilon in mc mode, and exact mode
    # cannot build its interval, so the driver rejects epsilon by name.
    parameters = {"mode": mode, "ns": [8, 16], "epsilon": epsilon, "mc_replicas": 2}
    assert run_doc(config_doc("weak_lln", parameters), tmp_path) == 2
    message = f"epsilon must be positive, got {epsilon}"
    assert capsys.readouterr().err == f"error: {message}\n"
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("experiment, N", [("slln", 0), ("slln", -3), ("marcinkiewicz", 0)])
def test_sampled_horizon_below_one_exits_two(tmp_path, capsys, experiment, N):
    assert run_doc(config_doc(experiment, {"N": N}, seeds=[1]), tmp_path) == 2
    message = f"N must be at least 1, got {N}"
    assert capsys.readouterr().err == f"error: {message}\n"
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("parameters, message", [
    pytest.param({"trials": 0}, "trials must be at least 1, got 0", id="0"),
    pytest.param({"trials": -1}, "trials must be at least 1, got -1", id="-1"),
    pytest.param({"axiom_seed": -1}, "seed must be at least 0, got -1", id="axiom_seed--1"),
])
def test_axioms_without_trials_exits_two(tmp_path, parameters, message):
    assert run_doc(config_doc(parameters=parameters), tmp_path) == 2
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "results.csv").exists()


def test_inequality_grid_on_a_pareto_model_exits_two(tmp_path, capsys):
    pareto = {"kind": "pareto", "alpha": 1.5, "scale": 1.0, "right_mass": 0.5}
    doc = config_doc("inequality_grid", {"ns": [4], "xs": [1.0]},
                     model={"label": "p15", "members": [pareto]})
    assert run_doc(doc, tmp_path) == 2
    assert sorted(os.listdir(tmp_path)) == ["resolved_config.json", "results.json"]
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"]["type"] == "NonLattice"
    assert capsys.readouterr().err.startswith("error: ")


def test_run_id_ignores_output_location(tmp_path):
    doc = config_doc(parameters={"trials": 50})
    run_doc(doc, tmp_path / "a")
    run_doc(doc, tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "results.json").read_text())["run_id"]
    rb = json.loads((tmp_path / "b" / "results.json").read_text())["run_id"]
    assert ra == rb


def test_run_id_tracks_scientific_content(tmp_path):
    doc = config_doc(parameters={"trials": 50})
    run_doc(doc, tmp_path / "a")
    doc2 = config_doc(parameters={"trials": 60})
    run_doc(doc2, tmp_path / "b")
    ra = json.loads((tmp_path / "a" / "results.json").read_text())["run_id"]
    rb = json.loads((tmp_path / "b" / "results.json").read_text())["run_id"]
    assert ra != rb


def test_seed_override_rewrites_seed_column(tmp_path):
    doc = config_doc("three_series", {"N": 2000, "N0": 200})
    run_doc(doc, tmp_path, seed_override=77)
    lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
    seeds = {line.split(",")[3] for line in lines if line.split(",")[2]}
    assert seeds == {"77"}
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["seeds"] == [77]


def test_csv_byte_identical_across_parallelism(tmp_path):
    doc = config_doc(
        "inequality_grid",
        {"ns": [4, 8], "xs": [1.0, 2.0, 3.0], "whichs": ["kolmogorov_upper", "exponential"]},
    )
    run_doc(doc, tmp_path / "j1", jobs=1)
    run_doc(doc, tmp_path / "j8", jobs=8)
    assert (tmp_path / "j1" / "results.csv").read_bytes() == (tmp_path / "j8" / "results.csv").read_bytes()


def test_resolved_config_written_even_on_failure(tmp_path):
    doc = config_doc("weak_lln", model={
        "label": "V2",
        "members": [
            {"kind": "finite", "atoms": [[[1.0, 0.0], 1.0]]},
            {"kind": "finite", "atoms": [[[0.0, 1.0], 1.0]]},
        ],
    })
    run_doc(doc, tmp_path)
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["experiment"] == "weak_lln"
    assert not (tmp_path / "results.csv").exists()


def test_results_json_is_strict_for_infinite_values(tmp_path):
    # alpha=0.5 <= p=1: the Choquet moment is infinite
    pareto = {"kind": "pareto", "alpha": 0.5, "scale": 1.0, "right_mass": 0.5}
    doc = config_doc("choquet_series", {"K": 1000}, model={"label": "p05", "members": [pareto]})
    run_doc(doc, tmp_path)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads((tmp_path / "results.json").read_text(), parse_constant=reject)
    row = next(r for r in payload["rows"] if r["statistic"] == "choquet_value")
    assert row["value"] == "inf"
    csv_row = next(line for line in (tmp_path / "results.csv").read_text().splitlines()
                   if ",choquet_value," in line)
    assert csv_row.split(",")[6] == "inf"


def test_failed_run_removes_stale_results_csv(tmp_path):
    # E1 slln at a short horizon misses a tolerance (exit 1) and leaves all three files
    assert run_doc(config_doc("slln", {"N": 2000}, seeds=[1]), tmp_path) == 1
    # alpha <= 1: no finite mean, so the second run cannot be carried out
    pareto = {"kind": "pareto", "alpha": 0.8, "scale": 1.0, "right_mass": 0.5}
    doc = config_doc("slln", {"N": 2000}, model={"label": "p08", "members": [pareto]})
    assert run_doc(doc, tmp_path) == 2
    assert sorted(os.listdir(tmp_path)) == ["resolved_config.json", "results.json"]
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"]["type"] == "NotConvergent"
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["model"]["label"] == "p08"


def test_unexpected_error_is_recorded_then_raised(tmp_path, monkeypatch):
    import subexp.axioms

    doc = config_doc(parameters={"trials": 50})
    assert run_doc(doc, tmp_path) == 0

    def broken(rng):
        raise RuntimeError("broken axiom suite")

    monkeypatch.setattr(subexp.axioms, "random_ambiguity_set", broken)
    with pytest.raises(RuntimeError, match="broken axiom suite"):
        run_doc(doc, tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["resolved_config.json", "results.json"]
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"] == {"type": "RuntimeError", "message": "broken axiom suite"}


def test_non_finite_verdict_exits_two_and_names_the_row(tmp_path, monkeypatch):
    import subexp.axioms

    # A NaN Choquet integral makes the invariance and domination gaps NaN; a
    # plain max over the gaps would drop it and let both rows pass.
    monkeypatch.setattr(subexp.axioms, "choquet_integral", lambda amb, p: float("nan"))
    assert run_doc(config_doc(parameters={"trials": 50}), tmp_path) == 2
    assert sorted(os.listdir(tmp_path)) == ["resolved_config.json", "results.json"]
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["error"]["type"] == "NonFiniteVerdict"
    assert "'distributional_invariance'" in record["error"]["message"]
    assert "seed 20240" in record["error"]["message"]


@pytest.mark.parametrize("second", ["other_seed", "failing"])
def test_crash_mid_write_leaves_no_foreign_results_csv(tmp_path, monkeypatch, capsys, second):
    import subexp.runner as runner

    assert run_doc(config_doc("slln", {"N": 2000}, seeds=[1]), tmp_path) == 1
    first_run_id = json.loads((tmp_path / "results.json").read_text())["run_id"]
    replace = runner._replace_file

    def crash_on_results_json(path, text):
        if os.path.basename(path) == "results.json":
            raise OSError("disk full")
        replace(path, text)

    monkeypatch.setattr(runner, "_replace_file", crash_on_results_json)
    if second == "other_seed":
        doc = config_doc("slln", {"N": 2000}, seeds=[2])
    else:
        pareto = {"kind": "pareto", "alpha": 0.8, "scale": 1.0, "right_mass": 0.5}
        doc = config_doc("slln", {"N": 2000}, model={"label": "p08", "members": [pareto]})
    if second == "other_seed":
        # A write error after the experiment is reported like a bad config.
        assert run_doc(doc, tmp_path) == 2
        assert "error: disk full" in capsys.readouterr().err
    else:
        # The error record itself cannot be written, so the error goes through.
        with pytest.raises(OSError, match="disk full"):
            run_doc(doc, tmp_path)
    # The crash left the second run's config beside the first run's results.json;
    # a results.csv, the commit marker, may only belong to the config beside it.
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert runner._run_id(resolved) != first_run_id
    csv = tmp_path / "results.csv"
    if csv.exists():
        run_ids = {line.split(",")[0] for line in csv.read_text().splitlines()[1:]}
        assert run_ids == {runner._run_id(resolved)}


def test_label_with_a_carriage_return_exits_two_before_writing(tmp_path, capsys):
    # csv.writer would leave a lone \r unquoted, which csv.reader cannot read back.
    doc = config_doc(model={"label": "E1\rrun", "members": E1_MEMBERS})
    with pytest.raises(SchemaError, match=r"model\.label"):
        parse_config(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    assert "model.label" in capsys.readouterr().err
    assert not out.exists()


def test_csv_quotes_a_label_with_a_comma_a_quote_and_a_newline(tmp_path):
    label = 'E1, "biased"\nrun'
    doc = config_doc("inequality_grid", {"whichs": ["kolmogorov_upper"], "ns": [4], "xs": [2.0],
                                         "levy_alphas": [0.5]},
                     model={"label": label, "members": E1_MEMBERS})
    run_doc(doc, tmp_path)
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == "run_id,experiment,strategy,seed,n,statistic,value,tolerance,verdict".split(",")
    assert [len(row) for row in rows] == [9, 9, 9]
    assert rows[1][5] == f"kolmogorov_upper model={label} n=4 x=2"
    assert rows[2][5] == f"levy model={label} n=4 x=2 alpha=0.5"
