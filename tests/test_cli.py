"""Command line entry points: argument handling, output, exit statuses."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import subexp
from subexp.cli import _build_parser, main

E1_DOC = {
    "model": {
        "label": "E1",
        "members": [
            {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
        ],
    },
    "experiment": "axioms",
    "parameters": {"trials": 40},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_prints_summary_and_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, E1_DOC)
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "axioms" in out and "run_id=" in out and "PASS" in out


def test_run_missing_config_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_schema_error_exits_two(tmp_path, capsys):
    doc = dict(E1_DOC, experiment="frobnicate")
    code = main(["run", write_cfg(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("atoms, message", [
    pytest.param([[0.1, 0.5], [1.0, 0.5]], "atom 0.1 is off the pitch 0.25 lattice", id="pitch"),
    pytest.param([[0.0, 0.5], [[1.0, 2.0], 0.5]],
                 "atom values must be all numbers or all vectors of one length: "
                 "atom 0 is a number, atom 1 is a vector of 2 numbers", id="shape"),
])
def test_run_atom_errors_exit_two_with_plain_numbers(tmp_path, capsys, atoms, message):
    doc = dict(E1_DOC, lattice_quantum=0.25,
               model={"members": [{"kind": "finite", "atoms": atoms}]})
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: model.members[0]: {message}\n"
    assert not out.exists()


# Runs `subexp run` on the config named in argv[2] in a fresh interpreter, then
# prints the exit status and whether numpy was loaded.
_RUN_CLI = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); from subexp.cli import main\n"
    "code = main(['run', sys.argv[2], '--out', sys.argv[3]])\n"
    "print(json.dumps([code, 'numpy' in sys.modules]))"
)


def test_a_config_error_exits_two_without_loading_numpy(tmp_path):
    doc = dict(E1_DOC, model={"members": [
        {"kind": "finite", "atoms": [[-1.0, 0.4], [1.0, 0.5]]}]})
    src = str(Path(subexp.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, src, write_cfg(tmp_path, doc), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [2, False]
    assert "weights must sum to 1 within 1e-12, got 0.9" in proc.stderr


def test_marcinkiewicz_near_p_two_writes_its_results(tmp_path):
    # At p = 1.999 the p-oscillation's second block end, 2^3998, would
    # overflow a float; every end past N is clipped to N uncomputed.
    doc = dict(E1_DOC, experiment="marcinkiewicz", parameters={"p": 1.999, "N": 5000},
               seeds=[1])
    out = tmp_path / "out"
    src = str(Path(subexp.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, src, write_cfg(tmp_path, doc), str(out)],
        capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])[0] in (0, 1)
    assert (out / "results.csv").is_file()
    assert "osc_scaled_sup" in (out / "results.csv").read_text()


@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_exits_two_before_the_experiment_runs(tmp_path, capsys, monkeypatch,
                                                            under):
    def driver(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("subexp.run_axioms", driver)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    assert main(["run", write_cfg(tmp_path, E1_DOC), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert blocker.read_text() == ""


def test_run_seed_override_flag(tmp_path):
    doc = dict(E1_DOC, experiment="three_series",
               parameters={"N": 2000, "N0": 200})
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["run", cfg, "--seed-override", "9", "--out", str(out)])
    assert code in (0, 1)
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seeds"] == [9]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_run_seed_override_outside_the_hash_range_exits_two(tmp_path, capsys, seed):
    out = tmp_path / "out"
    code = main(["run", write_cfg(tmp_path, E1_DOC), "--seed-override", seed, "--out", str(out)])
    assert code == 2
    assert f"error: --seed-override: seed {seed} outside [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("parameter, value, message", [
    pytest.param("c", 0.0, "truncation level must be positive", id="0.0"),
    pytest.param("c", -1.0, "truncation level must be positive", id="-1.0"),
    pytest.param("scale_exponent", 0.0, "level exponent must be positive",
                 id="scale_exponent-0.0"),
])
def test_three_series_with_a_nonpositive_level_exits_two(tmp_path, capsys, parameter, value,
                                                         message):
    doc = dict(E1_DOC, experiment="three_series",
               parameters={"N": 2000, "N0": 200, parameter: value})
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert f"error: {parameter}: the {message}" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_run_jobs_flag_preserves_bytes(tmp_path):
    doc = dict(E1_DOC, experiment="inequality_grid",
               parameters={"ns": [4, 8], "xs": [1.0, 2.0], "whichs": ["kolmogorov_upper"]})
    cfg = write_cfg(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b"), "--jobs", "8"]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, E1_DOC), "--out", str(out), "--jobs", jobs]) == 2
    assert f"error: --jobs: need at least 1 worker thread, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_help_counts_the_calling_thread():
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    (jobs,) = [a for a in subparsers.choices["run"]._actions if "--jobs" in a.option_strings]
    assert jobs.help == "worker threads, the calling thread included"


def test_unknown_command_rejected():
    for command in ("frobnicate", "check-axioms"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2


def test_readme_command_line_names_every_subcommand():
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("subexp ")]
    assert sorted(named) == sorted(subparsers.choices)
