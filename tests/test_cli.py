import pytest

from fracctrl.cli import main
from fracctrl.harness import (ExperimentConfig, read_table_csv, render_table,
                              run_spatial_study, run_temporal_study)
from fracctrl.problem import default_experiment_spec, to_config_text


def test_forward_command(capsys):
    rc = main(["forward", "--alpha", "0.5", "--m", "4", "--n", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L2(L2) error" in out
    err = float(out.strip().rsplit("=", 1)[1])
    assert 0.0 < err < 0.1


def test_ocp_command_with_export(tmp_path, capsys):
    out = tmp_path / "control.csv"
    rc = main(["ocp", "--alpha", "0.8", "--m", "4", "--n", "16",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "converged in" in text and "J =" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 32 * 17
    vals = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert max(abs(v) for v in vals) <= 0.1 + 1e-14


def test_ocp_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "instance.cfg"
    cfg.write_text(to_config_text(default_experiment_spec(0.6, 0.25)))
    rc = main(["ocp", "--m", "3", "--n", "8", "--config", str(cfg)])
    assert rc == 0
    assert "optimality residual" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["nu", "T", "y0.c"])
def test_ocp_config_names_a_non_finite_key(key, tmp_path, capsys):
    cfg = tmp_path / "instance.cfg"
    text = to_config_text(default_experiment_spec(0.8, 0.0))
    cfg.write_text(text.replace(f"{key} = 1.0", f"{key} = inf"))
    rc = main(["ocp", "--m", "3", "--n", "8", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: config value out of range for {key}\n"


@pytest.mark.parametrize("flag", ["--alpha", "--r"])
def test_ocp_config_rejects_a_problem_flag(flag, tmp_path, capsys):
    # the file sets alpha and r: a flag for either would be ignored
    cfg = tmp_path / "instance.cfg"
    cfg.write_text(to_config_text(default_experiment_spec(0.8, 0.0)))
    rc = main(["ocp", "--m", "3", "--n", "8", "--config", str(cfg), flag, "0.3"])
    assert rc == 2
    assert flag in capsys.readouterr().err


def test_study_temporal_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["study", "temporal", "--alpha", "0.7", "--m", "3,4",
               "--m-ref", "5", "--n", "8", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    table = read_table_csv(out.read_text())
    assert [r[0] for r in table.rows] == [8, 16]
    assert table.rows[1][2] == table.rows[1][2]  # order present in second row


def test_study_spatial_text(capsys):
    rc = main(["study", "spatial", "--alpha", "0.7", "--m", "3",
               "--n", "4,8", "--n-ref", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "errY" in out and "alpha=0.7" in out


def test_study_uniform_flag(capsys):
    rc = main(["study", "temporal", "--alpha", "0.7", "--m", "3,4",
               "--m-ref", "5", "--n", "8", "--uniform", "--format", "csv"])
    assert rc == 0
    assert "param,errY" in capsys.readouterr().out


@pytest.mark.parametrize("argv, cfg", [
    (["spatial", "--r", "0.25", "--sigma2", "1.5", "--m", "3", "--n", "4,8", "--n-ref", "16"],
     dict(kind="spatial-study", r=0.25, sigma2=1.5, points=(4, 8), reference=16, fixed=3)),
    (["temporal", "--m", "3,4", "--m-ref", "5", "--n", "8"],
     dict(kind="temporal-study", r=0.0, points=(3, 4), reference=5, fixed=8)),
    (["temporal", "--uniform", "--m", "3,4", "--m-ref", "5", "--n", "8"],
     dict(kind="temporal-study", r=0.0, grading="uniform", points=(3, 4), reference=5, fixed=8)),
])
def test_study_csv_matches_the_library(argv, cfg, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["study", *argv, "--alpha", "0.7", "--format", "csv", "--out", str(out)]) == 0
    cfg = ExperimentConfig(alpha=0.7, **cfg)
    run = run_spatial_study if cfg.kind == "spatial-study" else run_temporal_study
    assert out.read_bytes() == render_table(run(cfg), "csv").encode()


def test_error_exit_code(capsys):
    rc = main(["ocp", "--alpha", "1.5", "--m", "3", "--n", "8"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_extra_values_on_frozen_axis_rejected(capsys):
    # the spatial study freezes m, the temporal study freezes n: a second
    # value there would be ignored, so it is an error that names the flag
    for axis, flag, argv in (("spatial", "--m", ["--m", "3,9", "--n", "4,6", "--n-ref", "8"]),
                             ("temporal", "--n", ["--m", "3,4", "--m-ref", "5", "--n", "8,16"])):
        rc = main(["study", axis, "--alpha", "0.7", *argv])
        assert rc == 2
        assert flag in capsys.readouterr().err


def test_uniform_spatial_study_rejected(capsys):
    rc = main(["study", "spatial", "--uniform", "--alpha", "0.5"])
    assert rc == 2
    assert "graded" in capsys.readouterr().err


def test_paper_scale_flag_exists():
    import argparse
    from fracctrl.cli import _build_parser
    parser = _build_parser()
    sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)][0]
    help_text = sub.choices["study"].format_help()
    assert "--paper-scale" in help_text
    # the fixed point sets its own damping, tolerance and cap: no subcommand
    # takes --theta or --tol
    for name in ("ocp", "study"):
        help_text = sub.choices[name].format_help()
        assert "--theta" not in help_text and "--tol" not in help_text


@pytest.mark.parametrize("argv", [
    ["forward", "--tol", "1e-9"],
    ["forward", "--max-iter", "5"],
    ["forward", "--theta", "0.5"],
    ["forward", "--format", "text"],
    ["ocp", "--format", "csv"],
])
def test_flag_a_subcommand_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--m", "3", "--n", "8"])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ocp", "--theta", "0.5"],
    ["study", "temporal", "--theta", "0.5"],
    ["ocp", "--tol", "1e-9"],
    ["study", "temporal", "--tol", "1e-9"],
    ["ocp", "--max-iter", "5"],
    ["study", "temporal", "--max-iter", "5"],
])
def test_theta_flag_is_rejected(argv, capsys):
    # the solver's settings are not flags: damping, tolerance and cap
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--m", "3", "--n", "8"])
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("axis, flag", [("spatial", "--m-ref"), ("temporal", "--n-ref")])
def test_reference_flag_on_the_other_axis_rejected(axis, flag, capsys):
    rows = (["--m", "3", "--n", "4,8", "--n-ref", "16"] if axis == "spatial"
            else ["--m", "3,4", "--m-ref", "5", "--n", "8"])
    rc = main(["study", axis, "--alpha", "0.7", *rows, flag, "99"])
    assert rc == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ocp", "--m", "0"], ["ocp", "--m", "-1"],
                                  ["forward", "--m", "0"], ["study", "temporal", "--m", "0,3"],
                                  ["study", "spatial", "--m", "0", "--n", "4,8"]])
def test_temporal_level_below_one_names_the_flag(argv, capsys):
    # M = 2^m: m = 0 gives M = 1 and m = -1 gives 0.5, which the grid builder
    # refuses as M, a name the user never typed
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--m must be at least 1" in err and "M must" not in err
