import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodgp import cli, rodsim
from rodgp.config import derive_seed, load_config, measurement_rng, parse_config

SRC = Path(cli.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small simulated dataset plus one estimate, shared by the tests."""
    path = tmp_path_factory.mktemp("cli")
    config = path / "config.json"
    config.write_text(json.dumps({"prior": {"K": 10, "M": 2}, "seed": 3}))
    dataset = path / "data.json"
    assert (
        cli.main(["simulate", "--config", str(config), "--count", "2", "--out", str(dataset)])
        == cli.EXIT_OK
    )
    estimate = path / "est.json"
    assert (
        cli.main(
            [
                "estimate",
                "--config",
                str(config),
                "--dataset",
                str(dataset),
                "--run-index",
                "0",
                "--out",
                str(estimate),
            ]
        )
        == cli.EXIT_OK
    )
    return path


def test_simulate_output_structure(workdir):
    doc = json.loads((workdir / "data.json").read_text())
    expected_hash = parse_config({"prior": {"K": 10, "M": 2}, "seed": 3}).config_hash()
    assert doc["meta"] == {"seed": 3, "config_hash": expected_hash}
    assert len(doc["runs"]) == 2
    run = doc["runs"][0]
    assert len(run["actuation"]) == 8
    assert len(run["tip_wrench"]) == 6
    assert len(run["states"]) == 407
    state = run["states"][0]
    assert len(state["T"]) == 16 and len(state["eps"]) == 6 and len(state["sigma"]) == 6


def test_simulate_rerun_is_byte_identical(workdir):
    out = workdir / "data_again.json"
    code = cli.main(
        ["simulate", "--config", str(workdir / "config.json"), "--count", "2", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (workdir / "data.json").read_bytes()


def test_estimate_output_structure(workdir):
    doc = json.loads((workdir / "est.json").read_text())
    assert doc["converged"] is True
    assert doc["meta"]["run_index"] == 0
    assert doc["meta"]["scenario"] == "pose_at_segment_ends"
    assert doc["meta"]["init"] == "straight"
    # 10 intervals over 0.28 m put both sensed arclengths on nodes.
    assert len(doc["problem"]["grid"]) == 11
    assert len(doc["nodes"]) == 11
    assert len(doc["interpolated"]) == 2 * 10
    assert [m["kind"] for m in doc["problem"]["measurements"]] == ["pose", "pose"]
    assert len(doc["nodes"][0]["cov"]) == 144
    costs = doc["cost_history"]
    assert len(costs) == doc["iterations"] + 1
    assert costs[-1] < costs[0]


def test_estimate_rerun_is_byte_identical(workdir):
    out = workdir / "est_again.json"
    code = cli.main(
        [
            "estimate",
            "--config",
            str(workdir / "config.json"),
            "--dataset",
            str(workdir / "data.json"),
            "--run-index",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == cli.EXIT_OK
    assert out.read_bytes() == (workdir / "est.json").read_bytes()


def test_estimate_flags(workdir):
    out = workdir / "est_flags.json"
    code = cli.main(
        [
            "estimate",
            "--config",
            str(workdir / "config.json"),
            "--dataset",
            str(workdir / "data.json"),
            "--run-index",
            "1",
            "--out",
            str(out),
            "--init",
            "model",
            "--lock-tip-strain",
        ]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["init"] == "model"
    assert doc["converged"] is True
    assert all(doc["problem"]["locks"][-1][6:12])


def test_estimate_non_convergence_still_writes(workdir, capsys):
    config = workdir / "oneiter.json"
    config.write_text(
        json.dumps({"prior": {"K": 10, "M": 2}, "solver": {"max_iters": 1}, "seed": 3})
    )
    out = workdir / "est_oneiter.json"
    code = cli.main(
        [
            "estimate",
            "--config",
            str(config),
            "--dataset",
            str(workdir / "data.json"),
            "--run-index",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["iterations"] == 1


def test_exit_codes(workdir, tmp_path, capsys):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"noise": {"sigma_q": 1}}')
    code = cli.main(
        ["simulate", "--config", str(bad_config), "--count", "1", "--out", str(tmp_path / "x.json")]
    )
    assert code == cli.EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err

    code = cli.main(
        [
            "simulate",
            "--config",
            str(tmp_path / "missing.json"),
            "--count",
            "1",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == cli.EXIT_CONFIG

    code = cli.main(
        [
            "estimate",
            "--config",
            str(workdir / "config.json"),
            "--dataset",
            str(workdir / "data.json"),
            "--run-index",
            "5",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == cli.EXIT_CONFIG
    assert "out of range" in capsys.readouterr().err

    code = cli.main(
        [
            "estimate",
            "--config",
            str(workdir / "config.json"),
            "--dataset",
            str(tmp_path / "nodata.json"),
            "--run-index",
            "0",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == cli.EXIT_IO

    code = cli.main(
        [
            "simulate",
            "--config",
            str(workdir / "config.json"),
            "--count",
            "1",
            "--out",
            str(tmp_path / "no_such_dir" / "x.json"),
        ]
    )
    assert code == cli.EXIT_IO


def test_sample_prior(workdir):
    out = workdir / "prior.json"
    code = cli.main(
        ["sample-prior", "--config", str(workdir / "config.json"), "--count", "3", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["samples"]) == 3
    assert len(doc["samples"][0]) == 11
    assert doc["samples"][0][0]["s"] == 0.0

    empty = workdir / "prior_empty.json"
    code = cli.main(
        ["sample-prior", "--config", str(workdir / "config.json"), "--count", "0", "--out", str(empty)]
    )
    assert code == cli.EXIT_OK
    assert json.loads(empty.read_text())["samples"] == []


def test_sample_posterior_pins_locked_root(workdir):
    out = workdir / "post.json"
    code = cli.main(
        ["sample-posterior", "--solution", str(workdir / "est.json"), "--count", "4", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    est = json.loads((workdir / "est.json").read_text())
    assert doc["meta"]["config_hash"] == est["meta"]["config_hash"]
    assert len(doc["samples"]) == 4
    root_T = est["nodes"][0]["T"]
    for sample in doc["samples"]:
        assert len(sample) == 11
        assert sample[0]["T"] == root_T
        assert sample[1]["T"] != est["nodes"][1]["T"]


def test_evaluate_csv_layout(workdir):
    prefix = workdir / "ev"
    code = cli.main(
        [
            "evaluate",
            "--config",
            str(workdir / "config.json"),
            "--dataset",
            str(workdir / "data.json"),
            "--out-prefix",
            str(prefix),
        ]
    )
    assert code == cli.EXIT_OK

    profile = (workdir / "ev_profile.csv").read_text().splitlines()
    assert profile[0] == cli.PROFILE_HEADER
    assert len(profile) == 1 + 11 + 2 * 10
    first = [float(v) for v in profile[1].split(",")]
    assert first[0] == 0.0 and all(np.isfinite(first))

    summary = (workdir / "ev_summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,tip_pos_err_mean_m,tip_ang_err_mean_deg,runs,failures,config_hash"
    scenarios = [line.split(",")[0] for line in summary[1:]]
    assert scenarios == ["pose_at_segment_ends", "strain_at_disks", "strain_plus_tip_pose"]
    for line in summary[1:]:
        fields = line.split(",")
        assert float(fields[1]) > 0.0 and float(fields[2]) > 0.0
        assert fields[3] == "2" and fields[4] == "0"
        assert fields[5] == json.loads((workdir / "est.json").read_text())["meta"]["config_hash"]

    failures = (workdir / "ev_failures.csv").read_text().splitlines()
    assert failures == ["scenario,run_index,reason"]


def test_evaluate_reports_failures(workdir, capsys):
    # One-iteration solves never converge, so every run of every scenario
    # fails and the study itself aborts.
    config = workdir / "oneiter_eval.json"
    config.write_text(
        json.dumps({"prior": {"K": 10, "M": 2}, "solver": {"max_iters": 1}, "seed": 3})
    )
    code = cli.main(
        [
            "evaluate",
            "--config",
            str(config),
            "--dataset",
            str(workdir / "data.json"),
            "--out-prefix",
            str(workdir / "fail"),
        ]
    )
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "every run failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["simulate", "--config", "config.json", "--count", "0", "--out", "x.json"], "--count"),
        (
            ["simulate", "--config", "config.json", "--count", "2", "--loaded-fraction", "1.5", "--out", "x.json"],
            "--loaded-fraction",
        ),
        (["sample-prior", "--config", "config.json", "--count", "-1", "--out", "x.json"], "--count"),
        (["sample-posterior", "--solution", "est.json", "--count", "-1", "--out", "x.json"], "--count"),
    ],
)
def test_out_of_range_arguments_exit_2_with_one_line(workdir, capsys, argv, option):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"error: argument {option}:" in err
    assert not (workdir / "x.json").exists()


@pytest.mark.parametrize(
    "document",
    [
        {"seed": None},
        {"rod": {"segment_lengths_m": 5}},
        {"noise": {"sigma_t_m": None}},
        {"prior": {"qc_diag": 5}},
        {"rod": {"tendons": [{"segment": 0, "theta_rad": None}]}},
    ],
)
def test_config_values_of_the_wrong_type_exit_2_with_one_line(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "x.json"
    code = cli.main(["simulate", "--config", str(config), "--count", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_python_dash_m_runs_the_cli_without_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rodgp", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "simulate" in done.stdout


@pytest.mark.parametrize(
    "document, key",
    [({"prior": {"K": 10.9}}, "prior.K"), ({"rod": {"tendons": [{"segment": 0.5, "theta_rad": 0}]}}, "rod.tendons[0].segment")],
)
def test_non_integral_counts_exit_2_naming_the_key(tmp_path, capsys, document, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "x.json"
    code = cli.main(["simulate", "--config", str(config), "--count", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: expected an integer, got ")
    assert not out.exists()


def test_simulate_single_tendon_rod(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rod": {"tendons": [{"segment": 0, "theta_rad": 0}]}}))
    out = tmp_path / "data.json"
    code = cli.main(["simulate", "--config", str(config), "--count", "2", "--out", str(out)])
    assert code == cli.EXIT_OK
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2 and all(len(run["actuation"]) == 1 for run in runs)


def test_under_constrained_estimate_exits_3_with_one_line(workdir, tmp_path, capsys):
    # Without the root-pose lock, strain sensors alone leave the pose free.
    config = tmp_path / "free_root.json"
    config.write_text(
        json.dumps(
            {
                "prior": {"K": 10, "M": 2},
                "seed": 3,
                "scenario": {"type": "strain_at_disks", "locks": {"root_pose": False}},
            }
        )
    )
    out = tmp_path / "est.json"
    argv = ["estimate", "--config", str(config), "--dataset", str(workdir / "data.json")]
    code = cli.main(argv + ["--run-index", "0", "--out", str(out)])
    assert code == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: solver error: ") and err.count("\n") == 1
    assert not out.exists()


def test_sample_posterior_on_a_non_rotation_pose_exits_2(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "est.json").read_text())
    doc["nodes"][3]["T"][0] = 5.0
    solution = tmp_path / "bad_pose.json"
    solution.write_text(json.dumps(doc))
    out = tmp_path / "post.json"
    code = cli.main(["sample-posterior", "--solution", str(solution), "--count", "2", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {solution}: malformed solution file: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def flipped(tmp_path_factory):
    """A one-run dataset turned half a turn about z and sensed without angle
    noise, so every measured rotation lies on the log branch cut."""
    path = tmp_path_factory.mktemp("flipped")
    config = path / "config.json"
    config.write_text(json.dumps({"prior": {"K": 10, "M": 2}, "seed": 3, "noise": {"sigma_a_rad": 0}}))
    dataset = path / "data.json"
    assert cli.main(["simulate", "--config", str(config), "--count", "1", "--out", str(dataset)]) == cli.EXIT_OK
    doc = json.loads(dataset.read_text())
    for state in doc["runs"][0]["states"]:
        state["T"] = (np.diag([-1.0, -1.0, 1.0, 1.0]) @ np.reshape(state["T"], (4, 4))).ravel().tolist()
    dataset.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "command, outputs", [("estimate", ["--run-index", "0", "--out"]), ("evaluate", ["--out-prefix"])]
)
def test_rotation_on_the_branch_cut_exits_3_with_one_line(flipped, capsys, command, outputs):
    argv = [command, "--config", str(flipped / "config.json"), "--dataset", str(flipped / "data.json")]
    assert cli.main(argv + outputs + [str(flipped / command)]) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err == "error: solver error: rotation angle too close to pi for the principal branch\n"
    assert not list(flipped.glob(command + "*"))


def edited_solution(workdir, tmp_path, edit):
    """The shared estimate file after edit(document), written to tmp_path."""
    doc = json.loads((workdir / "est.json").read_text())
    edit(doc)
    solution = tmp_path / "edited.json"
    solution.write_text(json.dumps(doc))
    return solution


def meta_seed_text(doc):
    doc["meta"]["seed"] = "x"


def meta_seed_infinite(doc):
    doc["meta"]["seed"] = float("inf")


def meta_without_hash(doc):
    del doc["meta"]["config_hash"]


def meta_as_list(doc):
    doc["meta"] = [doc["meta"]["seed"], doc["meta"]["config_hash"]]


def nan_covariance(doc):
    doc["problem"]["measurements"][0]["R"][0] = float("nan")


def infinite_covariance(doc):
    doc["problem"]["measurements"][1]["R"][7] = float("inf")


def nan_strain(doc):
    sensor = doc["problem"]["measurements"][1]
    sensor["kind"], sensor["value"] = "strain", [1.0, 0.0, float("nan"), 0.0, 0.0, 0.0]


def unknown_kind(doc):
    doc["problem"]["measurements"][1]["kind"] = "twist"


@pytest.mark.parametrize(
    "edit, message",
    [
        (meta_seed_text, "invalid literal for int()"),
        (meta_seed_infinite, "cannot convert float infinity to integer"),
        (meta_without_hash, "'config_hash'"),
        (meta_as_list, "list indices must be integers"),
        (nan_covariance, "R must be finite"),
        (infinite_covariance, "R must be finite"),
        (nan_strain, "eps_meas must be finite"),
        (unknown_kind, "kind must be 'pose' or 'strain', got 'twist'"),
    ],
)
def test_sample_posterior_on_a_malformed_solution_exits_2_naming_it(workdir, tmp_path, capsys, edit, message):
    solution = edited_solution(workdir, tmp_path, edit)
    out = tmp_path / "post.json"
    code = cli.main(["sample-posterior", "--solution", str(solution), "--count", "2", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {solution}: malformed solution file: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_estimate_writes_the_measurements_it_solved_with(workdir):
    cfg = load_config(workdir / "config.json")
    scen_cfg = cfg.scenario_config()
    _, shape = cli._load_dataset(workdir / "data.json")[0]
    rng = measurement_rng(cfg, scen_cfg.scenario, 0)
    solved = rodsim.extract_measurements(shape, scen_cfg.scenario, cfg.props(), scen_cfg.noise, rng)
    doc = json.loads((workdir / "est.json").read_text())
    read = cli._measurements_from_docs(doc["problem"]["measurements"])
    for field in ("s", "kind", "mask", "R", "T_meas", "eps_meas"):
        assert getattr(read, field).shape == getattr(solved, field).shape
        np.testing.assert_array_equal(getattr(read, field), getattr(solved, field))
    assert cli._measurement_docs(read) == doc["problem"]["measurements"]


def test_load_dataset_gives_the_simulated_arrays(workdir):
    cfg = load_config(workdir / "config.json")
    simulated = rodsim.sample_dataset(cfg.props(), 2, seed=derive_seed(cfg.seed, "dataset"))
    loaded = cli._load_dataset(workdir / "data.json")
    assert len(loaded) == len(simulated)
    for (read_actuation, read), (actuation, shape) in zip(loaded, simulated):
        assert read_actuation == actuation
        for name in ("s", "T", "eps"):
            np.testing.assert_array_equal(getattr(read.nodes, name), getattr(shape.nodes, name))
        np.testing.assert_array_equal(read.sigma, shape.sigma)


def sample(doc):
    """An unsensed dense sample of the first run."""
    return doc["runs"][0]["states"][5]


def short_pose(doc):
    del sample(doc)["T"][-1]


def nan_pose(doc):
    sample(doc)["T"][3] = float("nan")


def non_rotation_pose(doc):
    sample(doc)["T"][0] = 5.0


def nan_arclength(doc):
    sample(doc)["s"] = float("nan")


def infinite_strain(doc):
    sample(doc)["eps"][2] = float("inf")


def descending_arclengths(doc):
    states = doc["runs"][0]["states"]
    states[5]["s"], states[6]["s"] = states[6]["s"], states[5]["s"]


def no_states(doc):
    doc["runs"][0]["states"] = []


def no_runs(doc):
    doc["runs"] = []


@pytest.mark.parametrize(
    "command, outputs", [("estimate", ["--run-index", "0", "--out"]), ("evaluate", ["--out-prefix"])]
)
@pytest.mark.parametrize(
    "edit, message",
    [
        (short_pose, "inhomogeneous shape"),
        (nan_pose, "T must be finite"),
        (non_rotation_pose, "rotation block is not orthonormal within tolerance"),
        (nan_arclength, "s must be finite"),
        (infinite_strain, "eps must be finite"),
        (descending_arclengths, "dense samples must ascend in arclength"),
        (no_states, "need at least one dense sample"),
        (no_runs, "no runs"),
    ],
)
def test_a_malformed_dataset_exits_2_naming_it(workdir, tmp_path, capsys, command, outputs, edit, message):
    doc = json.loads((workdir / "data.json").read_text())
    edit(doc)
    dataset = tmp_path / "edited.json"
    dataset.write_text(json.dumps(doc))
    argv = [command, "--config", str(workdir / "config.json"), "--dataset", str(dataset)]
    assert cli.main(argv + outputs + [str(tmp_path / command)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {dataset}: malformed dataset: ") and err.count("\n") == 1
    assert message in err
    assert not list(tmp_path.glob(command + "*"))
