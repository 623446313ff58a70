"""Command-line pipeline: simulate, estimate, sample, evaluate.

All commands read one JSON run config, record its hash in their outputs,
and derive every random stream from the single config seed, so rerunning
any command with the same inputs produces byte-identical files.

Exit codes: 0 success, 2 configuration or argument error, 3 solver
non-convergence or solver error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import rodsim, se3, solver, study
from .config import ConfigError, RunConfig, derive_seed, load_config, measurement_rng
from .measurements import Measurements
from .prior import PriorHyperparams, StateNode, sample_prior, uniform_grid
from .rodsim import Actuation, GroundTruthShape, Scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def _vec(x) -> list:
    return [float(v) for v in np.asarray(x).reshape(-1)]


def _write_json(path, document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {"seed": cfg.seed, "config_hash": cfg.config_hash()}
    meta.update(extra)
    return meta


def _state_docs(nodes: StateNode, **extra) -> list:
    """One document per node of a stack: its s, T and eps, then each extra
    per-node array under its keyword, flattened."""
    columns = {"T": nodes.T, "eps": nodes.eps, **extra}
    flat = [np.asarray(column, dtype=float).reshape(len(nodes), -1).tolist() for column in columns.values()]
    return [{"s": s, **dict(zip(columns, row))} for s, *row in zip(nodes.s.tolist(), *flat)]


def _nodes_from_docs(docs) -> StateNode:
    """The stacked StateNode of per-state documents, in their order."""
    n = len(docs)
    return StateNode(
        np.array([doc["s"] for doc in docs], dtype=float).reshape(n),
        np.array([doc["T"] for doc in docs], dtype=float).reshape(n, 4, 4),
        np.array([doc["eps"] for doc in docs], dtype=float).reshape(n, 6),
    )


def _shape_docs(samples) -> list:
    return [_state_docs(nodes) for nodes in samples]


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    props = cfg.props()
    dataset = rodsim.sample_dataset(
        props,
        args.count,
        loaded_fraction=args.loaded_fraction,
        seed=derive_seed(cfg.seed, "dataset"),
    )
    runs = [
        {
            "actuation": _vec(actuation.tensions),
            "tip_wrench": _vec(actuation.tip_wrench),
            "states": _state_docs(shape.nodes, sigma=shape.sigma),
        }
        for actuation, shape in dataset
    ]
    _write_json(args.out, {"meta": _meta(cfg), "runs": runs})
    return EXIT_OK


def _load_dataset(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid dataset JSON: {exc.msg}") from exc
    try:
        dataset = []
        for run in document["runs"]:
            actuation = Actuation(tuple(run["actuation"]), tuple(run["tip_wrench"]))
            sigma = np.array([st["sigma"] for st in run["states"]], dtype=float)
            shape = GroundTruthShape(_nodes_from_docs(run["states"]), sigma)
            se3.check_pose(shape.nodes.T)
            dataset.append((actuation, shape))
        if not dataset:
            raise ValueError("no runs")
        return dataset
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed dataset: {exc}") from exc


def _measurement_docs(measurements: Measurements) -> list:
    """One document per sensor of a one-run container, in sensor order."""
    values = {"pose": iter(measurements.T_meas), "strain": iter(measurements.eps_meas)}
    return [
        {"kind": kind, "s": float(s), "value": _vec(next(values[kind])), "R": _vec(R), "mask": [bool(b) for b in mask]}
        for kind, s, R, mask in zip(measurements.kind.tolist(), measurements.s, measurements.R, measurements.mask)
    ]


def _measurements_from_docs(docs) -> Measurements:
    """The container of the per-sensor documents, in their order."""
    kind = [doc["kind"] for doc in docs]

    def values(which, shape):
        picked = [doc["value"] for doc, k in zip(docs, kind) if k == which]
        return np.array(picked, dtype=float).reshape((len(picked),) + shape)

    return Measurements(
        s=[doc["s"] for doc in docs],
        kind=kind,
        mask=np.array([doc["mask"] for doc in docs], dtype=bool).reshape(len(docs), 6),
        R=np.array([doc["R"] for doc in docs], dtype=float).reshape(len(docs), 6, 6),
        T_meas=values("pose", (4, 4)),
        eps_meas=values("strain", (6,)),
    )


def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    props = cfg.props()
    dataset = _load_dataset(args.dataset)
    if not 0 <= args.run_index < len(dataset):
        raise ConfigError(
            f"run index {args.run_index} out of range for {len(dataset)} runs"
        )
    scen_cfg = cfg.scenario_config()
    if args.lock_tip_strain:
        scen_cfg = dataclasses.replace(scen_cfg, lock_tip_strain=True)
    _, shape = dataset[args.run_index]
    rng = measurement_rng(cfg, scen_cfg.scenario, args.run_index)
    measurements = rodsim.extract_measurements(
        shape, scen_cfg.scenario, props, scen_cfg.noise, rng
    )
    record = study.run_single(props, shape, measurements, scen_cfg, args.init)
    solution = record.solution
    docs = _state_docs(record.states, cov=record.covs)
    nodes_doc = [doc for doc, node in zip(docs, record.is_node) if node]
    interp_doc = [doc for doc, node in zip(docs, record.is_node) if not node]
    out = {
        "meta": _meta(
            cfg,
            run_index=args.run_index,
            scenario=scen_cfg.scenario.value,
            init=args.init,
        ),
        "problem": {
            "grid": _vec(solution.grid),
            "qc_diag": list(scen_cfg.qc_diag),
            "eps_bar": list(scen_cfg.eps_bar),
            "locks": [[bool(b) for b in row] for row in solution.problem.locks],
            "measurements": _measurement_docs(measurements),
        },
        "nodes": nodes_doc,
        "interpolated": interp_doc,
        "cost_history": [float(c) for c in solution.cost_history],
        "iterations": solution.iterations,
        "converged": bool(solution.converged),
    }
    _write_json(args.out, out)
    if not solution.converged:
        print(
            f"solver did not converge in {solution.iterations} iterations; "
            f"cost history written to {args.out}",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_sample_prior(args) -> int:
    cfg = load_config(args.config)
    scen_cfg = cfg.scenario_config()
    grid = uniform_grid(cfg.props().total_length, scen_cfg.num_intervals)
    rng = np.random.default_rng(derive_seed(cfg.seed, "sample-prior"))
    samples = sample_prior(scen_cfg.hyperparams(), grid, args.count, rng)
    _write_json(args.out, {"meta": _meta(cfg), "samples": _shape_docs(samples)})
    return EXIT_OK


def cmd_sample_posterior(args) -> int:
    with open(args.solution, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.solution}: invalid JSON: {exc.msg}") from exc
    try:
        problem_doc = document["problem"]
        grid = np.array(problem_doc["grid"], dtype=float)
        hyper_kwargs = dict(
            Qc=np.diag(problem_doc["qc_diag"]),
            eps_bar=np.array(problem_doc["eps_bar"], dtype=float),
        )
        locks = np.array(problem_doc["locks"], dtype=bool)
        measurements = _measurements_from_docs(problem_doc["measurements"])
        states = sorted(
            document["nodes"] + document["interpolated"], key=lambda st: st["s"]
        )
        nodes = _nodes_from_docs(
            [st for st in states if any(abs(st["s"] - g) < solver.NODE_MATCH_TOL for g in grid)]
        )
        meta = document["meta"]
        out_meta = {"seed": int(meta["seed"]), "config_hash": meta["config_hash"]}
        problem = solver.Problem(
            grid, PriorHyperparams(**hyper_kwargs), measurements, nodes, locks
        )
        solution = solver.factorize(problem)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{args.solution}: malformed solution file: {exc}") from exc
    rng = np.random.default_rng(derive_seed(out_meta["seed"], "sample-posterior"))
    samples = solver.sample_posterior(solution, args.count, rng)
    _write_json(args.out, {"meta": out_meta, "samples": _shape_docs(samples)})
    return EXIT_OK


PROFILE_HEADER = (
    "s_m,pos_err_mean_m,pos_err_std_m,pos_err_min_m,pos_err_max_m,"
    "ang_err_mean_deg,ang_err_std_deg,ang_err_min_deg,ang_err_max_deg"
)


def _write_profile(path, profile: study.ErrorProfile) -> None:
    lines = [PROFILE_HEADER]
    for i in range(profile.arclengths.size):
        row = (
            profile.arclengths[i],
            profile.pos_mean[i],
            profile.pos_std[i],
            profile.pos_min[i],
            profile.pos_max[i],
            profile.ang_mean[i],
            profile.ang_std[i],
            profile.ang_min[i],
            profile.ang_max[i],
        )
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    props = cfg.props()
    dataset = _load_dataset(args.dataset)
    results = {}
    for scenario in Scenario:
        results[scenario] = study.run_study(
            props, dataset, cfg.scenario_config(scenario)
        )
    _write_profile(f"{args.out_prefix}_profile.csv", results[cfg.scenario()].profile)

    summary = ["scenario,tip_pos_err_mean_m,tip_ang_err_mean_deg,runs,failures,config_hash"]
    config_hash = cfg.config_hash()
    for scenario in Scenario:
        result = results[scenario]
        tip_pos, tip_ang = result.profile.tip_errors()
        summary.append(
            f"{scenario.value},{tip_pos!r},{tip_ang!r},"
            f"{result.profile.run_count},{len(result.failures)},{config_hash}"
        )
    with open(f"{args.out_prefix}_summary.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")

    failures = ["scenario,run_index,reason"]
    for scenario in Scenario:
        for index, reason in results[scenario].failures:
            failures.append(f'{scenario.value},{index},"{reason}"')
    with open(f"{args.out_prefix}_failures.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(failures) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument in one line on stderr and exits with EXIT_CONFIG."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _ranged(kind, low, high=math.inf):
    """argparse type: a value of `kind` in [low, high]."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} in [{low}, {high}], got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rodgp",
        description="Continuum-robot state estimation pipeline on simulated data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a dataset of static equilibria")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=_ranged(int, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loaded-fraction", type=_ranged(float, 0.0, 1.0), default=0.5)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate one dataset run")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--run-index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", choices=("measured", "straight", "model"), default="measured")
    p.add_argument("--lock-tip-strain", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sample-prior", help="draw shape samples from the prior")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=_ranged(int, 0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_prior)

    p = sub.add_parser("sample-posterior", help="draw samples around an estimate")
    p.add_argument("--solution", required=True)
    p.add_argument("--count", type=_ranged(int, 0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_posterior)

    p = sub.add_parser("evaluate", help="run all scenario studies and emit CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, se3.BranchError) as exc:
        print(f"error: solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
