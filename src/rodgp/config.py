"""Run configuration files: parsing, defaults, hashing, seed derivation.

A run config is a JSON document with sections rod / prior / noise /
scenario / solver plus a seed. Missing keys fall back to the reference
study defaults; unknown keys are rejected with their dotted path so
typos never silently revert to defaults. The filled document has a
canonical hash recorded in every output for provenance, and all
randomness is derived from the one seed via per-purpose tags.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .rodsim import MeasurementNoise, RodProperties, Scenario
from .study import ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration file content."""


def default_config() -> dict:
    """The reference study configuration as a plain JSON-ready dict, read
    off the defaults of RodProperties and ScenarioConfig."""
    props, settings = RodProperties.default(), ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS)
    noise = settings.noise
    return {
        "rod": {
            "E_pa": props.young_modulus,
            "poisson": props.poisson,
            "diameter_m": props.diameter,
            "segment_lengths_m": list(props.segment_lengths),
            "pitch_radius_m": props.pitch_radius,
            "disks_per_segment": props.disks_per_segment,
            "tendons": [
                {"segment": seg, "theta_rad": theta} for seg, theta in props.tendons
            ],
        },
        "prior": {
            "qc_diag": list(settings.qc_diag),
            "eps_bar": list(settings.eps_bar),
            "K": settings.num_intervals,
            "M": settings.states_per_interval,
        },
        "noise": {
            "sigma_t_m": noise.sigma_t,
            "sigma_a_rad": noise.sigma_a,
            "sigma_nu": noise.sigma_nu,
            "sigma_omega": noise.sigma_omega,
            "r_inflation": noise.r_inflation,
        },
        "scenario": {
            "type": settings.scenario.value,
            "locks": {
                "root_pose": settings.lock_root_pose,
                "tip_strain": settings.lock_tip_strain,
                "translational_strains": settings.lock_translational_strains,
            },
        },
        "solver": {"max_iters": settings.max_iters, "tol": settings.step_tol},
        "seed": 0,
    }


def _check_type(default, value, path):
    """Reject a value whose JSON type differs from its default's, naming
    its dotted path. An integer default takes integral numbers only; the
    items of a list of scalars are checked against its first default."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok, kind = {
        dict: (isinstance(value, dict), "an object"),
        list: (isinstance(value, list), "a list"),
        bool: (isinstance(value, bool), "true or false"),
        int: (number and float(value).is_integer(), "an integer"),
        float: (number, "a number"),
        str: (isinstance(value, str), "a string"),
    }[type(default)]
    if not ok:
        raise ConfigError(f"{path or 'top level'}: expected {kind}, got {json.dumps(value)}")
    if isinstance(default, list) and not isinstance(default[0], dict):
        for i, item in enumerate(value):
            _check_type(default[0], item, f"{path}[{i}]")


def _merge(defaults, user, path):
    """Defaults overridden by user values, rejecting unknown keys and
    values of the wrong type.

    Lists replace wholesale; dicts merge recursively. The tendons list is
    special-cased because its item schema is fixed.
    """
    _check_type(defaults, user, path)
    if not isinstance(defaults, dict):
        return user
    unknown = set(user) - set(defaults)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{path + '.' if path else ''}{key}'")
    return {
        key: _merge(defaults[key], user[key], f"{path + '.' if path else ''}{key}")
        if key in user
        else defaults[key]
        for key in defaults
    }


def _check_tendons(tendons):
    for i, item in enumerate(tendons):
        if not isinstance(item, dict):
            raise ConfigError(f"rod.tendons[{i}]: expected an object")
        unknown = set(item) - {"segment", "theta_rad"}
        if unknown:
            raise ConfigError(f"unknown key 'rod.tendons[{i}].{sorted(unknown)[0]}'")
        missing = {"segment", "theta_rad"} - set(item)
        if missing:
            raise ConfigError(f"rod.tendons[{i}]: missing '{sorted(missing)[0]}'")
        _check_type(0, item["segment"], f"rod.tendons[{i}].segment")
        _check_type(0.0, item["theta_rad"], f"rod.tendons[{i}].theta_rad")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration with domain objects and the filled document."""

    document: dict

    def __post_init__(self):
        _check_tendons(self.document["rod"]["tendons"])
        try:
            self.props()
            self.scenario()
            self.noise()
            self.scenario_config()
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            # TypeError: a value of the wrong JSON type, e.g. null or a scalar for a list.
            raise ConfigError(str(exc)) from exc

    def props(self) -> RodProperties:
        rod = self.document["rod"]
        return RodProperties(
            young_modulus=float(rod["E_pa"]),
            poisson=float(rod["poisson"]),
            diameter=float(rod["diameter_m"]),
            segment_lengths=tuple(rod["segment_lengths_m"]),
            pitch_radius=float(rod["pitch_radius_m"]),
            tendons=tuple((t["segment"], t["theta_rad"]) for t in rod["tendons"]),
            disks_per_segment=int(rod["disks_per_segment"]),
        )

    def scenario(self) -> Scenario:
        return Scenario(self.document["scenario"]["type"])

    def noise(self) -> MeasurementNoise:
        n = self.document["noise"]
        return MeasurementNoise(
            sigma_t=float(n["sigma_t_m"]),
            sigma_a=float(n["sigma_a_rad"]),
            sigma_nu=float(n["sigma_nu"]),
            sigma_omega=float(n["sigma_omega"]),
            r_inflation=float(n["r_inflation"]),
        )

    @property
    def seed(self) -> int:
        return int(self.document["seed"])

    def scenario_config(self, scenario: Scenario | None = None) -> ScenarioConfig:
        """Study settings for the config's scenario (or an override)."""
        doc = self.document
        locks = doc["scenario"]["locks"]
        if scenario is None:
            scenario = self.scenario()
        return ScenarioConfig(
            scenario=scenario,
            noise=self.noise(),
            qc_diag=tuple(doc["prior"]["qc_diag"]),
            eps_bar=tuple(doc["prior"]["eps_bar"]),
            num_intervals=int(doc["prior"]["K"]),
            states_per_interval=int(doc["prior"]["M"]),
            lock_root_pose=bool(locks["root_pose"]),
            lock_tip_strain=bool(locks["tip_strain"]),
            lock_translational_strains=bool(locks["translational_strains"]),
            max_iters=int(doc["solver"]["max_iters"]),
            step_tol=float(doc["solver"]["tol"]),
            seed=derive_seed(self.seed, f"study:{scenario.value}"),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.document).encode()).hexdigest()


def canonical_json(document) -> str:
    """Key-sorted, whitespace-free JSON for hashing and byte-stable output."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def parse_config(document: dict) -> RunConfig:
    """Fill defaults and validate an already-decoded config document."""
    filled = _merge(default_config(), document, "")
    return RunConfig(filled)


def load_config(path) -> RunConfig:
    """Load a config file; {} or a missing 'seed' etc. take defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(document)


def derive_seed(seed: int, purpose: str) -> int:
    """Per-purpose RNG seed: the config seed XOR a tag digest.

    The tag digest is the first 8 bytes (big endian) of SHA-256 of the
    purpose string, so distinct pipeline stages never share a stream.
    """
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "big")
    return (int(seed) ^ tag) & 0xFFFFFFFFFFFFFFFF


def measurement_rng(config: RunConfig, scenario: Scenario, run_index: int):
    """The measurement-noise stream for one run of one scenario.

    Matches the stream run_study uses, so a single `estimate` invocation
    sees exactly the measurements the batch evaluation saw.
    """
    return np.random.default_rng(
        [derive_seed(config.seed, f"study:{scenario.value}"), run_index]
    )
