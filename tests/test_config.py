import hashlib
import json

import numpy as np
import pytest

from rodgp import config as cfg
from rodgp.config import ConfigError
from rodgp.rodsim import RodProperties, Scenario
from rodgp.study import ScenarioConfig


def test_empty_document_takes_defaults():
    run = cfg.parse_config({})
    assert run.document == cfg.default_config()
    assert run.props() == RodProperties.default()
    assert run.scenario() is Scenario.POSE_AT_SEGMENT_ENDS
    assert run.noise().sigma_t == pytest.approx(1e-3)
    assert run.seed == 0


def test_defaults_are_the_study_defaults():
    # The document's defaults are read off ScenarioConfig and
    # MeasurementNoise, so an empty document gives their settings, under
    # the hash that every output file of the reference config records.
    run = cfg.parse_config({})
    for scenario in Scenario:
        expected = ScenarioConfig(scenario, seed=cfg.derive_seed(0, f"study:{scenario.value}"))
        assert run.scenario_config(scenario) == expected
    assert run.config_hash() == "37cfca577de85139d9a5a00951ce8a06ec140defd3d84f39fd2d3553815e568f"


def test_partial_override_merges():
    run = cfg.parse_config({"seed": 7, "noise": {"sigma_t_m": 0.002}})
    assert run.seed == 7
    assert run.noise().sigma_t == pytest.approx(0.002)
    assert run.noise().sigma_a == pytest.approx(0.01)  # untouched default


def test_unknown_keys_reported_with_dotted_path():
    with pytest.raises(ConfigError, match="unknown key 'noise.sigma_q'"):
        cfg.parse_config({"noise": {"sigma_q": 1.0}})
    with pytest.raises(ConfigError, match="unknown key 'sensor'"):
        cfg.parse_config({"sensor": {}})
    with pytest.raises(ConfigError, match=r"unknown key 'rod.tendons\[0\].angle'"):
        cfg.parse_config({"rod": {"tendons": [{"segment": 0, "angle": 0.0}]}})


def test_tendons_schema():
    with pytest.raises(ConfigError, match=r"rod.tendons\[0\]: missing 'theta_rad'"):
        cfg.parse_config({"rod": {"tendons": [{"segment": 0}]}})
    with pytest.raises(ConfigError, match="expected a list"):
        cfg.parse_config({"rod": {"tendons": {"segment": 0}}})
    run = cfg.parse_config({"rod": {"tendons": [{"segment": 1, "theta_rad": 0.5}]}})
    assert run.props().tendons == ((1, 0.5),)


def test_invalid_values_become_config_errors():
    with pytest.raises(ConfigError, match="Poisson"):
        cfg.parse_config({"rod": {"poisson": 0.7}})
    with pytest.raises(ConfigError):
        cfg.parse_config({"scenario": {"type": "nonsense"}})
    with pytest.raises(ConfigError):
        cfg.parse_config({"prior": {"qc_diag": [1.0, 1.0]}})
    with pytest.raises(ConfigError, match="expected an object"):
        cfg.parse_config({"noise": 3})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        cfg.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "seed": ,\n}\n')
    with pytest.raises(ConfigError, match="line 2, column 11"):
        cfg.load_config(bad)
    array_top = tmp_path / "array.json"
    array_top.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="top level must be an object"):
        cfg.load_config(array_top)
    good = tmp_path / "good.json"
    good.write_text('{"seed": 3}\n')
    assert cfg.load_config(good).seed == 3


def test_canonical_json_is_key_order_independent():
    a = cfg.canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
    b = cfg.canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b == '{"a":{"x":3,"y":2},"b":1}'


def test_config_hash_tracks_content():
    base = cfg.parse_config({})
    same = cfg.parse_config({"seed": 0})
    other = cfg.parse_config({"seed": 1})
    assert base.config_hash() == same.config_hash()
    assert base.config_hash() != other.config_hash()
    assert len(base.config_hash()) == 64


def test_derive_seed_properties():
    assert cfg.derive_seed(5, "dataset") == cfg.derive_seed(5, "dataset")
    assert cfg.derive_seed(5, "dataset") != cfg.derive_seed(6, "dataset")
    assert cfg.derive_seed(5, "dataset") != cfg.derive_seed(5, "sample-prior")
    tag = int.from_bytes(hashlib.sha256(b"dataset").digest()[:8], "big")
    assert cfg.derive_seed(5, "dataset") == (5 ^ tag) & 0xFFFFFFFFFFFFFFFF
    assert 0 <= cfg.derive_seed(-1, "dataset") < 2**64


def test_scenario_config_plumbing():
    run = cfg.parse_config(
        {
            "prior": {"K": 14, "M": 2},
            "scenario": {"type": "strain_at_disks", "locks": {"tip_strain": True}},
            "solver": {"max_iters": 9},
            "seed": 42,
        }
    )
    sc = run.scenario_config()
    assert sc.scenario is Scenario.STRAIN_AT_DISKS
    assert sc.num_intervals == 14 and sc.states_per_interval == 2
    assert sc.lock_tip_strain and sc.lock_root_pose
    assert sc.max_iters == 9
    assert sc.seed == cfg.derive_seed(42, "study:strain_at_disks")
    override = run.scenario_config(Scenario.STRAIN_PLUS_TIP_POSE)
    assert override.scenario is Scenario.STRAIN_PLUS_TIP_POSE
    assert override.seed == cfg.derive_seed(42, "study:strain_plus_tip_pose")


def test_measurement_rng_matches_study_stream():
    run = cfg.parse_config({"seed": 9})
    sc = run.scenario_config()
    direct = np.random.default_rng([sc.seed, 4]).standard_normal(8)
    helper = cfg.measurement_rng(run, Scenario.POSE_AT_SEGMENT_ENDS, 4).standard_normal(8)
    np.testing.assert_array_equal(direct, helper)


def test_document_round_trips_through_json():
    run = cfg.parse_config({"seed": 13})
    text = cfg.canonical_json(run.document)
    assert cfg.parse_config(json.loads(text)).config_hash() == run.config_hash()


@pytest.mark.parametrize(
    "document, message",
    [
        ({"prior": {"K": 10.9}}, r"prior\.K: expected an integer, got 10\.9"),
        ({"prior": {"M": "5"}}, r"prior\.M: expected an integer, got \"5\""),
        ({"rod": {"tendons": [{"segment": 0.5, "theta_rad": 0}]}}, r"rod\.tendons\[0\]\.segment: expected an integer"),
        ({"prior": {"qc_diag": 5}}, r"prior\.qc_diag: expected a list, got 5"),
        ({"prior": {"eps_bar": [1, 0, 0, 0, 0, None]}}, r"prior\.eps_bar\[5\]: expected a number, got null"),
        ({"seed": None}, r"seed: expected an integer, got null"),
        ({"noise": {"sigma_t_m": True}}, r"noise\.sigma_t_m: expected a number, got true"),
        ({"scenario": {"locks": {"root_pose": 1}}}, r"scenario\.locks\.root_pose: expected true or false"),
        ({"scenario": {"type": 3}}, r"scenario\.type: expected a string"),
    ],
)
def test_values_of_the_wrong_type_name_their_key(document, message):
    with pytest.raises(ConfigError, match=message):
        cfg.parse_config(document)


def test_integral_numbers_are_accepted_for_integers_and_floats():
    run = cfg.parse_config({"prior": {"K": 12.0, "M": 3}, "rod": {"E_pa": 54000000000}})
    assert run.scenario_config().num_intervals == 12
    assert run.props().young_modulus == 54e9
