import json

import pytest

from qubotrack.config import ConfigError, RunConfig


def test_empty_dict_is_valid_default():
    cfg = RunConfig.from_dict({})
    assert cfg.solver == "exact"
    assert cfg.subqubo_size == 7
    assert cfg.iterations == 10
    assert cfg.shots == 512
    assert cfg.geometry.hit_resolution == 5e-6


def test_round_trip():
    cfg = RunConfig.from_dict({
        "solver": "vqe",
        "sim": {"mean_multiplicity": 42.0,
                "energy_spectrum": {"kind": "uniform", "minimum": 1, "maximum": 5}},
        "geometry": {"first_layer_z": 2.5},
        "dx_window": [0.17, 0.01],
    })
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.sim.energy_spectrum.kind == "uniform"
    assert again.geometry.first_layer_z == 2.5
    assert again.dx_window == (0.17, 0.01)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"solevr": "exact"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"update": "jacobi"})


def test_unknown_solver_rejected():
    with pytest.raises(ConfigError, match="unknown solver"):
        RunConfig.from_dict({"solver": "dwave"})


@pytest.mark.parametrize("key, value", [("shots", -1), ("vqe_max_evaluations", 0)])
def test_invalid_vqe_settings_rejected(key, value):
    with pytest.raises(ConfigError, match="shots must be >= 0 and vqe_max_evaluations >= 1"):
        RunConfig.from_dict({key: value})
    assert getattr(RunConfig.from_dict({key: value + 1}), key) == value + 1


def test_with_seed_propagates_to_sim():
    cfg = RunConfig().with_seed(99)
    assert cfg.seed == 99
    assert cfg.sim.rng_seed == 99


def test_with_xi_sets_label_and_multiplicity():
    cfg = RunConfig().with_xi(5.0, 1.05e4)
    assert cfg.sim.xi_label == 5.0
    assert cfg.sim.mean_multiplicity == 1.05e4


def test_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "iterations": 3}))
    cfg = RunConfig.from_file(path)
    assert cfg.seed == 7 and cfg.iterations == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        RunConfig.from_file(bad)
    as_list = tmp_path / "list.json"
    as_list.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.from_file(as_list)
