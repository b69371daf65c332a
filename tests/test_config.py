import json
import math

import numpy as np
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


@pytest.mark.parametrize("key, value", [
    ("subqubo_size", 7.5), ("subqubo_size", True),
    ("iterations", 2.5), ("iterations", "3"),
    ("shots", 1.5), ("shots", True),
    ("vqe_max_evaluations", 30.5), ("vqe_max_evaluations", False),
    ("seed", 1.5), ("seed", True),
    ("sim", {"rng_seed": 2.5}), ("sim", {"rng_seed": True}),
], ids=repr)
def test_non_integer_counts_and_seeds_rejected(key, value):
    """Each of these used to pass validation and then fail every sub-solve or
    end in a TypeError traceback."""
    with pytest.raises(ConfigError, match="must be an integer"):
        RunConfig.from_dict({key: value})


@pytest.mark.parametrize("d", [{"seed": -3}, {"sim": {"rng_seed": -1}}], ids=repr)
def test_negative_seed_rejected(d):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        RunConfig.from_dict(d)


def test_vqe_config_counts_must_be_integers():
    from qubotrack.vqe import VqeConfig
    for name, value in (("shots", 1.5), ("shots", True), ("max_evaluations", 30.5),
                        ("seed", 2.0), ("seed", None)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            VqeConfig(**{name: value})
    assert VqeConfig(shots=np.int64(8), seed=np.int64(3)).shots == 8


def test_vqe_config_rejects_a_negative_seed():
    """It used to pass and then fail in run_vqe with NumPy's message."""
    from qubotrack.vqe import VqeConfig
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        VqeConfig(seed=-3)


def test_vqe_subsolver_rejects_negative_shots_when_made():
    """It used to be made, and then every sub-solve failed inside the walk."""
    from qubotrack.vqe import make_vqe_subsolver
    with pytest.raises(ValueError, match="shots must be >= 0"):
        make_vqe_subsolver(shots=-5)


def test_with_seed_propagates_to_sim():
    cfg = RunConfig().with_seed(99)
    assert cfg.seed == 99
    assert cfg.sim.rng_seed == 99
    assert RunConfig().with_seed(0).sim.rng_seed == 0
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        RunConfig().with_seed(-3)


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


@pytest.mark.parametrize("key, value, message", [
    ("n_sigma", -1.0, "n_sigma must be positive"),
    ("n_sigma", 0.0, "n_sigma must be positive"),
    ("n_sigma", math.nan, "n_sigma must be positive"),
    ("max_delta_theta", math.nan, "max_delta_theta must be positive"),
    ("max_delta_theta", -1e-3, "max_delta_theta must be positive"),
    ("theta_scale", math.nan, "scaling constants must be positive"),
    ("s_max", math.nan, "scaling constants must be positive"),
    ("s_max", 0.0, "scaling constants must be positive"),
    ("dx_window", [0.17, math.nan], "dx_sigma must be non-negative"),
    ("dx_window", [0.17, -0.01], "dx_sigma must be non-negative"),
    ("dx_window", [math.nan, 0.01], "dx_mean must be finite"),
    ("dx_window", [0.17], r"dx_window must be \[mean, sigma\]"),
], ids=lambda v: repr(v) if isinstance(v, (float, list)) else None)
def test_invalid_cuts_and_scales_rejected(key, value, message):
    """Each of these used to be accepted and then select nothing."""
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict({key: value})


def test_nan_from_json_file_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_sigma": NaN}')
    with pytest.raises(ConfigError, match="n_sigma must be positive, got nan"):
        RunConfig.from_file(path)


def test_valid_edge_settings_accepted():
    assert RunConfig(max_delta_theta=math.inf).max_delta_theta == math.inf
    assert RunConfig(dx_window=(0.17, 0.0)).dx_window == (0.17, 0.0)  # floored later
    assert RunConfig(s_max=None).s_max is None


@pytest.mark.parametrize("d, message", [
    ({"sim": {"mean_multiplicity": math.nan}}, "mean_multiplicity must be finite"),
    ({"sim": {"mean_multiplicity": math.inf}}, "mean_multiplicity must be finite"),
    ({"sim": {"mean_multiplicity": -1.0}}, "mean_multiplicity must be finite"),
    ({"sim": {"ip_smear": [math.nan, 0.0, 0.0]}}, "ip_smear sigmas must be finite"),
    ({"sim": {"emittance_angle_sigma": math.nan}}, "emittance_angle_sigma must be finite"),
    ({"geometry": {"first_layer_z": math.nan}}, "layer positions not strictly increasing"),
    ({"geometry": {"layer_spacing": math.nan}}, "layer_spacing must be finite"),
    ({"geometry": {"layer_spacing": -1.0}}, "layer_spacing must be finite"),
    ({"geometry": {"hit_resolution": math.inf}}, "hit_resolution must be finite"),
    ({"geometry": {"hit_resolution": math.nan}}, "hit_resolution must be finite"),
    ({"geometry": {"layer_thickness_x0": math.nan}}, "layer_thickness_x0 must be finite"),
    ({"geometry": {"dipole_field": math.nan}}, "dipole_field must be finite"),
    ({"geometry": {"dipole_length": math.nan}}, "dipole_length must be finite"),
    ({"geometry": {"layer_half_extent_x": math.nan}}, "layer half extents must be positive"),
    ({"geometry": {"layer_half_extent_y": math.nan}}, "layer half extents must be positive"),
    ({"geometry": {"n_layers": 3}}, "exactly 4 layers"),
    ({"sim": {"ip_smear": [0.0, -1e-6, 0.0]}}, "ip_smear sigmas must be finite"),
    ({"sim": {"emittance_angle_sigma": -1e-4}}, "emittance_angle_sigma must be finite"),
    ({"sim": {"beam": 1.0}}, "unexpected keyword argument 'beam'"),
    ({"sim": {"energy_spectrum": {"mode": 1.0}}}, "unexpected keyword argument 'mode'"),
    ({"geometry": {"pitch": 0.1}}, "unexpected keyword argument 'pitch'"),
    ({"geometry": {"ip_position": [math.nan, 0.0, 0.0]}}, "ip_position must be finite"),
    ({"geometry": {"ip_position": [0.0, 0.0, -math.inf]}}, "ip_position must be finite"),
    ({"sim": {"energy_spectrum": {"kind": "bogus"}}}, "unknown energy spectrum kind 'bogus'"),
    ({"sim": {"energy_spectrum": {"shape": math.nan}}}, "shape must be finite and positive"),
    ({"sim": {"energy_spectrum": {"scale": 0.0}}}, "scale must be finite and positive"),
    ({"sim": {"energy_spectrum": {"kind": "fixed", "fixed_value": math.nan}}},
     "fixed_value must be finite and positive"),
    ({"sim": {"energy_spectrum": {"minimum": 20.0, "maximum": 10.0}}},
     "0 < minimum <= maximum < inf"),
    ({"sim": {"energy_spectrum": {"minimum": 0.0}}}, "0 < minimum <= maximum < inf"),
    ({"sim": {"energy_spectrum": {"kind": "uniform", "maximum": math.inf}}},
     "0 < minimum <= maximum < inf"),
], ids=repr)
def test_invalid_sim_and_geometry_settings_rejected(d, message):
    """Each NaN here used to pass validation and then simulate events with
    no hits (or end in a NumPy traceback); each negative or infinite value
    and unknown key ended in a traceback or in events with no hits, instead
    of a configuration error."""
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(d)


@pytest.mark.parametrize("seed", [1.5, True, -1, None], ids=repr)
def test_sim_config_checks_its_own_seed(seed):
    """A seed that ``event_rng`` cannot use is refused when the simulation
    settings are built, not at the first event."""
    from qubotrack.fastsim import SimConfig, SimulationError
    with pytest.raises(SimulationError, match="rng_seed must be"):
        SimConfig(rng_seed=seed)
    assert SimConfig(rng_seed=np.int64(3)).rng_seed == 3
