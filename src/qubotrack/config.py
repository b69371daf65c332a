"""Run configuration: one JSON-style file covering geometry, generation,
pre-selection, objective scaling and solver choice.

Every section is optional; missing keys take the documented defaults, so
`{}` is a valid config. The effective configuration (with its hash and
seed) is echoed into every output artifact.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .fastsim import EnergySpectrum, SimConfig, SimulationError
from .geometry import GeometryConfig, build_geometry
from .preselect import PreselectionWindow
from .qubo import QuboScaling

SOLVERS = ("exact", "anneal", "vqe")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    # pre-selection
    n_sigma: float = 3.0
    max_delta_theta: float = 1e-3
    dx_window: tuple[float, float] | None = None  # explicit (mean, sigma) skips calibration
    # objective scaling
    theta_scale: float = 1e-3
    s_max: float | None = None  # None: calibrate from truth, fallback 1e-3
    # solver
    solver: str = "exact"
    subqubo_size: int = 7
    iterations: int = 10
    shots: int = 512
    vqe_max_evaluations: int = 300
    seed: int = 1

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        integers = {"subqubo_size": self.subqubo_size, "iterations": self.iterations,
                    "shots": self.shots, "vqe_max_evaluations": self.vqe_max_evaluations,
                    "seed": self.seed}
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.subqubo_size < 1 or self.iterations < 1:
            raise ConfigError("subqubo_size and iterations must be >= 1")
        if self.shots < 0 or self.vqe_max_evaluations < 1:
            raise ConfigError("shots must be >= 0 and vqe_max_evaluations >= 1, got "
                              f"{self.shots} and {self.vqe_max_evaluations}")
        if self.dx_window is not None and len(self.dx_window) != 2:
            raise ConfigError("dx_window must be [mean, sigma], got "
                              f"{list(self.dx_window)}")
        # the geometry, the window and the scaling own their rules; a value
        # left to calibration is checked where it is calibrated
        try:
            build_geometry(self.geometry)
            PreselectionWindow.from_calibration(*(self.dx_window or (0.0, 1.0)),
                                                n_sigma=self.n_sigma,
                                                max_delta_theta=self.max_delta_theta)
            QuboScaling(self.theta_scale, 1.0 if self.s_max is None else self.s_max)
        except (TypeError, ValueError) as exc:  # GeometryError is a ValueError
            raise ConfigError(f"invalid geometry, cut or scaling setting: {exc}") from None

    def with_seed(self, seed: int) -> "RunConfig":
        d = self.to_dict()
        d["seed"] = seed
        d["sim"]["rng_seed"] = seed
        return RunConfig.from_dict(d)

    def with_xi(self, xi: float, multiplicity: float) -> "RunConfig":
        d = self.to_dict()
        d["sim"]["xi_label"] = xi
        d["sim"]["mean_multiplicity"] = multiplicity
        return RunConfig.from_dict(d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["geometry"]["ip_position"] = list(self.geometry.ip_position)
        d["sim"]["ip_smear"] = list(self.sim.ip_smear)
        d["dx_window"] = None if self.dx_window is None else list(self.dx_window)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            if "geometry" in d:
                g = dict(d["geometry"])
                if "ip_position" in g:
                    g["ip_position"] = tuple(g["ip_position"])
                d["geometry"] = GeometryConfig(**g)
            if "sim" in d:
                s = dict(d["sim"])
                if "ip_smear" in s:
                    s["ip_smear"] = tuple(s["ip_smear"])
                if "energy_spectrum" in s:
                    s["energy_spectrum"] = EnergySpectrum(**s["energy_spectrum"])
                d["sim"] = SimConfig(**s)
        except (TypeError, SimulationError) as exc:
            raise ConfigError(f"invalid geometry or sim setting: {exc}") from None
        if d.get("dx_window") is not None:
            d["dx_window"] = tuple(d["dx_window"])
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path) as f:
                payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(payload)
