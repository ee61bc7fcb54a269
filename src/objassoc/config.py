"""Run configuration: one flat namespace mirroring the pipeline's knobs.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed. The keys and their meanings are tabled in the README, next to the
``key = value`` block of the defaults, which are set here in ``RunConfig``
and nowhere else.

A ``RunConfig`` that exists is a valid one: each float field must hold a
finite number (a string or a bool is refused by its key), and construction
builds the three stage bundles, the covariance and the keyframe window,
each of which checks its own values. The two ``gmm.*`` sigmas must be
positive; they set the diagonal covariance every landmark mixture component
shares, and ``base_cov`` refuses one whose square (the rotation sigma in
radians) overflows or falls below the mixture's variance floor.
``assoc.workspace_volume`` is the translational workspace volume in cubic
metres; the new-landmark base density divides it by the fixed rotation
volume (2*pi)^3 as well. ``assoc.alpha_new`` times that density is the run's
one new-landmark weight, which must be positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .association import AssocParams, base_density_for_volume
from .core import is_real
from .errors import InvalidConfigurationError
from .grouping import _validate_window
from .mixture import COVARIANCE_FLOOR
from .refine import RefineParams
from .tracking import TrackerParams


@dataclass(frozen=True)
class RunConfig:
    group_size: int = 7
    group_overlap: int = 2
    tracker_w_app: float = 0.5
    tracker_w_pos: float = 0.3
    tracker_w_rot: float = 0.2
    tracker_tau: float = 0.6
    tracker_gate_radius: float = 1.0
    tracker_gate_angle: float = 90.0
    gmm_base_cov_pos_sigma: float = 0.25
    gmm_base_cov_rot_sigma_deg: float = 10.0
    assoc_alpha_new: float = 1.0
    assoc_overlap_boost: float = 1.5
    assoc_gibbs_sweeps: int = 5
    assoc_seed: int = 0
    assoc_workspace_volume: float = 7500.0
    refine_a_deg: float = 45.0
    refine_b_m: float = 1.0
    refine_alpha: float = 0.4
    refine_beta: float = 0.6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not is_real(value):
                raise InvalidConfigurationError(
                    f"{_FIELD_TO_KEY[f.name]} must be a finite number, got {value!r}"
                )
        self.tracker_params()
        self.assoc_params()
        self.refine_params()
        self.base_cov()
        _validate_window(self.group_size, self.group_overlap)

    def tracker_params(self) -> TrackerParams:
        return TrackerParams(
            w_app=self.tracker_w_app,
            w_pos=self.tracker_w_pos,
            w_rot=self.tracker_w_rot,
            cost_threshold=self.tracker_tau,
            gate_radius=self.tracker_gate_radius,
            gate_angle=self.tracker_gate_angle,
        )

    def assoc_params(self) -> AssocParams:
        if not self.assoc_workspace_volume > 0.0:
            raise InvalidConfigurationError(
                f"assoc.workspace_volume = {self.assoc_workspace_volume!r} must be positive"
            )
        new_weight = self.assoc_alpha_new * base_density_for_volume(self.assoc_workspace_volume)
        if not 0.0 < new_weight < math.inf:
            raise InvalidConfigurationError(
                f"assoc.alpha_new = {self.assoc_alpha_new!r} and assoc.workspace_volume = "
                f"{self.assoc_workspace_volume!r} give unusable new-landmark weight {new_weight!r}"
            )
        return AssocParams(
            new_weight=new_weight,
            overlap_boost=self.assoc_overlap_boost,
            gibbs_sweeps=self.assoc_gibbs_sweeps,
            rng_seed=self.assoc_seed,
        )

    def refine_params(self) -> RefineParams:
        return RefineParams(
            max_angle_deg=self.refine_a_deg,
            max_distance_m=self.refine_b_m,
            angle_weight=self.refine_alpha,
            distance_weight=self.refine_beta,
        )

    def base_cov(self) -> np.ndarray:
        """Shared mixture covariance: diagonal of the squared position and rotation sigmas."""
        pos, rot = self.gmm_base_cov_pos_sigma, self.gmm_base_cov_rot_sigma_deg
        if not (pos > 0.0 and rot > 0.0):
            raise InvalidConfigurationError(
                "gmm.base_cov_pos_sigma and gmm.base_cov_rot_sigma_deg must be positive"
            )
        variances = []
        for key, value, sigma in (
            ("gmm.base_cov_pos_sigma", pos, pos),
            ("gmm.base_cov_rot_sigma_deg", rot, math.radians(rot)),
        ):
            try:
                variance = sigma**2
            except OverflowError:  # a Python float raises; a NumPy float warns and gives inf
                variance = math.inf
            if not math.isfinite(variance):
                raise InvalidConfigurationError(f"{key} = {value!r} squared overflows")
            if variance < COVARIANCE_FLOOR:
                raise InvalidConfigurationError(
                    f"{key} = {value!r} gives variance {variance!r}, below the "
                    f"{COVARIANCE_FLOOR} floor"
                )
            variances.append(variance)
        pos_var, rot_var = variances
        return np.diag([pos_var] * 3 + [rot_var] * 3)

    def flat(self) -> "RunConfig":
        """The per-keyframe baseline variant of this configuration."""
        return replace(self, group_size=1, group_overlap=0)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, assoc_seed=seed)


_SECTIONS = ("tracker", "gmm", "assoc", "refine")
_KEY_ALIASES = {"refine_a_deg": "refine.A_deg", "refine_b_m": "refine.B_m"}


def _key_of(field_name: str) -> str:
    """Config key of a RunConfig field: ``tracker_w_app`` -> ``tracker.w_app``."""
    if field_name in _KEY_ALIASES:
        return _KEY_ALIASES[field_name]
    section, _, rest = field_name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else field_name


_FIELD_TO_KEY = {f.name: _key_of(f.name) for f in fields(RunConfig)}
_KEY_TO_FIELD = {_FIELD_TO_KEY[f.name]: (f.name, type(f.default)) for f in fields(RunConfig)}


def config_to_text(config: RunConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config_to_mapping(config).items())


def config_to_mapping(config: RunConfig) -> dict:
    """Ordered key -> value mapping, as used in run manifests."""
    return {key: getattr(config, name) for name, key in _FIELD_TO_KEY.items()}


def config_from_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigurationError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise InvalidConfigurationError(f"line {line_no}: unknown configuration key {key!r}")
        field_name, cast = _KEY_TO_FIELD[key]
        try:
            parsed = cast(value)
        except ValueError as exc:
            raise InvalidConfigurationError(
                f"line {line_no}: bad value for {key}: {value!r}"
            ) from exc
        values[field_name] = parsed
    try:
        return RunConfig(**values)
    except InvalidConfigurationError:
        raise
    except Exception as exc:
        raise InvalidConfigurationError(str(exc)) from exc


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())
