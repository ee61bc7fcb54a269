"""Uniform Gaussian mixtures over 6-DoF object observations.

A landmark's pose evidence is a mixture with one Gaussian component per
associated measurement, uniform weights, and one base covariance shared by
every component of every landmark in a run. The observation vector stacks
the world position (metres) with the rotation vector of the orientation
(radians, magnitude in [0, pi]).

The shared covariance is checked and Cholesky-factored once, by
:class:`SharedCovariance`; a mixture then only holds the (n, 6) array of its
component means, and :meth:`LandmarkGMM.likelihood` evaluates every
(point, component) pair with one batched triangular solve. Densities use the
proper 6-dimensional normalization constant (2*pi)^(-3) |Sigma|^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from .core import ObjectMeasurement, quat_to_rotation_vector
from .errors import InvalidInputError, NumericalError

OBS_DIM = 6
COVARIANCE_FLOOR = 1e-8
_LOG_TWO_PI = math.log(2.0 * math.pi)


def observation_vector(measurement: ObjectMeasurement) -> np.ndarray:
    """Stack position and rotation vector into the 6-D observation."""
    pose = measurement.pose
    return np.concatenate([pose.position, quat_to_rotation_vector(pose.orientation)])


class SharedCovariance:
    """Cholesky factor and log-normaliser of the SPD (6, 6) covariance all components share."""

    def __init__(self, covariance):
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (OBS_DIM, OBS_DIM):
            raise InvalidInputError(
                f"covariance must have shape ({OBS_DIM}, {OBS_DIM}), got {cov.shape}"
            )
        if np.max(np.abs(cov - cov.T)) > 1e-9:
            raise NumericalError("covariance must be symmetric within 1e-9")
        smallest = float(linalg.eigvalsh(cov)[0])
        if smallest < COVARIANCE_FLOOR:
            raise NumericalError(
                f"covariance smallest eigenvalue {smallest!r} is below the "
                f"{COVARIANCE_FLOOR} floor"
            )
        self.chol = linalg.cholesky(cov, lower=True)
        log_det = 2.0 * float(np.sum(np.log(np.diagonal(self.chol))))
        self.log_norm = -0.5 * (OBS_DIM * _LOG_TWO_PI + log_det)


@dataclass(frozen=True, eq=False)
class LandmarkGMM:
    """Uniform mixture: one row of ``components`` per component mean."""

    components: np.ndarray
    covariance: SharedCovariance

    def __post_init__(self):
        comps = np.array(self.components, dtype=float)
        if comps.ndim != 2 or comps.shape[1] != OBS_DIM:
            raise InvalidInputError(f"components must have shape (n, {OBS_DIM}), got {comps.shape}")
        if comps.shape[0] == 0:
            raise InvalidInputError("a mixture needs at least one component")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    def likelihood(self, xs) -> np.ndarray:
        """Mixture probability density at each row of an (m, 6) array."""
        xs = np.asarray(xs, dtype=float).reshape(-1, OBS_DIM)
        n, m = len(self.components), len(xs)
        diffs = (xs[None, :, :] - self.components[:, None, :]).reshape(n * m, OBS_DIM)
        y = linalg.solve_triangular(self.covariance.chol, diffs.T, lower=True)
        densities = np.exp(self.covariance.log_norm - 0.5 * np.sum(y * y, axis=0))
        # Summing over axis 0 adds the components in order, like a sequential mixture sum.
        return np.sum((1.0 / n) * densities.reshape(n, m), axis=0)


def build_gmm(
    measurements: Sequence[ObjectMeasurement], covariance: SharedCovariance
) -> LandmarkGMM:
    """One component per measurement, all sharing ``covariance``."""
    if not measurements:
        raise InvalidInputError("cannot build a mixture from zero measurements")
    return LandmarkGMM(np.stack([observation_vector(m) for m in measurements]), covariance)


def max_measurement_likelihood(candidate, target: LandmarkGMM) -> float:
    """Best density any of the candidate track's measurements achieves under ``target``."""
    measurements = getattr(candidate, "measurements", candidate)
    if not measurements:
        raise InvalidInputError("candidate track has no measurements")
    return float(np.max(target.likelihood([observation_vector(m) for m in measurements])))
