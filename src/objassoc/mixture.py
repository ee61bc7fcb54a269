"""Uniform Gaussian mixtures over 6-DoF object observations.

A landmark's pose evidence is a mixture with one Gaussian component per
associated measurement, uniform weights, and one base covariance shared by
every component of every landmark in a run. The observation vector stacks
the world position (metres) with the rotation vector of the orientation
(radians, magnitude in [0, pi]).

The shared covariance Sigma = diag(sigma^2) is checked once, by
:class:`SharedCovariance`, which also caches each measurement's observation
vector x the first time the run meets the measurement. Whitening, x / sigma,
divides each coordinate by its own sigma, so a whitened row is a function of
its measurement alone, whatever batch it is computed in. A
:class:`LandmarkGMM` is the one place a mixture is derived: from the (n, 6)
array of its component means it derives their whitened forms and their
position box. The Mahalanobis distance of a point to a component is then the
plain Euclidean distance of their whitened forms, so scoring a track against
a landmark takes one division per track coordinate and no quaternion
logarithm.
Densities use the proper 6-dimensional normalization constant
(2*pi)^(-3) |Sigma|^(-1/2).

Stacked scoring. A :class:`MixtureStack` joins the whitened means of mixtures
of one covariance into one (N, 6) array, and :func:`max_measurement_likelihood`,
the one scoring path, scores a track against all of them with one subtraction,
one squared sum and one exp over the (N, m) block of component densities, and
one ``np.add.reduceat`` that sums each mixture's contiguous slice of rows. A
slice has the same values and memory layout in any stack, a stack of one
included, and ``reduceat`` sums it the same way wherever it starts, so the
score is the same bit for bit.

Underflow radius. A component density exp(log_norm - d^2/2) is exactly 0.0
in float64 once its exponent is below -745.14 (half the smallest subnormal
rounds to zero); :data:`UNDERFLOW_LOG` = -746 keeps a margin for rounding in
the exponent. The whitened squared distance d^2 = r^T Sigma^-1 r of a
residual r is at least |r|^2 / sigma_max^2, sigma_max^2 the largest variance,
and |r| is at least the position part |dp| of r, whatever the rotation
residual. So a component whose mean lies farther than

    R = sqrt(2 * (log_norm + 746) * sigma_max^2)

in position from a point has density exactly 0.0 there, and a mixture whose
every mean lies farther than R from all of a track's points scores exactly
0.0 against the track. :class:`SharedCovariance` holds R (widened by
:data:`GATE_MARGIN`). :func:`position_box` bounds a track's measurements and
``LandmarkGMM.box`` a mixture's means by an axis-aligned box, and
:func:`boxes_apart` tells when two boxes are more than R apart along some
axis: then every point of one is more than R from every point of the other,
so the association can skip the mixture without changing any weight. The test
is one correctly rounded subtraction per axis, and a float difference above
the float R means an exact one above it, so it needs no margin of its own.
When log_norm + 746 <= 0 every density underflows wherever its point lies; R
is then infinite, no difference exceeds it, and nothing is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import ObjectMeasurement, quat_to_rotation_vector
from .errors import InvalidInputError, NumericalError

OBS_DIM = 6
COVARIANCE_FLOOR = 1e-8
_LOG_TWO_PI = math.log(2.0 * math.pi)
# exp(x) is exactly 0.0 in float64 for x < -745.14; see the module docstring.
UNDERFLOW_LOG = -746.0
# Relative widening of the underflow radius. It covers rounding in the
# log-normaliser; the box test itself is exact (see the module docstring).
GATE_MARGIN = 1e-3


def observation_vector(measurement: ObjectMeasurement) -> np.ndarray:
    """Stack position and rotation vector into the 6-D observation."""
    pose = measurement.pose
    return np.concatenate([pose.position, quat_to_rotation_vector(pose.orientation)])


class SharedCovariance:
    """The diagonal (6, 6) covariance all components of a run share.

    Holds the standard deviations ``sigma``, the log-normaliser and the
    underflow radius ``gate_radius``, and caches, per measurement, the
    observation vector. Every off-diagonal entry must
    be exactly 0.0. Measurements hash by identity; the cache lives as long as
    this object.
    """

    def __init__(self, covariance):
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (OBS_DIM, OBS_DIM):
            raise InvalidInputError(
                f"covariance must have shape ({OBS_DIM}, {OBS_DIM}), got {cov.shape}"
            )
        if not np.all(np.isfinite(cov)):
            raise NumericalError("covariance entries must be finite")
        variances = np.diagonal(cov)
        if np.any(cov != np.diag(variances)):
            raise NumericalError("covariance must be diagonal: off-diagonal entries must be 0.0")
        smallest = float(variances.min())
        if smallest < COVARIANCE_FLOOR:
            raise NumericalError(
                f"covariance smallest variance {smallest!r} is below the "
                f"{COVARIANCE_FLOOR} floor"
            )
        self.sigma = np.sqrt(variances)
        log_det = 2.0 * float(np.sum(np.log(self.sigma)))
        self.log_norm = -0.5 * (OBS_DIM * _LOG_TWO_PI + log_det)
        headroom = self.log_norm - UNDERFLOW_LOG
        self.gate_radius = (
            (1.0 + GATE_MARGIN) * math.sqrt(2.0 * headroom * float(variances.max()))
            if headroom > 0.0
            else math.inf
        )
        # measurement -> its (6,) observation vector
        self._observations: dict[ObjectMeasurement, np.ndarray] = {}

    def whiten(self, xs) -> np.ndarray:
        """x / sigma for each row x of an (m, 6) array, as an (m, 6) array."""
        xs = np.asarray(xs, dtype=float).reshape(-1, OBS_DIM)
        if not np.isfinite(xs).all():
            raise NumericalError("points to whiten must be finite")
        return xs / self.sigma

    def observations(self, measurements: Sequence[ObjectMeasurement]) -> np.ndarray:
        """(n, 6) observation vectors of the measurements, each computed on first use."""
        for m in measurements:
            if m not in self._observations:
                self._observations[m] = observation_vector(m)
        return np.array([self._observations[m] for m in measurements])


def position_box(measurements: Sequence[ObjectMeasurement]) -> tuple[float, ...]:
    """Axis-aligned box of a track's few measurements, in plain Python floats.

    The box is (lo_x, lo_y, lo_z, -hi_x, -hi_y, -hi_z): the upper corner is
    stored negated, so :func:`boxes_apart` only adds.
    """
    xs, ys, zs = zip(*(m.pose.position.tolist() for m in measurements))
    return (min(xs), min(ys), min(zs), -max(xs), -max(ys), -max(zs))


def boxes_apart(a: tuple[float, ...], b: tuple[float, ...], radius: float) -> bool:
    """True when the boxes are more than ``radius`` apart along some axis.

    Then every point of one box is more than ``radius`` from every point of
    the other. Each lo - hi is one correctly rounded operation, so a result
    above the float ``radius`` means an exact distance above it too.
    """
    return (
        a[0] + b[3] > radius
        or a[1] + b[4] > radius
        or a[2] + b[5] > radius
        or b[0] + a[3] > radius
        or b[1] + a[4] > radius
        or b[2] + a[5] > radius
    )


@dataclass(frozen=True, eq=False)
class LandmarkGMM:
    """Uniform mixture: one row of ``components`` per component mean.

    ``whitened`` holds each row of ``components`` divided by the covariance's
    ``sigma``, and ``box`` is the :func:`position_box` of the component means;
    both are derived here, from the components alone.
    """

    components: np.ndarray
    covariance: SharedCovariance
    whitened: np.ndarray = field(init=False, repr=False)
    box: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        comps = np.array(self.components, dtype=float)
        if comps.ndim != 2 or comps.shape[1] != OBS_DIM:
            raise InvalidInputError(f"components must have shape (n, {OBS_DIM}), got {comps.shape}")
        if comps.shape[0] == 0:
            raise InvalidInputError("a mixture needs at least one component")
        whitened = self.covariance.whiten(comps)
        comps.flags.writeable = False
        whitened.flags.writeable = False
        lo, hi = comps[:, :3].min(axis=0).tolist(), (-comps[:, :3].max(axis=0)).tolist()
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "whitened", whitened)
        object.__setattr__(self, "box", (*lo, *hi))

    def likelihood(self, xs) -> np.ndarray:
        """Mixture probability density at each row of an (m, 6) array."""
        zs = self.covariance.whiten(xs)
        densities = _densities(zs, self.whitened, self.covariance.log_norm)
        return densities.sum(axis=0) / len(densities)


class MixtureStack:
    """Mixtures of one shared covariance, joined so one call scores them all.

    ``whitened`` joins the mixtures' whitened means into one (N, 6) array,
    each mixture's rows contiguous and in the given order; ``components``
    joins their means the same way. ``sizes`` and ``starts`` hold each
    mixture's row count and first row, as Python ints.
    """

    __slots__ = ("mixtures", "covariance", "whitened", "sizes", "starts")

    def __init__(self, mixtures: Sequence[LandmarkGMM]):
        if not mixtures:
            raise InvalidInputError("a stack needs at least one mixture")
        covariance = mixtures[0].covariance
        if any(gmm.covariance is not covariance for gmm in mixtures):
            raise InvalidInputError("stacked mixtures must share one covariance")
        self.mixtures = tuple(mixtures)
        self.covariance = covariance
        self.whitened = np.concatenate([gmm.whitened for gmm in self.mixtures])
        self.sizes = [len(gmm.whitened) for gmm in self.mixtures]
        self.starts = list(accumulate(self.sizes[:-1], initial=0))

    @property
    def components(self) -> np.ndarray:
        return np.concatenate([gmm.components for gmm in self.mixtures])


def _densities(zs: np.ndarray, whitened: np.ndarray, log_norm: float) -> np.ndarray:
    """(n, m) density of each whitened mean's component at each whitened point."""
    diffs = zs[None, :, :] - whitened[:, None, :]
    return np.exp(log_norm - 0.5 * (diffs * diffs).sum(axis=2))


def build_gmm(
    measurements: Sequence[ObjectMeasurement],
    covariance: SharedCovariance,
    base: LandmarkGMM | None = None,
) -> LandmarkGMM:
    """One component per measurement, all sharing ``covariance``, after ``base``'s components."""
    if not measurements:
        raise InvalidInputError("cannot build a mixture from zero measurements")
    rows = covariance.observations(measurements)
    if base is not None:
        rows = np.concatenate([base.components, rows])
    return LandmarkGMM(rows, covariance)


def max_measurement_likelihood(candidate, target: MixtureStack) -> list[float]:
    """Best density any of the candidate track's measurements achieves under each mixture.

    One float per stacked mixture, in stack order: the largest column sum of
    the mixture's slice of the density block, divided by its component count.
    Each equals bit for bit scoring that mixture in a stack of its own.
    """
    measurements = getattr(candidate, "measurements", candidate)
    if not measurements:
        raise InvalidInputError("candidate track has no measurements")
    covariance = target.covariance
    # Cached observations come from validated poses, so whiten's finiteness check is skipped.
    whitened = covariance.observations(measurements) / covariance.sigma
    densities = _densities(whitened, target.whitened, covariance.log_norm)
    best = np.add.reduceat(densities, target.starts, axis=0).max(axis=1).tolist()
    return [total / size for total, size in zip(best, target.sizes)]
