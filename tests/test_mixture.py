import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

import objassoc.association as association_module
import objassoc.mixture as mixture_module
from objassoc.association import run_association
from objassoc.config import RunConfig
from objassoc.errors import InvalidInputError, NumericalError
from objassoc.mixture import (
    LandmarkGMM,
    MixtureStack,
    SharedCovariance,
    build_gmm,
    max_measurement_likelihood,
    observation_vector,
    position_box,
)
from objassoc.synth import generate, preset

from conftest import (
    make_keyframe,
    make_measurement,
    quat_about,
    random_unit_quaternion,
    score_alone,
)

PEAK_6D = (2.0 * math.pi) ** -3  # standard-normal density at the mean in 6-D


def single_gmm(mean=None, cov=None) -> LandmarkGMM:
    mean = np.zeros(6) if mean is None else np.asarray(mean, dtype=float)
    cov = np.eye(6) if cov is None else cov
    return LandmarkGMM(components=mean[None, :], covariance=SharedCovariance(cov))


def reference_likelihood(xs, means, cov) -> np.ndarray:
    """Plain per-component loop: one triangular solve per component, uniform weights."""
    xs = np.asarray(xs, dtype=float)
    chol = linalg.cholesky(cov, lower=True)
    _, log_det = np.linalg.slogdet(cov)
    log_norm = -0.5 * (6.0 * math.log(2.0 * math.pi) + log_det)
    total = np.zeros(len(xs))
    for mean in means:
        y = linalg.solve_triangular(chol, (xs - mean).T, lower=True)
        total += np.exp(log_norm - 0.5 * np.sum(y * y, axis=0)) / len(means)
    return total


DEFAULT_VARIANCES = np.array([0.25**2] * 3 + [math.radians(10.0) ** 2] * 3)


def random_covariance(rng) -> np.ndarray:
    """A diagonal covariance of six distinct random variances, 0.1-10x the default ones."""
    return np.diag(DEFAULT_VARIANCES * np.exp(rng.uniform(-2.3, 2.3, size=6)))


COVARIANCES = {
    "default": lambda rng: np.diag(DEFAULT_VARIANCES),
    "random": random_covariance,
}


class TestObservationVector:
    def test_identity_at_origin(self):
        assert np.array_equal(observation_vector(make_measurement(1)), np.zeros(6))

    def test_pure_translation(self):
        m = make_measurement(1, pos=(1, 2, 3))
        assert np.array_equal(observation_vector(m), [1, 2, 3, 0, 0, 0])

    def test_quarter_turn_about_z(self):
        m = make_measurement(1, quat=quat_about([0, 0, 1], 90.0))
        v = observation_vector(m)
        # axis-angle oracle: angle = 2*atan2(|vec|, w), axis = vec/|vec|
        q = m.pose.orientation
        angle = 2.0 * math.atan2(float(np.linalg.norm(q[1:])), float(q[0]))
        assert angle == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert v[:3] == pytest.approx([0, 0, 0])
        assert v[3:] == pytest.approx([0, 0, math.pi / 2.0], abs=1e-12)

    def test_magnitude_bounded_by_pi(self, rng):
        from conftest import random_unit_quaternion

        for _ in range(200):
            m = make_measurement(1, quat=random_unit_quaternion(rng))
            assert np.linalg.norm(observation_vector(m)[3:]) <= math.pi + 1e-12


class TestBuildGmm:
    def test_single_measurement(self):
        m = make_measurement(1, pos=(1, 2, 3))
        gmm = build_gmm([m], SharedCovariance(np.eye(6)))
        assert len(gmm.components) == 1
        assert np.array_equal(gmm.components[0], observation_vector(m))
        # the lone component carries the whole mass
        assert gmm.likelihood(observation_vector(m))[0] == pytest.approx(PEAK_6D, rel=1e-12)

    def test_uniform_weights(self, rng):
        ms = [make_measurement(i, pos=(i, 0, 0)) for i in range(1, 5)]
        gmm = build_gmm(ms, SharedCovariance(np.eye(6)))
        xs = rng.uniform(0, 5, size=(16, 6))
        singles = [single_gmm(observation_vector(m)).likelihood(xs) for m in ms]
        assert gmm.likelihood(xs) == pytest.approx(0.25 * sum(singles), rel=1e-12)

    @pytest.mark.parametrize("count", [1, 3, 17, 100])
    def test_weights_sum_to_one(self, count):
        # Coincident components: the mixture equals one component iff the weights sum to one.
        ms = [make_measurement(i, pos=(0.5, 0, 0)) for i in range(1, count + 1)]
        gmm = build_gmm(ms, SharedCovariance(np.eye(6)))
        at_mean = gmm.likelihood([0.5, 0, 0, 0, 0, 0])[0]
        assert at_mean == pytest.approx(PEAK_6D, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            build_gmm([], SharedCovariance(np.eye(6)))

    def test_components_share_one_covariance(self):
        shared = SharedCovariance(np.eye(6))
        gmm = build_gmm([make_measurement(i) for i in range(1, 4)], shared)
        assert gmm.covariance is shared
        assert gmm.components.shape == (3, 6)


class TestDerivedFields:
    """A mixture derives its whitened means and gate box from its components alone."""

    POSITIONS = [(1.0, -2.0, 0.5), (-3.0, 4.0, 0.25), (2.0, 0.0, -1.5)]

    def test_a_hand_built_mixture_carries_its_gate_box(self):
        ms = [make_measurement(i, pos=p) for i, p in enumerate(self.POSITIONS, start=1)]
        components = np.stack([observation_vector(m) for m in ms])
        gmm = LandmarkGMM(components, SharedCovariance(np.eye(6)))
        assert gmm.box == position_box(ms) == (-3.0, -2.0, -1.5, -2.0, -4.0, -0.5)

    def test_a_built_mixture_carries_its_measurements_box(self, rng):
        ms = random_measurements(rng, 7)
        assert build_gmm(ms, SharedCovariance(random_covariance(rng))).box == position_box(ms)

    def test_whitened_means_are_the_components_over_sigma(self, rng):
        cov = random_covariance(rng)
        components = rng.normal(size=(5, 6))
        gmm = LandmarkGMM(components, SharedCovariance(cov))
        expected = components / np.sqrt(np.diagonal(cov))
        assert gmm.whitened.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["whitened", "box"])
    def test_derived_fields_cannot_be_passed(self, name):
        with pytest.raises(TypeError):
            LandmarkGMM(np.zeros((2, 6)), SharedCovariance(np.eye(6)), **{name: None})


class TestDensity:
    def test_peak_of_standard_normal(self):
        gmm = single_gmm()
        assert gmm.likelihood(np.zeros(6))[0] == pytest.approx(PEAK_6D, abs=1e-12)

    def test_far_tail_underflows_to_zero(self):
        gmm = single_gmm()
        x = np.full(6, 50.0)  # Mahalanobis far above 40
        assert gmm.likelihood(x)[0] < 1e-300

    def test_duplicate_components_collapse(self, rng):
        shared = SharedCovariance(np.eye(6))
        mean = np.arange(6.0)
        double = LandmarkGMM(components=np.stack([mean, mean]), covariance=shared)
        single = LandmarkGMM(components=mean[None, :], covariance=shared)
        for _ in range(20):
            x = rng.uniform(-3, 9, size=6)
            assert double.likelihood(x)[0] == single.likelihood(x)[0]

    def test_component_permutation_invariance(self, rng):
        shared = SharedCovariance(random_covariance(rng))
        means = np.stack([np.zeros(6), 0.3 * np.ones(6), -0.2 * np.ones(6)])
        a = LandmarkGMM(components=means, covariance=shared)
        b = LandmarkGMM(components=means[[2, 0, 1]], covariance=shared)
        xs = rng.uniform(-0.5, 0.5, size=(20, 6))
        assert a.likelihood(xs) == pytest.approx(b.likelihood(xs), rel=1e-12)

    def test_isotropy(self, rng):
        gmm = single_gmm(cov=0.7**2 * np.eye(6))
        for _ in range(50):
            offset = rng.normal(size=6)
            offset /= np.linalg.norm(offset)
            radius = rng.uniform(0.1, 3.0)
            x1 = radius * offset
            other = rng.normal(size=6)
            other /= np.linalg.norm(other)
            x2 = radius * other
            assert gmm.likelihood(x1)[0] == pytest.approx(gmm.likelihood(x2)[0], rel=1e-10)

    def test_density_many_matches_scalar(self, rng):
        # A batch of points scores each row as a one-point call does.
        ms = [make_measurement(i, pos=(0.3 * i, 0, 0)) for i in range(1, 4)]
        gmm = build_gmm(ms, SharedCovariance(np.diag([0.25**2] * 3 + [0.03] * 3)))
        xs = rng.normal(size=(64, 6))
        batched = gmm.likelihood(xs)
        for i, x in enumerate(xs):
            assert batched[i] == pytest.approx(gmm.likelihood(x)[0], rel=1e-12)

    def test_normalization_with_default_base_covariance(self, rng):
        # Importance-sampled integral over the +-8 sigma box, diagonal case.
        sigmas = np.array([0.25] * 3 + [math.radians(10.0)] * 3)
        gmm = single_gmm(cov=np.diag(sigmas**2))
        proposal = 1.5 * sigmas
        xs = rng.normal(scale=proposal, size=(2**17, 6))
        inside = np.all(np.abs(xs) <= 8.0 * sigmas, axis=1)
        log_q = (
            -0.5 * np.sum((xs / proposal) ** 2, axis=1)
            - np.sum(np.log(proposal))
            - 3.0 * math.log(2.0 * math.pi)
        )
        integral = np.mean(gmm.likelihood(xs) / np.exp(log_q) * inside)
        assert integral == pytest.approx(1.0, abs=0.05)


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("cov_kind", sorted(COVARIANCES))
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 7), (5, 1), (13, 9), (40, 33)])
    def test_random_points_and_components(self, rng, cov_kind, k, n):
        cov = COVARIANCES[cov_kind](rng)
        means = rng.normal(scale=0.3, size=(n, 6))
        xs = means[rng.integers(n, size=k)] + rng.normal(scale=0.2, size=(k, 6))
        gmm = LandmarkGMM(components=means, covariance=SharedCovariance(cov))
        expected = reference_likelihood(xs, means, cov)
        assert np.all(expected > 0.0)
        assert gmm.likelihood(xs) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cov_kind", sorted(COVARIANCES))
    def test_rotation_vectors_near_pi(self, rng, cov_kind):
        # Rotations just short of +-180 deg put rotation vectors on both sides of the seam.
        cov = COVARIANCES[cov_kind](rng) + np.diag([0.0] * 3 + [0.5] * 3)
        measurements = []
        for i in range(12):
            axis = rng.normal(size=3)
            angle = rng.choice([-1.0, 1.0]) * rng.uniform(179.0, 180.0)
            measurements.append(
                make_measurement(i + 1, pos=tuple(rng.normal(scale=0.1, size=3)),
                                 quat=quat_about(axis, angle))
            )
        obs = np.stack([observation_vector(m) for m in measurements])
        assert np.all(np.linalg.norm(obs[:, 3:], axis=1) > math.pi - 0.02)
        means, xs = obs[:7], obs[7:]
        gmm = build_gmm(measurements[:7], SharedCovariance(cov))
        expected = reference_likelihood(xs, means, cov)
        assert np.all(expected > 0.0)
        assert gmm.likelihood(xs) == pytest.approx(expected, rel=1e-12)
        assert score_alone(measurements[7:], gmm) == pytest.approx(
            float(np.max(expected)), rel=1e-12
        )


def random_measurements(rng, count, near_pi=False):
    """Measurements with random positions and orientations, optionally just short of 180 deg."""
    measurements = []
    for i in range(count):
        if near_pi:
            quat = quat_about(rng.normal(size=3), rng.choice([-1.0, 1.0]) * rng.uniform(179.0, 180.0))
        else:
            quat = random_unit_quaternion(rng)
        measurements.append(make_measurement(
            i + 1, pos=tuple(rng.normal(scale=0.3, size=3)), quat=quat
        ))
    return measurements


class TestObservationCache:
    def test_one_observation_vector_per_measurement_per_run(self, monkeypatch):
        calls = Counter()
        original = mixture_module.observation_vector

        def counted(measurement):
            calls[measurement] += 1
            return original(measurement)

        monkeypatch.setattr(mixture_module, "observation_vector", counted)
        config = RunConfig().with_seed(0)
        dataset = generate(replace(preset("aisle_slow"), seed=0))
        run_association(
            dataset.keyframes,
            group_size=config.group_size,
            group_overlap=config.group_overlap,
            tracker_params=config.tracker_params(),
            assoc_params=config.assoc_params(),
            base_cov=config.base_cov(),
            refine_params=config.refine_params(),
        )
        measurements = {m for kf in dataset.keyframes for m in kf.measurements}
        assert set(calls) == measurements
        assert all(n == 1 for n in calls.values())

    def test_observations_are_cached_and_a_built_mixture_whitens_them(self, rng):
        cov = random_covariance(rng)
        shared = SharedCovariance(cov)
        measurements = random_measurements(rng, 9)
        shared.observations(measurements[4:7])  # warm part of the cache in another batch
        obs = shared.observations(measurements)
        whitened = build_gmm(measurements, shared).whitened
        expected = np.stack([observation_vector(m) for m in measurements])
        assert np.array_equal(obs, expected)
        chol = linalg.cholesky(cov, lower=True)
        assert whitened == pytest.approx(
            linalg.solve_triangular(chol, expected.T, lower=True).T, rel=1e-12, abs=1e-15
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_whiten_refuses_non_finite_points(self, bad):
        xs = np.zeros((2, 6))
        xs[1, 4] = bad
        with pytest.raises(NumericalError, match="must be finite"):
            SharedCovariance(np.eye(6)).whiten(xs)

    @pytest.mark.parametrize("cov_kind", sorted(COVARIANCES))
    @pytest.mark.parametrize("near_pi", [False, True], ids=["random", "near_pi"])
    @pytest.mark.parametrize("n,k", [(1, 1), (6, 3), (25, 12)])
    def test_cached_rows_match_reference(self, rng, cov_kind, near_pi, n, k):
        cov = COVARIANCES[cov_kind](rng) + np.diag([0.0] * 3 + [0.5] * 3)
        shared = SharedCovariance(cov)
        measurements = random_measurements(rng, n + k, near_pi=near_pi)
        components, candidates = measurements[:n], measurements[n:]
        # candidates meet the cache first, components later, mixed with cached ones
        shared.observations(candidates[::2])
        gmm = build_gmm(components, shared)
        means = np.stack([observation_vector(m) for m in components])
        xs = np.stack([observation_vector(m) for m in candidates])
        expected = reference_likelihood(xs, means, cov)
        assert np.all(expected > 0.0)
        assert gmm.likelihood(xs) == pytest.approx(expected, rel=1e-12)
        assert score_alone(candidates, gmm) == pytest.approx(
            float(np.max(expected)), rel=1e-12
        )

    @pytest.mark.parametrize("cov_kind", sorted(COVARIANCES))
    def test_direct_and_built_mixtures_agree(self, rng, cov_kind):
        shared = SharedCovariance(COVARIANCES[cov_kind](rng))
        measurements = random_measurements(rng, 15)
        shared.observations(measurements[10:])
        built = build_gmm(measurements, shared)
        direct = LandmarkGMM(
            components=np.stack([observation_vector(m) for m in measurements]),
            covariance=shared,
        )
        assert np.array_equal(direct.components, built.components)
        xs = built.components[rng.integers(15, size=40)] + rng.normal(scale=0.1, size=(40, 6))
        assert direct.likelihood(xs) == pytest.approx(built.likelihood(xs), rel=1e-12)


class TestWhitenedRowsDependOnTheirMeasurementAlone:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40))
    def test_a_row_is_whitened_alike_in_any_batch(self, seed, m):
        rng = np.random.default_rng(seed)
        cov = random_covariance(rng)
        shared = SharedCovariance(cov)
        xs = rng.normal(scale=2.0, size=(m, 6))
        sigma = np.sqrt(np.diagonal(cov))
        batch = shared.whiten(xs)
        for i in range(m):
            alone = shared.whiten(xs[i : i + 1])
            assert batch[i].tobytes() == alone[0].tobytes() == (xs[i] / sigma).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        near_pi=st.booleans(),
        data=st.data(),
    )
    def test_rows_do_not_depend_on_the_order_or_batches_the_cache_meets(
        self, seed, n, near_pi, data
    ):
        rng = np.random.default_rng(seed)
        cov = random_covariance(rng)
        measurements = random_measurements(rng, n, near_pi=near_pi)
        order = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        at_once, piecewise = SharedCovariance(cov), SharedCovariance(cov)
        at_once.observations(measurements)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            piecewise.observations([measurements[i] for i in order[lo:hi]])

        def rows(shared):
            gmm = build_gmm(measurements, shared)
            return np.hstack([shared.observations(measurements), gmm.whitened]).tobytes()

        assert rows(piecewise) == rows(at_once)


class TestValidation:
    @pytest.mark.parametrize(
        "entries, value",
        [(((0, 1),), 1e-3), (((0, 1), (1, 0)), 1e-12), (((5, 2), (2, 5)), -1e-12)],
        ids=["asymmetric", "symmetric_1e-12", "symmetric_negative"],
    )
    def test_off_diagonal_covariance_rejected(self, entries, value):
        cov = np.eye(6)
        for entry in entries:
            cov[entry] = value
        with pytest.raises(NumericalError, match="diagonal"):
            SharedCovariance(cov)

    def test_off_diagonal_base_covariance_is_refused_before_any_work(self, monkeypatch):
        cov = RunConfig().base_cov()
        cov[0, 1] = cov[1, 0] = 1e-12

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the covariance was checked")

        monkeypatch.setattr(association_module, "form_groups", no_work)
        monkeypatch.setattr(association_module, "associate_within_group", no_work)
        config = RunConfig()
        keyframes = [make_keyframe(1, [make_measurement(1, kf_id=1)])]
        with pytest.raises(NumericalError, match="diagonal"):
            run_association(
                keyframes,
                group_size=config.group_size,
                group_overlap=config.group_overlap,
                tracker_params=config.tracker_params(),
                assoc_params=config.assoc_params(),
                base_cov=cov,
                refine_params=config.refine_params(),
            )

    def test_covariance_below_floor_rejected(self):
        cov = np.eye(6)
        cov[5, 5] = 1e-12
        with pytest.raises(NumericalError):
            SharedCovariance(cov)

    def test_covariance_shape_checked(self):
        with pytest.raises(InvalidInputError):
            SharedCovariance(np.eye(3))

    @pytest.mark.parametrize(
        "cov", [np.full((6, 6), np.nan), np.diag([np.inf] * 6)], ids=["nan", "inf"]
    )
    def test_non_finite_covariance_rejected(self, cov):
        # checked before any arithmetic on the matrix: no raw ValueError, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                SharedCovariance(cov)

    @pytest.mark.parametrize("shape", [(0, 6), (6,), (2, 5)])
    def test_component_shape_checked(self, shape):
        with pytest.raises(InvalidInputError):
            LandmarkGMM(components=np.zeros(shape), covariance=SharedCovariance(np.eye(6)))


class TestMaxMeasurementLikelihood:
    def test_measurement_at_target_mean(self):
        target = single_gmm()
        candidate = [make_measurement(1)]
        assert score_alone(candidate, target) == pytest.approx(
            PEAK_6D, abs=1e-12
        )

    def test_far_candidate_is_negligible(self):
        target = single_gmm()
        candidate = [make_measurement(1, pos=(200, 0, 0))]
        assert score_alone(candidate, target) < 1e-300

    def test_monotone_under_additional_measurements(self, rng):
        target = single_gmm()
        candidate = [make_measurement(1, pos=(3, 0, 0))]
        base = score_alone(candidate, target)
        for i in range(5):
            candidate.append(
                make_measurement(2 + i, pos=tuple(rng.uniform(-4, 4, size=3)))
            )
            grown = score_alone(candidate, target)
            assert grown >= base
            base = grown


class TestMixtureStack:
    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 150), min_size=1, max_size=12),
        n_points=st.integers(1, 6),
        spread=st.sampled_from([0.05, 0.5, 5.0]),
        far=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_scores_equal_single_scores_bit_for_bit(
        self, sizes, n_points, spread, far, seed
    ):
        rng = np.random.default_rng(seed)
        covariance = SharedCovariance(random_covariance(rng))
        gmms = [LandmarkGMM(rng.normal(scale=spread, size=(n, 6)), covariance) for n in sizes]
        # 1 km away every component density underflows to exactly 0.0.
        offset = 1000.0 if far else 0.0
        candidate = [
            make_measurement(
                i + 1, kf_id=i, pos=tuple(rng.normal(scale=spread, size=3) + offset),
                quat=random_unit_quaternion(rng),
            )
            for i in range(n_points)
        ]
        stacked = max_measurement_likelihood(candidate, MixtureStack(gmms))
        single = [score_alone(candidate, gmm) for gmm in gmms]
        assert stacked == single
        assert all(type(score) is float for score in stacked)
        if far:
            assert stacked == [0.0] * len(gmms)

    @pytest.mark.parametrize("n_points", [1, 3])
    @pytest.mark.parametrize("offset", range(8))
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 199), seed=st.integers(0, 2**32 - 1))
    def test_a_mixture_scores_the_same_at_every_row_offset(self, offset, n_points, size, seed):
        # 0-7 one-row mixtures before it cover every start row mod 8 of its slice.
        rng = np.random.default_rng(seed)
        covariance = SharedCovariance(random_covariance(rng))
        leading = [LandmarkGMM(rng.normal(size=(1, 6)), covariance) for _ in range(offset)]
        gmm = LandmarkGMM(rng.normal(scale=0.5, size=(size, 6)), covariance)
        candidate = [
            make_measurement(
                i + 1, kf_id=i, pos=tuple(rng.normal(scale=0.5, size=3)),
                quat=random_unit_quaternion(rng),
            )
            for i in range(n_points)
        ]
        *_, stacked = max_measurement_likelihood(candidate, MixtureStack(leading + [gmm]))
        assert stacked == score_alone(candidate, gmm)

    def test_components_join_in_stack_order(self):
        covariance = SharedCovariance(np.eye(6))
        first = LandmarkGMM(np.zeros((2, 6)), covariance)
        second = LandmarkGMM(np.ones((3, 6)), covariance)
        stack = MixtureStack([first, second])
        assert stack.components.tolist() == [[0.0] * 6] * 2 + [[1.0] * 6] * 3
        assert stack.whitened.tobytes() == np.vstack([first.whitened, second.whitened]).tobytes()

    def test_empty_or_mixed_covariance_stack_refused(self):
        with pytest.raises(InvalidInputError):
            MixtureStack([])
        with pytest.raises(InvalidInputError):
            MixtureStack([single_gmm(), single_gmm()])
