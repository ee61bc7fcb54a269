import math
import re
from contextlib import nullcontext
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from objassoc.association import AssocParams, base_density_for_volume
from objassoc.config import RunConfig, config_from_text, config_to_mapping, config_to_text
from objassoc.errors import InvalidConfigurationError, ObjAssocError
from objassoc.mixture import COVARIANCE_FLOOR, SharedCovariance
from objassoc.refine import RefineParams
from objassoc.tracking import TrackerParams

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_defaults() -> str:
    """The ``key = value`` block of the README's Configuration section."""
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    return re.search(r"```text\n(.*?)```", section, re.DOTALL).group(1)


def test_default_text_matches_the_documented_block():
    assert config_to_text(RunConfig()) == documented_defaults()


def test_default_text_round_trips():
    text = config_to_text(RunConfig())
    assert config_from_text(text) == RunConfig()
    assert config_to_text(config_from_text(text)) == text


def test_non_default_config_round_trips():
    custom = RunConfig(
        group_size=4,
        group_overlap=1,
        gmm_base_cov_pos_sigma=0.4,
        assoc_gibbs_sweeps=3,
        assoc_seed=11,
        refine_a_deg=30.0,
        refine_b_m=0.5,
    )
    assert config_from_text(config_to_text(custom)) == custom


# Each value config_from_text refuses, as the RunConfig field and the config line.
INVALID_VALUES = [
    pytest.param("assoc_seed", -1, "assoc.seed = -1", id="negative_seed"),
    pytest.param("group_overlap", 7, "group_overlap = 7", id="overlap_not_below_size"),
    pytest.param("group_overlap", 9, "group_overlap = 9", id="overlap_above_size"),
    pytest.param("gmm_base_cov_pos_sigma", 0.0, "gmm.base_cov_pos_sigma = 0", id="zero_sigma"),
    pytest.param(
        "gmm_base_cov_rot_sigma_deg", -10.0, "gmm.base_cov_rot_sigma_deg = -10",
        id="negative_sigma",
    ),
    pytest.param(
        "gmm_base_cov_pos_sigma", 1e-5, "gmm.base_cov_pos_sigma = 1e-5",
        id="sigma_squared_below_floor",
    ),
    pytest.param("tracker_w_app", 5.0, "tracker.w_app = 5.0", id="weights_not_summing_to_1"),
    pytest.param("refine_alpha", 0.5, "refine.alpha = 0.5", id="alpha_plus_beta_not_1"),
    pytest.param("tracker_gate_radius", math.inf, "tracker.gate_radius = inf", id="inf"),
]


@pytest.mark.parametrize("field, value, line", INVALID_VALUES)
def test_invalid_value_is_refused_by_the_parser_and_at_construction(field, value, line):
    with pytest.raises(InvalidConfigurationError):
        config_from_text(line + "\n")
    with pytest.raises(ObjAssocError):
        RunConfig(**{field: value})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_float_in_a_config_file_names_its_key(value):
    message = rf"^tracker\.gate_radius must be a finite number, got {float(value)!r}$"
    with pytest.raises(InvalidConfigurationError, match=message):
        config_from_text(f"tracker.gate_radius = {value}\n")


# (field, config key) of every float field of RunConfig, in declaration order
FLOAT_FIELDS = [
    (f.name, key)
    for f, key in zip(fields(RunConfig), config_to_mapping(RunConfig()))
    if type(f.default) is float
]


@pytest.mark.parametrize("value", ["0.5", True])
@pytest.mark.parametrize("field, key", FLOAT_FIELDS)
def test_a_string_or_bool_float_field_names_its_config_key(field, key, value):
    message = rf"^{re.escape(key)} must be a finite number, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidConfigurationError, match=message):
        RunConfig(**{field: value})


@pytest.mark.parametrize(
    "field, key, value, accepted",
    [
        ("gmm_base_cov_pos_sigma", "gmm.base_cov_pos_sigma", 1e-5, 1e-4),
        ("gmm_base_cov_rot_sigma_deg", "gmm.base_cov_rot_sigma_deg", 0.005, 0.006),
    ],
)
def test_a_variance_below_the_floor_names_its_config_key(field, key, value, accepted):
    # The check is on the exact diagonal entries, so it agrees with SharedCovariance's.
    message = rf"^{re.escape(key)} = .* below the {COVARIANCE_FLOOR} floor$"
    with pytest.raises(InvalidConfigurationError, match=message):
        RunConfig(**{field: value})
    with pytest.raises(InvalidConfigurationError, match=message):
        config_from_text(f"{key} = {value}\n")
    # Just above the floor: accepted by both.
    covariance = RunConfig(**{field: accepted}).base_cov()
    assert SharedCovariance(covariance).sigma.min() ** 2 < 2 * COVARIANCE_FLOOR


@pytest.mark.parametrize(
    "field, key",
    [
        ("gmm_base_cov_pos_sigma", "gmm.base_cov_pos_sigma"),
        ("gmm_base_cov_rot_sigma_deg", "gmm.base_cov_rot_sigma_deg"),
    ],
)
def test_a_sigma_whose_square_overflows_names_its_config_key(field, key):
    message = rf"^{re.escape(key)} = 1e\+200 squared overflows$"
    with pytest.raises(InvalidConfigurationError, match=message):
        RunConfig(**{field: 1e200})
    with pytest.raises(InvalidConfigurationError, match=message):
        config_from_text(f"{key} = 1e200\n")


@pytest.mark.parametrize(
    "field, key",
    [
        ("gmm_base_cov_pos_sigma", "gmm.base_cov_pos_sigma"),
        ("gmm_base_cov_rot_sigma_deg", "gmm.base_cov_rot_sigma_deg"),
    ],
)
def test_a_numpy_sigma_whose_square_overflows_names_its_config_key(field, key):
    message = rf"^{re.escape(key)} = .*1e\+200.* squared overflows$"
    # NumPy warns where a Python float raises; only the position sigma is squared as a NumPy float
    overflow = pytest.warns(RuntimeWarning, match="overflow") if "pos" in key else nullcontext()
    with overflow, pytest.raises(InvalidConfigurationError, match=message):
        RunConfig(**{field: np.float64(1e200)})


@pytest.mark.parametrize("volume", [0.0, -5.0])
def test_a_workspace_volume_that_is_not_positive_names_its_key(volume):
    message = rf"^assoc\.workspace_volume = {re.escape(repr(volume))} must be positive$"
    with pytest.raises(InvalidConfigurationError, match=message):
        RunConfig(assoc_workspace_volume=volume)


@pytest.mark.parametrize(
    "alpha_new, volume, weight",
    [(1e-300, 1e300, "0.0"), (1e308, 1e-6, "inf"), (1.0, 1e308, "0.0"), (-1.0, 7500.0, "-")],
)
def test_a_new_landmark_weight_that_is_not_positive_and_finite_names_both_keys(
    alpha_new, volume, weight
):
    message = (
        r"^assoc\.alpha_new = .* and assoc\.workspace_volume = .* give unusable "
        rf"new-landmark weight {re.escape(weight)}"
    )
    with pytest.raises(InvalidConfigurationError, match=message):
        RunConfig(assoc_alpha_new=alpha_new, assoc_workspace_volume=volume)


def test_the_new_landmark_weight_is_alpha_new_times_the_base_density():
    config = RunConfig(assoc_alpha_new=2.5, assoc_workspace_volume=300.0)
    assert config.assoc_params().new_weight == 2.5 * base_density_for_volume(300.0)


@pytest.mark.parametrize(
    "field, value",
    [("group_size", 2.5), ("group_overlap", 1.5), ("group_size", 7.0), ("group_overlap", True)],
)
def test_a_non_integer_window_is_refused_at_construction(field, value):
    with pytest.raises(InvalidConfigurationError, match="must be integers"):
        RunConfig(**{field: value})


def test_a_numpy_integer_window_is_accepted():
    assert RunConfig(group_size=np.int64(4), group_overlap=np.int64(1)) == RunConfig(
        group_size=4, group_overlap=1
    )


@pytest.mark.parametrize("seed", [-3, 1.0, True])
def test_with_seed_refuses_a_bad_seed(seed):
    with pytest.raises(InvalidConfigurationError, match="rng_seed"):
        RunConfig().with_seed(seed)


@pytest.mark.parametrize("bundle", [TrackerParams, AssocParams, RefineParams])
def test_stage_bundles_take_every_value_from_the_run_config(bundle):
    assert all(f.default is MISSING for f in fields(bundle))
