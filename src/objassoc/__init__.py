"""Hierarchical object data association for semantic SLAM front-ends.

Keyframes are grouped into overlapping windows by one grouper
(``form_groups``); measurements inside a group are tracked short-term with a
gated Hungarian matcher; group tracks are then associated globally by seeded
Gibbs sampling over Gaussian-mixture landmark models; finally each landmark
adopts the pose of its most mutually consistent measurement. A synthetic
scenario generator and an evaluation harness make the whole pipeline
measurable against ground truth; ``evaluate`` reads every score off one
predicted-by-ground-truth contingency table.
"""

from .association import (
    AssocParams,
    AssociationResult,
    AssociationWeights,
    GlobalLandmark,
    LandmarkMap,
    association_weights,
    base_density_for_volume,
    gibbs_assign_group,
    run_association,
)
from .config import RunConfig, config_from_text, config_to_text, load_config
from .core import (
    BoundingBox2D,
    Keyframe,
    ObjectMeasurement,
    Pose6D,
    appearance_distance,
    rotation_angle,
    translation_distance,
)
from .errors import (
    DataFormatError,
    InvalidConfigurationError,
    InvalidInputError,
    NumericalError,
    ObjAssocError,
)
from .grouping import KeyframeGroup, form_groups
from .metrics import EvalReport, evaluate, match_landmarks, object_count_report
from .mixture import (
    LandmarkGMM,
    SharedCovariance,
    build_gmm,
    max_measurement_likelihood,
    observation_vector,
)
from .refine import (
    RefineParams,
    pose_scores,
    refine_pose,
    select_reference_index,
)
from .synth import (
    CameraPath,
    Dataset,
    GroundTruthLandmark,
    LandmarkSpec,
    ScenarioConfig,
    generate,
    preset,
)
from .tracking import GroupTrack, TrackerParams, associate_within_group, track_cost

__version__ = "0.1.0"
