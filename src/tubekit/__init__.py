"""tubekit: action-tube geometry, metrics, construction and feature pooling."""

from .aggregators import (
    Conv1dSpec,
    aspp_forward,
    conv1d,
    random_weights,
    tcn_forward,
    temporal_max_pool,
)
from .datamodel import (
    ActionTube,
    DatasetConfig,
    Detection,
    FileFormatError,
    FrameDetections,
    GroundTruthTube,
    Track,
    TrackScores,
    builtin_config,
    load_action_tubes,
    load_detections,
    load_ground_truth,
    load_track_scores,
    load_tracks,
    save_action_tubes,
    save_detections,
    save_ground_truth,
    save_track_scores,
    save_tracks,
)
from .filtering import filter_by_tracks
from .geometry import Box, TubeGeometry, box_iou, iou2d, st_iou
from .linking import (
    LinkedPath,
    LinkParams,
    TrimParams,
    build_tubes,
    greedy_link,
    tracks_to_tubes,
    trim_path,
)
from .metrics import (
    EvalReport,
    PRCurve,
    average_precision,
    evaluate_frames,
    evaluate_videos,
    threshold_sweep,
)
from .motion import (
    MotionCategory,
    MotionLabel,
    classify_motion,
    label_tubes,
    motion_cdf,
    motion_iou,
)
from .roialign import FeatureGrid, align_tracks, bilinear_sample, roi_align, spatial_avg_pool
from .synth import SynthSpec, generate
from .tensorfile import read_tensors, write_tensors

__version__ = "0.1.0"
