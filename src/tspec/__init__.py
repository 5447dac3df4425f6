"""Temporal-spectrum traffic labeling and noise-robustness evaluation.

Pipeline: flow CSVs (or synthetic scenarios) -> continuous per-second
timeline -> sliding windows with flattened features -> continuous spectrum
labels (COAP / SSPE) -> thresholded training labels -> desk-scale models ->
cosine-signature attack identification and a seeded noise sweep.
"""

from .dataprep import (
    AttackSegment,
    Dataset,
    NoiseSpec,
    SyntheticScenario,
    ZScoreParams,
    assemble_dataset,
    generate_synthetic,
    inject_noise,
    load_dataset,
    save_dataset,
    split_dataset,
    zscore_apply,
    zscore_fit,
)
from .errors import ConfigError, DataError, PipelineError
from .evalharness import (
    DetectionMetrics,
    EvalReport,
    EvalRow,
    MethodArtifacts,
    SweepConfig,
    contiguous_segments,
    detection_metrics,
    detection_truth,
    emit_report,
    identification_accuracy,
    identify_segments,
    load_report,
    run_noise_sweep,
)
from .identify import (
    IdentificationResult,
    SpectrumSignature,
    build_registry,
    build_signature,
    cosine_similarity,
    identify_attack,
    load_registry,
    save_registry,
)
from .ingest import (
    FlowSchema,
    PacketTimeline,
    fill_missing_points,
    nonconstant_features,
    parse_flow_csv,
    select_features,
)
from .models import ModelSpec, TrainedModel, load_model, predict, save_model, train
from .seeds import derive_seed, rng_for
from .spectrum import (
    ThresholdSpec,
    binarize,
    coap_values,
    compute_threshold,
    default_parameter_grid,
    encoding_matrix,
    parameter_grid_scores,
    proportional_positive_count,
    score_label_distribution,
    sspe_values,
)
from .windowing import (
    window_attack_tags,
    window_binary_labels,
    window_matrices,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
