"""Streaming procedure-step recognition engine and evaluation toolkit."""

from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateBatchError,
    PsrError,
    SchemaError,
    StreamOrderError,
    StructureError,
    UndefinedMetricError,
    UnknownTransitionError,
)
from .filtering import (
    ConfidenceFrame,
    FilterState,
    ProbStream,
    filter_step,
    filter_stream,
    fuse,
    fuse_streams,
    run_filter,
)
from .losses import EmbeddingBatch, ProbBatch, multilabel_bce, supcon_loss
from .metrics import (
    DatasetSummary,
    EditWeights,
    EvaluationReport,
    MatchLedger,
    aggregate,
    average_delay,
    damerau_levenshtein,
    evaluate,
    f1_score,
    match_predictions,
    pos_score,
)
from .procedure import (
    INSTALL,
    KINDS,
    REMOVE,
    ActionId,
    AssemblyState,
    EventSequence,
    Procedure,
    StepEvent,
    cumulative_state,
    frame_to_seconds,
    nominal_events,
    state_diff,
    toy_motorcycle,
)
from .sampling import (
    ClipSpec,
    KcasDistribution,
    KfsBatchSpec,
    KfsEntry,
    audit_kfs_batch,
    clip_indices,
    clip_label,
    kcas_pmf,
    kfs_batch,
    sample_clip_ends,
    state_occurrences,
)
from .simulator import (
    AsdModel,
    ErrorModel,
    ExperimentResult,
    OcclusionModel,
    SimConfig,
    SimTrace,
    TemporalModel,
    heavy_occlusion_config,
    run_experiment,
    simulate,
)
from .state_inference import StateDetection, asd_stream_probs, infer_steps

__version__ = "0.1.0"
