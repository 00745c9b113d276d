"""Cross-domain manifold matching toolkit.

Per-domain dissimilarities are embedded by classical MDS, aligned into one
shared space by CCA (two views) or its many-view generalization, and
evaluated with a cross-view k-nearest-neighbor protocol under varying
amounts of relation-learning data.
"""

from .align import (
    AlignmentMaps,
    cca_fit,
    commensurability_error,
    gcca_fit,
    load_alignment,
    project,
    save_alignment,
)
from .classify import (
    LabeledEmbedding,
    average_views,
    knn_predict,
    loo_cross_view_accuracy,
)
from .corpus import (
    ROLE_CLASSIFIER,
    ROLE_RELATION,
    ClassSplitSpec,
    DomainData,
    LabeledCorpus,
    apply_class_split,
    load_corpus,
    save_corpus,
    synthesize_corpus,
)
from .dissimilarity import (
    DissimilarityMatrix,
    cosine_dissimilarity,
    frobenius_prescale,
    graph_geodesic,
)
from .errors import (
    ConditioningError,
    ConfigError,
    FormatError,
    IntegrityError,
    ManifoldMatchError,
    ValidationError,
)
from .experiment import (
    AccuracyReport,
    DimensionSchedule,
    ExperimentConfig,
    ScheduleRow,
    ViewSpec,
    emit_curves,
    run_experiment,
    run_replicate,
)
from .mds import MdsModel, fidelity_error, mds_fit, mds_out_of_sample, scree
from .numerics import SpectralResult, eig_sym

__version__ = "0.1.0"
