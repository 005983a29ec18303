"""Query-aware video frame selection.

Select K frames from a bounded integer-second candidate pool by greedily
maximizing a weighted sum of modular query relevance and facility-location
semantic coverage, with presets routed from the question type.  Inputs are
precomputed embeddings; nothing here decodes video or calls a model.
"""

from .embeddings import (
    EMBEDDING_MAGIC,
    EMBEDDING_VERSION,
    RELEVANCE_MODES,
    EmbeddingSet,
    l2_normalize_rows,
    load_embeddings,
    read_embedding_file,
    relevance_scores,
    similarity_issues,
    similarity_matrix,
    write_embedding_file,
    write_embedding_manifest,
)
from .errors import AlignmentError, FormatError, FrameselError, ParameterError
from .oracle import (
    GREEDY_RATIO_BOUND,
    MAX_EXACT_N,
    OracleReport,
    PropertySummary,
    RandomInstance,
    brute_force_optimum,
    check_bound,
    property_suite,
    random_instances,
)
from .pool import (
    DEFAULT_CAP,
    CandidatePool,
    VideoMeta,
    build_pool,
    frame_index_of_second,
    read_pool_manifest,
    second_of_position,
    write_pool_manifest,
)
from .routing import (
    DEFAULT_TYPES,
    ClassifierEvaluation,
    QuestionTypeModel,
    RoutingTable,
    evaluate_classifier,
    fit_routing,
    predict_type,
    read_accuracy_table,
    read_model,
    read_routing_table,
    read_training_examples,
    route,
    route_for_type,
    tokenize,
    train_classifier,
    write_model,
    write_routing_table,
)
from .selection import (
    COVERAGE_BASELINE,
    PRESET_NAMES,
    PRESET_ORDER,
    Preset,
    SelectionResult,
    make_preset,
    marginal_gain,
    objective_terms,
    objective_value,
    read_selection_result,
    select,
    write_selection_result,
)

__version__ = "0.1.0"
