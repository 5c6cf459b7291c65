"""Stance inference over weighted user-hashtag interaction graphs."""

from .errors import (
    BoundsError,
    ConfigError,
    DegenerateHashtag,
    EmptyChannel,
    EmptyCorpus,
    EmptyEligibleSet,
    EmptyEvaluation,
    NumericsError,
    RecordError,
    ShapeError,
    StanceGraphError,
)
from .ingest import (
    Corpus,
    CorpusFilterConfig,
    InteractionCounts,
    TweetRecord,
    apply_filters,
    extract_interactions,
    normalize_hashtag,
    parse_corpus,
)
from .graphs import (
    BipartiteGraph,
    MetaPathSpec,
    NormalizedAdjacency,
    SocialWeights,
    UserGraph,
    binarize,
    build_adjacency,
    build_interaction_graph,
    build_social_graph,
    compute_pathsim,
    normalize_user_graph,
    propagate_once,
    sparsify,
)
from .model import (
    ChannelSet,
    EmbeddingState,
    ModelConfig,
    affinity,
    forward,
    init_embeddings,
    layer_averaged_propagate,
    load_checkpoint,
    propagate,
    save_checkpoint,
    score_all,
)
from .train import (
    AdamState,
    TrainConfig,
    adam_step,
    bpr_loss,
    grad_e0,
    sample_epoch,
    train,
)
from .metrics import ndcg_at_k, ranking_metrics, recall_at_k
from .evaluate import (
    EvalReport,
    HoldoutSplit,
    StanceAnnotation,
    SynthConfig,
    annotation_curve,
    bundled_annotations,
    classify_stance,
    ground_truth_stance,
    holdout_split,
    kfold_split,
    null_model,
    parse_annotations,
    run_protocol,
    stance_metrics,
    synth_generate,
)

__version__ = "0.1.0"
