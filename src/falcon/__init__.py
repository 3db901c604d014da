"""Spatio-temporal interaction extraction and signed-network polarization analysis."""

__version__ = "0.1.0"

from .dataset import LabeledExample, split_dataset, summarize
from .encoder import ArBertEncoder, insert_markers, pool_occurrence
from .evalbench import compute_metrics, evaluate_transfer, run_ablations
from .extract import classify_type, extract_corpus, normalize_time
from .fusion import FrozenTrajectoryExtractor, fuse
from .ingest import (
    CandidateQuadruple,
    Document,
    EntityMention,
    TextSegment,
    TrajectoryTriple,
    audit_coverage,
    generate_candidates,
    load_triples,
    pair_candidates,
    segment_document,
)
from .polarnet import (
    SignedGraph,
    build_graph,
    graph_stats,
    interaction_distance,
    modularity,
    randomize_null,
    standardized_modularity,
    trend_ratios,
)
from .training import (
    InteractionModel,
    TrainConfig,
    multitask_loss,
    predict,
    pretrain_trajectory_extractor,
    train,
    trajectory_loss,
)
