"""Egocentric link recommendation over temporal graph snapshots."""

from types import ModuleType as _ModuleType

from .degree_dist import (
    BinnedDistribution,
    DegreeSampleSet,
    global_degree_samples,
    log_binned_histogram,
    personalized_degree_samples,
)
from .ego import (
    EdgeConfig,
    EgoView,
    TriadType,
    TRIAD_TABLE,
    classify_triad,
    common_neighbors,
    ego_neighbors,
    ego_view,
    personalized_degree,
    sample_egos,
    two_hop_candidates,
)
from .empirical import (
    EmpiricalStats,
    GroupStats,
    aggregate_empirical,
    ego_snapshot_stats,
)
from .errors import (
    ConfigError,
    EmptyInputError,
    EmptyResultError,
    ParseError,
    PreconditionError,
)
from .evaluation import (
    EvalResult,
    RankedList,
    evaluate_methods,
    percent_improvement,
    precision_at_k,
    rank_candidates,
)
from .generators import GeneratorSpec, generate
from .graph import (
    SnapshotGraph,
    SnapshotSeries,
    TemporalEdgeList,
    build_snapshots,
    drop_zero_out_degree,
    ingest_edges,
    write_label_map_csv,
    write_normalized_csv,
)
from .scorers import (
    ScoreTable,
    score_candidates,
)

__version__ = "0.1.0"

#: the public names: ``__version__`` and every name imported above
__all__ = ["__version__"] + [name for name, value in globals().items()
                             if not name.startswith("_") and not isinstance(value, _ModuleType)]
