"""The package's public names: a change to ``egolink.__all__`` must edit
the frozen list below on purpose."""

import egolink

PUBLIC_API = frozenset({
    "__version__",
    # degree distributions
    "BinnedDistribution", "DegreeSampleSet", "global_degree_samples",
    "log_binned_histogram", "personalized_degree_samples",
    # ego primitives and directed triads
    "EdgeConfig", "EgoView", "TriadType", "TRIAD_TABLE", "classify_triad",
    "common_neighbors", "ego_neighbors", "ego_view", "personalized_degree",
    "sample_egos", "two_hop_candidates",
    # formed vs not-formed statistics
    "EmpiricalStats", "GroupStats", "aggregate_empirical", "ego_snapshot_stats",
    # errors
    "ConfigError", "EmptyInputError", "EmptyResultError", "ParseError",
    "PreconditionError",
    # evaluation
    "EvalResult", "RankedList", "evaluate_methods", "percent_improvement",
    "precision_at_k", "rank_candidates",
    # generators
    "GeneratorSpec", "generate",
    # loading and snapshots
    "SnapshotGraph", "SnapshotSeries", "TemporalEdgeList", "build_snapshots",
    "drop_zero_out_degree", "ingest_edges", "write_label_map_csv",
    "write_normalized_csv",
    # scoring
    "ScoreTable", "score_candidates",
})

#: names retired with the single-pair scoring path and the helpers only
#: unit tests called, by the namespace that held them
RETIRED = {
    "scorers": ("score_cn", "score_aa", "score_pdcn", "score_pdaa", "_pair_common",
                "_score_pair"),
    "empirical": ("partition_candidates",),
    "graph": ("neighbors",),
    "graph.SnapshotGraph": ("has_edge", "has_sym_edge"),
    "ego": ("default_degree_modes",),
}


def test_all_is_frozen():
    names = egolink.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(egolink, name), name
    assert set(names) == PUBLIC_API


def test_retired_names_gone():
    for where, names in RETIRED.items():
        target = egolink
        for part in where.split("."):
            target = getattr(target, part)
        for name in names:
            assert name not in egolink.__all__
            assert not hasattr(target, name), f"{where}.{name}"
