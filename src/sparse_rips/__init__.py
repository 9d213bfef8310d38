"""Sparse Vietoris-Rips filtrations with persistence and guarantee checks.

The pipeline: ingest a finite metric space, compute a greedy permutation
and per-point deletion times, relax the metric with scale-dependent
weights, keep only edges born before both endpoints are deleted, and
take the clique filtration.  The result has linearly many simplices for
doubling metrics while its persistence diagram is a multiplicative
1/(1 - 2 eps)-approximation of the full Vietoris-Rips diagram.  The
package ships the reference filtrations and comparison tools needed to
check those guarantees on concrete instances.
"""

from .metric import (EXPLICIT_MATRIX, MetricFormatError, MetricInput,
                     from_matrix, from_points, lint_triangle_inequality,
                     load_matrix, load_points)
from .greedy import (DeletionSchedule, GreedyPermutation, NetConditionReport,
                     check_net_conditions, deletion_times, greedy_permutation,
                     net_at, schedule_to_csv)
from .relaxed import (WeightContext, birth_matrix, pair_birth, pair_birth_batch,
                      pair_relaxed_distance, point_weight, weight_batch)
from .filtration import (MalformedFiltrationError, SizeStats, SparseFiltration,
                         build_sparse, build_sparse_from_context, charged_degrees,
                         clique_expand, filtration_text, full_rips, max_edge_degree,
                         read_filtration, relaxed_rips, sparse_edges, sparse_size_stats,
                         static_complex, validate_filtration, write_filtration)
from .persistence import (PersistenceDiagram, betti_numbers, compute_persistence,
                          diagram_from_json, diagram_to_csv, diagram_to_json)
from .compare import MatchResult, diagram_equal, multiplicative_match
from .verify import (CheckResult, OracleSizeError, check_betti,
                     check_c_approximation, check_diagram_equality,
                     check_interleaving, check_nets, run_battery)

__version__ = "0.1.0"

__all__ = [
    "EXPLICIT_MATRIX", "MetricFormatError", "MetricInput", "from_matrix",
    "from_points", "lint_triangle_inequality", "load_matrix", "load_points",
    "DeletionSchedule", "GreedyPermutation", "NetConditionReport",
    "check_net_conditions", "deletion_times", "greedy_permutation", "net_at",
    "schedule_to_csv",
    "WeightContext", "birth_matrix", "pair_birth", "pair_birth_batch",
    "pair_relaxed_distance", "point_weight", "weight_batch",
    "SizeStats", "SparseFiltration", "build_sparse", "build_sparse_from_context",
    "charged_degrees", "clique_expand", "filtration_text", "full_rips",
    "max_edge_degree", "read_filtration", "relaxed_rips", "sparse_edges",
    "sparse_size_stats", "static_complex", "validate_filtration", "write_filtration",
    "MalformedFiltrationError", "PersistenceDiagram", "betti_numbers",
    "compute_persistence", "diagram_from_json", "diagram_to_csv", "diagram_to_json",
    "MatchResult", "diagram_equal", "multiplicative_match",
    "CheckResult", "OracleSizeError", "check_betti", "check_c_approximation",
    "check_diagram_equality", "check_interleaving", "check_nets", "run_battery",
]
