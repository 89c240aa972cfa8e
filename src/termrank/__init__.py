"""Degree-specified bipartite graph synthesis and augmentation with matroid
and matching-rank constraints, decided, certified, and constructively solved
exactly at desk scale."""

from .bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    cut_count,
    fits,
    graph_union,
    matching_number,
    neighborhood,
)
from .cover import (
    ArcCover,
    DualFamily,
    construct_brute,
    construct_via_cover,
    find_matching_covering_bases,
    min_arc_cover,
    solve_term_rank,
)
from .errors import (
    InfeasibleError,
    InstanceError,
    PreconditionError,
    TermrankError,
)
from .feasibility import (
    Instance,
    ViolationCert,
    check_brualdi,
    check_fully,
    check_integrated,
    check_ms_only,
    check_msmt,
    check_ore,
    check_ryser,
    check_ryser_gen,
)
from .matroid import Matroid, corank, validate_rank_table
from .setfun import (
    SetFunction,
    base_demand,
    classify_supermodular,
    closed_family,
    from_corank,
    full_demand,
    st_independent,
)

__version__ = "0.1.0"

__all__ = [
    "ArcCover",
    "Bigraph",
    "DegreeSpec",
    "DualFamily",
    "GroundSets",
    "InfeasibleError",
    "Instance",
    "InstanceError",
    "Matroid",
    "PreconditionError",
    "SetFunction",
    "TermrankError",
    "ViolationCert",
    "base_demand",
    "bipartite_complement",
    "check_brualdi",
    "check_fully",
    "check_integrated",
    "check_ms_only",
    "check_msmt",
    "check_ore",
    "check_ryser",
    "check_ryser_gen",
    "classify_supermodular",
    "closed_family",
    "construct_brute",
    "construct_via_cover",
    "corank",
    "cut_count",
    "find_matching_covering_bases",
    "fits",
    "from_corank",
    "full_demand",
    "graph_union",
    "matching_number",
    "min_arc_cover",
    "neighborhood",
    "solve_term_rank",
    "st_independent",
    "validate_rank_table",
]
