"""Graph toughness and spectral-radius toolkit.

Exact toughness by cut enumeration, spectral radii by the dense symmetric
eigensolver for components of at most 24 vertices (and for any component
the power iteration does not settle) and by power iteration above,
rational quotient-matrix characteristic polynomials, the extremal families
attaining the spectral toughness thresholds, classical upper bounds, and
randomized theorem verification.
"""

from .bounds import (
    Bound,
    BoundReport,
    BrouwerReport,
    brouwer_margin,
    check_all_bounds,
    check_bound,
)
from .families import (
    Family,
    FamilySpec,
    bip_block_sizes,
    build_family,
    clique_with_satellites,
    family_graph,
    matches_family,
    quotient_partition,
    split_join,
    tough_block_sizes,
)
from .graphio import GraphFormat, GraphFormatError, parse_graph, serialize_graph
from .graphs import (
    Graph,
    SidePartition,
    bipartition_of,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    join,
    path,
    petersen,
)
from .lemmas import (
    ComparisonReport,
    Lemma,
    RotationReport,
    check_lemma_comparison,
    rotation_experiment,
)
from .randoms import (
    balanced_bipartite_gnp,
    connected_gnp,
    gnp,
    random_regular,
    sample_seed,
)
from .spectra import (
    CharPoly,
    QuotientMatrix,
    RootIsolationError,
    SpectralResult,
    char_poly,
    full_spectrum,
    largest_real_root,
    perron_vector,
    quotient_matrix,
    second_largest_absolute_eigenvalue,
    spectral_radius,
)
from .toughness import (
    ENUMERATION_CAP,
    INFINITE,
    CutWitness,
    ToughnessKind,
    bipartite_toughness,
    is_tau_tough,
    toughness,
    variation_toughness,
)
from .verify import (
    CandidateRow,
    SearchReport,
    Theorem,
    TheoremId,
    Verdict,
    VerdictStatus,
    candidate_comparison,
    check_graph_against_theorem,
    search_counterexamples,
    threshold,
)

__version__ = "0.1.0"
