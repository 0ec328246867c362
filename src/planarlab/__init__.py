"""planarlab: a laboratory for uniform random planar graphs with fixed edge count.

Exact enumeration of the labeled planar classes, exact and Markov-chain
uniform sampling, per-graph statistics (appearances, pendant edges, addable
non-edges, components, bridges, good triangles), per-graph verification of
the deterministic class inequalities, and an experiment harness producing
phase tables over (n, m) grids.
"""

from .census import (
    CensusRecord,
    CensusStore,
    build_census,
    class_counts,
    count_class,
    enumerate_all,
    enumerate_class,
    load_census,
    max_planar_edges,
    save_census,
)
from .errors import (
    CensusMissingError,
    ChecksumMismatchError,
    DisconnectedPatternError,
    DuplicateEdgeError,
    EmptyClassBoundError,
    EmptyClassError,
    InvalidArgumentError,
    IoFailureError,
    LoopEdgeError,
    MalformedEncodingError,
    NonplanarPatternError,
    NotPlanarInputError,
    NotTriangulationError,
    PatternError,
    PatternNotTwoEdgeConnectedError,
    PatternTooLargeError,
    PlanarLabError,
    ResourceLimitError,
    VersionUnsupportedError,
    VertexOutOfRangeError,
)
from .graphs import (
    DegreeHistogram,
    LabeledGraph,
    add_count,
    addable_nonedges,
    bridges,
    build_graph,
    components,
    decode,
    degree_histogram,
    encode,
    is_planar,
    kappa,
)
from .lab import (
    DensityRegime,
    EventKind,
    ExperimentResult,
    ExperimentRow,
    ExperimentSpec,
    GraphStatistics,
    ProbabilityEstimate,
    compute_statistics,
    estimate_probability,
    evaluate_event,
    exact_event_counts,
    exact_probability,
    isolated_vertex_count,
    parse_event,
    pendant_edge_count,
    phase_table,
    regime_of,
)
from .patterns import (
    Pattern,
    appearance_witnesses,
    automorphism_count,
    complete_graph,
    count_appearances,
    count_components_isomorphic,
    count_copies,
    count_good_triangles,
    cycle_graph,
    has_copy,
    is_two_edge_connected,
    isomorphic,
    make_pattern,
    path_graph,
    pattern_from_name,
    star_graph,
)
from .sampler import (
    ChainState,
    SampleBatch,
    exact_sample,
    fan_triangulation_edges,
    mcmc_init,
    mcmc_step,
    sample_many,
    tv_distance_to_uniform,
)
from .verify import (
    CheckResult,
    ClassVerification,
    VerificationReport,
    check_addable_cross_component,
    check_appearance_disjointness,
    check_component_bound,
    check_cutedge_bound,
    check_triangulation_degrees,
    verify_batch,
    verify_class,
    verify_graph,
)

__version__ = "0.1.0"
