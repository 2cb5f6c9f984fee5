"""Eccentricity toolkit: exact oracles, fast approximations, a
decomposition-based exact solver, and hardness gadget constructions for
radius, diameter, and eccentricities under five distance semantics."""

from .graph import (
    BACKWARD,
    FORWARD,
    INF,
    Graph,
    GraphFormatError,
    condense_scc,
    read_graph,
    shortest_paths,
    topological_order,
    truncated_shortest_paths,
    write_graph,
)
from .oracle import (
    MAX,
    MIN,
    ROUNDTRIP,
    SOURCE,
    UNDIRECTED,
    VARIANTS,
    CapacityError,
    EccentricityReport,
    VariantError,
    exact_eccentricities,
    exact_median,
    sweep_ecc,
    sweep_eccentricities,
    sweep_median,
)
from .approx import (
    ApproxResult,
    approx_min_diameter,
    approx_min_diameter_dag,
    approx_min_radius_dag,
    approx_source_radius,
    approximate_center,
    finite_min_eccentricities,
)
from .rangemax import (
    RangeMaxIndex,
    ThreeLayerInstance,
    three_layer_brute,
    three_layer_farthest,
)
from .treewidth import (
    DecompositionError,
    PortalSplitError,
    TreeDecomposition,
    find_portal_split,
    generate_partial_ktree,
    min_degree_decomposition,
    read_td,
    tw_eccentricities,
    write_td,
)
from .setsystem import (
    HSE,
    OV,
    SetSystemFormatError,
    SetSystemInstance,
    random_instance,
    read_set_system,
    solve_set_system,
    write_set_system,
)
from .gadgets import (
    GadgetError,
    GadgetOutput,
    build_dg,
    gadget_all_eccentricities,
    gadget_max_radius,
    gadget_median,
    gadget_min_diameter_dag,
    gadget_min_diameter_weighted,
    gadget_min_radius_dag,
    gadget_radius_23,
    gadget_roundtrip_diameter,
    gadget_roundtrip_radius,
    gadget_source_radius,
    gadget_undirected_diameter_23,
    reduce_hse,
)
from .reduce23 import ReductionResult, reduce_decision23_to_set_system
from .seeds import substream

__version__ = "0.1.0"
