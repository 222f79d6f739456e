"""Cubic tricirculant graphs via voltage covers: construction, symmetry
analysis, and exhaustive classification checks.
"""

from .graphs import SimpleGraph
from .pregraph import (
    LINK,
    LOOP,
    SEMI_EDGE,
    Pregraph,
    Walk,
    delta,
    enumerate_cubic_pregraphs_3v,
    pregraph_isomorphism,
    pregraphs_isomorphic,
    reduced_closed_walks,
)
from .voltage import (
    NonSimpleCover,
    NotAutomorphism,
    NotSemiregular,
    SymbolicVoltage,
    VoltageAssignment,
    cover_connected,
    cover_is_simple,
    derived_cover,
    lifted_adjacency,
    net_voltage,
    quotient,
    quotient_with_voltages,
    symbolic_dart_voltage,
    symbolic_net_voltage,
    zeta_for,
)
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .symmetry import (
    EnumerationCapExceeded,
    Permutation,
    SizeGuardError,
    arc_orbit_count,
    are_isomorphic,
    automorphism_group,
    c_signature,
    canonical_form,
    canonical_labeling,
    cycle_counts,
    cycles_of_length,
    edge_orbits,
    find_k_circulant,
    girth,
    group_elements,
    group_order,
    is_arc_transitive,
    is_c_cycle_regular,
    is_c_vertex_regular,
    is_edge_transitive,
    is_vertex_transitive,
    uniform_local_profile,
    vertex_orbits,
)
from .families import (
    FamilyParams,
    TorusDecomposition,
    family_automorphism,
    gp,
    moebius,
    prism,
    r_star,
    t1,
    t2,
    t3,
    t4,
    torus_cycle_decomposition,
    x_graph,
    y_graph,
)
from .verify import (
    CensusEntry,
    CensusTable,
    SweepReport,
    T1Conditions,
    VTClass,
    WalkTable,
    check_t1_conditions,
    classification_sweep,
    lemma_spot_checks,
    report_emit,
    small_census,
    sweep_one_k,
    total_anomalies,
    walk_table,
)

__version__ = "0.1.0"
