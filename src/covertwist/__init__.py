"""Twisted weighted adjacency operators on graph coverings.

The library builds finite covers from voltage data, induces
representations along them, and certifies the resulting operator
identities with exact arithmetic: conjugation of the cover operator
into the base, characteristic polynomial divisibility, spanning tree
and rooted forest quotients, dimer determinant factorizations, torus
determinants against character products, and the character formalism
of L-series on normal towers.  Brute force oracles cross-check every
enumeration the identities predict.
"""

from .certificates import (
    ConjugacyCertificate,
    Cor1Result,
    CoverSplit,
    Cor2Result,
    DimerResult,
    DivisibilityCertificate,
    KosResult,
    TreesResult,
    build_psi,
    cor1_certificate,
    cor2_certificate,
    dimer_certificate,
    kos_certificate,
    rooted_forest_polynomial,
    spanning_tree_polynomial,
    split_cover_charpoly,
    tree_certificates,
    verify_main,
)
from .covering import (
    CoveringMap,
    CosetData,
    GaloisGroup,
    VoltageAssignment,
    build_cover,
    coset_data,
    deck_transformation,
    edge_voltage_cover,
    fiber_action,
    identity_cover,
    is_normal,
    quotient_by_subgroup,
    validate_covering,
)
from .domains import (QI, QQ, Cyclotomic, CyclotomicDomain, cyclotomic_field,
                      root_of_unity)
from .graphs import (
    DirectedGraph,
    Graph,
    Path,
    RotationSystem,
    build_graph,
    default_rotation,
    faces,
    is_connected,
    validate_graph,
)
from .homotopy import (
    Pi1Presentation,
    SpanningTree,
    fundamental_presentation,
    presentation_from_tree,
    spanning_tree,
)
from .matrix import Matrix, charpoly, det, inverse, pfaffian
from .operators import (
    EdgeWeights,
    laplacian,
    lift_weights,
    line_digraph,
    symbolic_weights,
    twisted_adjacency,
    weights_from_unoriented,
)
from .poly import MultiPoly, PolyDomain, VarRegistry
from .representation import (
    CharacterTable,
    Connection,
    Representation,
    abelian_character_table,
    abelian_characters,
    complement_basis,
    connection_from_rep,
    direct_sum,
    induce,
    monodromy,
    permutation_complement,
    representation,
    trivial_connection,
    trivial_representation,
)
from .zeta import (
    AmitsurResult,
    ArtinResult,
    amitsur_check,
    artin_axioms,
    l_series_inverse,
    prime_cycles,
    untwisted_l_series_inverse,
)

__version__ = "0.1.0"
