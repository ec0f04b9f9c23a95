"""Tree-indexed abelian cycles over the pure braid cohomology ring.

Two independent routes compute the coordinates of a tree's cycle in the
balanced-tree basis: exact incidence determinants paired against the
top-degree cohomology basis, and a cyclic-triple rewriting engine.  The
verification suites certify at desk scale that the routes agree and that the
counting, duality, and relation identities hold.
"""

from .arnold import (
    CohomologyClass,
    Generator,
    Monomial,
    basis,
    format_class,
    multiply,
    parse_expression,
    rank,
    straighten,
    w,
    w_basis_index,
)
from .decomposition import (
    CycleDecomposition,
    balanced_tree_to_k,
    build_balanced_tree,
    construction_ordering,
    decompose,
    det,
    duality_table,
    epsilon,
    incidence_matrix,
    k_sequences,
    pair,
    pair_class,
)
from .errors import AlgebraError, DomainError, TreeError
from .rewrite import (
    CyclicTriple,
    OrderedTree,
    SignedTreeSum,
    find_unbalanced,
    is_cyclic_triple,
    reduce_to_balanced,
    rotate,
    rotation_triple,
)
from .trees import (
    Tree,
    balance_report,
    descendant_sets,
    enumerate_balanced,
    enumerate_trees,
    is_balanced,
    parse_tree,
    render_tree,
    tree_from_sets,
    tree_to_json,
)
from .verification import (
    SUITES,
    SuiteReport,
    verify_arnold,
    verify_counts,
    verify_crosspath,
    verify_cyclic_determinant_identity,
    verify_duality,
    verify_relations,
)

__all__ = [
    "AlgebraError",
    "CohomologyClass",
    "CycleDecomposition",
    "CyclicTriple",
    "DomainError",
    "Generator",
    "Monomial",
    "OrderedTree",
    "SUITES",
    "SignedTreeSum",
    "SuiteReport",
    "Tree",
    "TreeError",
    "balance_report",
    "balanced_tree_to_k",
    "basis",
    "build_balanced_tree",
    "construction_ordering",
    "decompose",
    "descendant_sets",
    "det",
    "duality_table",
    "enumerate_balanced",
    "enumerate_trees",
    "epsilon",
    "find_unbalanced",
    "format_class",
    "incidence_matrix",
    "is_balanced",
    "is_cyclic_triple",
    "k_sequences",
    "multiply",
    "pair",
    "pair_class",
    "parse_expression",
    "parse_tree",
    "rank",
    "reduce_to_balanced",
    "render_tree",
    "rotate",
    "rotation_triple",
    "straighten",
    "tree_from_sets",
    "tree_to_json",
    "verify_arnold",
    "verify_counts",
    "verify_crosspath",
    "verify_cyclic_determinant_identity",
    "verify_duality",
    "verify_relations",
    "w",
    "w_basis_index",
]

__version__ = "0.1.0"
