"""Determinant pairings and decomposition in the balanced-tree basis.

Index sequences k = (k_1, ..., k_{g-2}) with 1 <= k_i <= i label both the
top-degree basis monomials of the braid cohomology ring and, through a merge
construction, the balanced trees.  Pairing a sequence against a tree is the
determinant of a 0/1 incidence matrix: entry (i, j) records whether leaves
k_i and i+1 are both enclosed by the tree's j-th node.  A tree's cycle
decomposes over the balanced basis with exactly these determinants as
coordinates.  Each determinant is a permutation sign (see _coordinates), so
every coordinate lies in {-1, 0, +1}.

Sign conventions: a tree contributes its incidence columns in the canonical
node ordering; the basis element attached to k uses the construction ordering
of its balanced tree.  epsilon(k) is the parity between the two orderings,
and the global sign (-1)^C(g-2,2) lives only in pair/pair_class.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .arnold import CohomologyClass, monomial_to_k
from .errors import DomainError
from .trees import Tree, descendant_sets, is_balanced

KSequence = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def validate_k(k: Sequence[int]) -> KSequence:
    """Check 1 <= k_i <= i and return the sequence as a tuple."""
    k = tuple(k)
    if not k:
        raise DomainError("index sequence must be nonempty")
    for i, ki in enumerate(k, start=1):
        if not isinstance(ki, int) or not 1 <= ki <= i:
            raise DomainError(f"entry {ki} at position {i} violates 1 <= k_i <= i")
    return k


def k_sequences(g: int) -> list[KSequence]:
    """All (g-2)! index sequences for genus g, in lexicographic order."""
    if g < 3:
        raise DomainError(f"genus must be at least 3, got {g}")
    return [tuple(k) for k in itertools.product(*(range(1, i + 1) for i in range(1, g - 1)))]


@functools.lru_cache(maxsize=None)
def _construct(k: KSequence) -> tuple[Tree, tuple[frozenset[int], ...], int]:
    """Run the merge construction; return the tree, its construction
    ordering, and the parity between its canonical and construction orderings.

    Clusters start as singletons {1}, ..., {g-1}; step i (taken for i = g-2
    down to 1) joins the cluster whose representative is k_i with the one
    represented by i+1, the new representative being k_i.  Representatives
    stay minimal, which is what makes every created node balanced.  Position
    i of the construction ordering holds the node created at step i, so
    position 1 is the root and position g-2 the first-created node.
    """
    m = len(k)
    node_of: dict[int, object] = {lab: lab for lab in range(1, m + 2)}
    set_of: dict[int, frozenset[int]] = {lab: frozenset((lab,)) for lab in range(1, m + 2)}
    created: list[frozenset[int]] = []
    for i in range(m, 0, -1):
        a, b = k[i - 1], i + 1
        node_of[a] = (node_of[a], node_of[b])
        set_of[a] = set_of[a] | set_of[b]
        created.append(set_of[a])
        del node_of[b], set_of[b]
    tree = Tree.from_node(node_of[1])
    ordering = tuple(reversed(created))
    return tree, ordering, parity_between(descendant_sets(tree), ordering)


def build_balanced_tree(k: Sequence[int]) -> Tree:
    """The balanced tree attached to an index sequence."""
    return _construct(validate_k(k))[0]


def construction_ordering(k: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Node sets of build_balanced_tree(k) in construction order (root first)."""
    return _construct(validate_k(k))[1]


def balanced_tree_to_k(t: Tree) -> KSequence:
    """Invert the merge construction on a balanced tree.

    Step i of the construction joins a cluster with minimum k_i and one with
    minimum i+1, so every node whose children have minima lo < hi gives
    k_{hi-1} = lo.
    """
    if not is_balanced(t):
        raise DomainError(f"tree {t.render()} is not balanced")
    k = [0] * (t.genus - 2)

    def walk(node) -> int:
        if isinstance(node, int):
            return node
        lo, hi = sorted((walk(node[0]), walk(node[1])))
        k[hi - 2] = lo
        return lo

    walk(t.root)
    return tuple(k)


def perm_sign_of(perm: Sequence[int]) -> int:
    """Sign of a permutation given as the image list of 0..n-1."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def parity_between(a: Sequence[frozenset[int]], b: Sequence[frozenset[int]]) -> int:
    """Sign of the permutation taking ordering `a` to ordering `b`."""
    index_b = {s: i for i, s in enumerate(b)}
    if len(a) != len(b) or set(index_b) != set(a):
        raise DomainError("orderings do not contain the same sets")
    return perm_sign_of([index_b[s] for s in a])


def epsilon(k: Sequence[int]) -> int:
    """Parity between canonical and construction orderings of the tree of k."""
    return _construct(validate_k(k))[2]


def _validate_for(k: Sequence[int], t: Tree) -> KSequence:
    k = validate_k(k)
    if len(k) != t.genus - 2:
        raise DomainError(f"sequence of length {len(k)} does not match genus {t.genus}")
    return k


def incidence_matrix(k: Sequence[int], t: Tree,
                     ordering: Sequence[frozenset[int]] | None = None) -> Matrix:
    """0/1 matrix with entry (i, j) = 1 iff leaves k_i and i+1 both lie in
    the descendant set at column j.

    Columns follow the tree's canonical node ordering unless an explicit
    `ordering` (a permutation of the tree's node sets) is supplied.
    """
    k = _validate_for(k, t)
    canonical = descendant_sets(t)
    if ordering is None:
        sets = canonical
    else:
        sets = tuple(frozenset(s) for s in ordering)
        if set(sets) != set(canonical) or len(sets) != len(canonical):
            raise DomainError("ordering is not a permutation of the tree's node sets")
    rows = []
    for i, ki in enumerate(k, start=1):
        pair = frozenset((ki, i + 1))
        rows.append(tuple(1 if pair <= s else 0 for s in sets))
    return tuple(rows)


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination;
    every intermediate value stays an integer."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[-1][-1]


def _coordinates(t: Tree, ordering: Sequence[frozenset[int]] | None = None,
                 k: KSequence | None = None) -> dict[KSequence, int]:
    """Every nonzero det(incidence_matrix(k, t, ordering)), keyed by k; with
    `k` given, only that sequence is tried.

    Row i of the incidence matrix marks the ancestors-or-self of the node
    a_i = LCA(k_i, i+1), so X = A.Z: A selects node a_i in row i and Z is the
    ancestor matrix.  Z is unitriangular in the canonical ordering (ancestors
    come first) and conjugate to it by a permutation in any other, so
    det Z = 1 and det X is the sign of i -> position of a_i when that map is
    a bijection, 0 otherwise.  Backtracking over the rows skips nodes already
    in the image, so only the support is visited.  `ordering` must be a
    permutation of the tree's node sets; the canonical ordering is the default.
    """
    if ordering is None:
        ordering = descendant_sets(t)
    position = {s: p for p, s in enumerate(ordering)}
    lca = [[0] * t.genus for _ in range(t.genus)]

    def walk(node) -> tuple[int, ...]:
        # the node is the LCA of every left leaf with every right leaf
        if isinstance(node, int):
            return (node,)
        left, right = walk(node[0]), walk(node[1])
        p = position[frozenset(left + right)]
        for a in left:
            for b in right:
                lca[a][b] = lca[b][a] = p
        return left + right

    walk(t.root)
    m = t.genus - 2
    # rows[i][a]: the values of k_{i+1} whose row selects the node at position a
    rows: list[dict[int, list[int]]] = []
    for i in range(1, m + 1):
        choices: dict[int, list[int]] = {}
        for ki in range(1, i + 1) if k is None else (k[i - 1],):
            choices.setdefault(lca[ki][i + 1], []).append(ki)
        rows.append(choices)
    image: list[int] = []
    coords: dict[KSequence, int] = {}

    def extend(i: int) -> None:
        if i == m:
            sign = perm_sign_of(image)
            for seq in itertools.product(*(row[a] for row, a in zip(rows, image))):
                coords[seq] = sign
            return
        for a in rows[i]:
            if a not in image:
                image.append(a)
                extend(i + 1)
                image.pop()

    extend(0)
    return coords


def _pair_sign(g: int) -> int:
    return -1 if math.comb(g - 2, 2) % 2 else 1


def pair(k: Sequence[int], t: Tree) -> int:
    """Pairing of the k-th top-degree basis monomial against the tree's cycle:
    (-1)^C(g-2,2) times the incidence determinant in canonical ordering."""
    k = _validate_for(k, t)
    return _pair_sign(t.genus) * _coordinates(t, k=k).get(k, 0)


def pair_class(c: CohomologyClass, t: Tree) -> int:
    """Pair a homogeneous degree g-2 class on g-1 strands against a tree."""
    g = t.genus
    if c.n != g - 1:
        raise DomainError(f"class lives on {c.n} strands, tree needs {g - 1}")
    if c.is_zero():
        return 0
    if c.degree != g - 2:
        raise DomainError(f"class must be homogeneous of degree {g - 2}")
    return sum(coeff * pair(monomial_to_k(mono), t) for mono, coeff in c.terms)


@dataclass(frozen=True)
class CycleDecomposition:
    """Coordinates of a tree's cycle over the balanced basis.

    The basis element for k is the cycle of build_balanced_tree(k) taken with
    its construction ordering; in that basis the global pairing sign cancels
    and the coordinates are plain incidence determinants.
    """

    g: int
    coefficients: tuple[tuple[KSequence, int], ...]

    @classmethod
    def from_dict(cls, g: int, coeffs: dict[KSequence, int]) -> CycleDecomposition:
        return cls(g=g, coefficients=tuple(sorted((k, c) for k, c in coeffs.items() if c != 0)))

    def as_dict(self) -> dict[KSequence, int]:
        return dict(self.coefficients)

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "basis": "balanced-construction",
            "terms": [{"k": list(k), "coeff": c} for k, c in self.coefficients],
        }


def decompose(t: Tree) -> CycleDecomposition:
    """Expand a tree's cycle over the balanced basis: the incidence
    determinants, as LCA permutation signs over the support."""
    return CycleDecomposition.from_dict(t.genus, _coordinates(t))


def duality_table(g: int) -> list[list[int]]:
    """Matrix det(X[k', T_k]) over lexicographic k' (rows) and k (columns),
    canonical column ordering.  Diagonal entries are the parities epsilon(k);
    off-diagonal entries vanish."""
    ks = k_sequences(g)
    columns = [_coordinates(build_balanced_tree(k)) for k in ks]
    return [[col.get(kp, 0) for col in columns] for kp in ks]


def unit_triangular_certificate(k: Sequence[int]) -> Matrix:
    """Incidence matrix of k against its own tree in construction ordering;
    lower unitriangular by construction."""
    tree, ordering, _ = _construct(validate_k(k))
    return incidence_matrix(k, tree, ordering=ordering)
