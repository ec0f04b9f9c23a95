"""Determinant pairings and decomposition in the balanced-tree basis.

Index sequences k = (k_1, ..., k_{g-2}) with 1 <= k_i <= i label both the
top-degree basis monomials of the braid cohomology ring and, through a merge
construction, the balanced trees.  Pairing a sequence against a tree is the
determinant of a 0/1 incidence matrix: entry (i, j) records whether leaves
k_i and i+1 are both enclosed by the tree's j-th node.  A tree's cycle
decomposes over the balanced basis with exactly these determinants as
coordinates.  Each determinant is a permutation sign of the lowest common
ancestors, read off the tree's canonical family of int bitmasks (see
trees.py): pair reads the one LCA image of its k (_coordinate), and the
support kernel _support reads the one image that is a bijection, so a
tree's nonzero coordinates all share one sign in {-1, +1} and their k's
form a product set, which decompose keeps as it is.

Sign conventions: a tree contributes its incidence columns in the canonical
node ordering; the basis element attached to k uses the construction ordering
of its balanced tree.  epsilon(k) is the parity between the two orderings,
and the global sign (-1)^C(g-2,2) lives only in pair/pair_class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError
from typing import Sequence

from .arnold import CohomologyClass, monomial_to_k, perm_sign_of
from .errors import DomainError
from .trees import (MAX_TREES, Masks, Tree, _bits, _build, _labels, _mask_key,
                    _tree_count, descendant_sets)

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


def _merge(k: KSequence) -> tuple[Masks, Masks]:
    """Run the merge construction: the canonical family of its tree and the
    construction ordering, both as masks.

    Clusters start as singletons {1}, ..., {g-1}; step i (taken for i = g-2
    down to 1) joins the cluster whose representative is k_i with the one
    represented by i+1, the new representative being k_i.  Representatives
    stay minimal, which is what makes every created node balanced.  Position
    i of the construction ordering holds the node created at step i, so
    position 1 is the root and position g-2 the first-created node.
    """
    mask_of = {lab: 1 << lab for lab in range(1, len(k) + 2)}
    created: list[int] = []
    for i in range(len(k), 0, -1):
        a = k[i - 1]
        mask_of[a] |= mask_of.pop(i + 1)
        created.append(mask_of[a])
    return tuple(sorted(created, key=_mask_key)), tuple(reversed(created))


def _construct(k: KSequence) -> tuple[Tree, int]:
    """The balanced tree of k and epsilon(k): the parity between its
    canonical and construction orderings."""
    family, ordering = _merge(k)
    return _build(family), perm_sign_of([ordering.index(m) for m in family])


def build_balanced_tree(k: Sequence[int]) -> Tree:
    """The balanced tree attached to an index sequence."""
    return _construct(validate_k(k))[0]


def construction_ordering(k: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Node sets of build_balanced_tree(k) in construction order (root first)."""
    return tuple(map(_labels, _merge(validate_k(k))[1]))


def balanced_tree_to_k(t: Tree) -> KSequence:
    """Invert the merge construction on a balanced tree, reading k from its
    family (_balanced_k)."""
    k = _balanced_k(t._masks)[0]
    if 0 in k:
        raise DomainError(f"tree {t.render()} is not balanced")
    return k


def _balanced_k(masks: Masks) -> tuple[KSequence, int]:
    """k and epsilon(k) of a balanced family.  A balanced node's children have
    minima lo < hi, its two smallest labels; the merge construction creates
    it at step hi-1 (so at construction position hi-1) with k_{hi-1} = lo.
    Each label above 1 is the minimum of the child without lo of exactly one
    node, and that minimum is at least the node's second-smallest label, so
    an unbalanced family repeats a position and leaves some k_i at 0."""
    k = [0] * len(masks)
    positions = []
    for s in masks:
        lo = s & -s
        position = ((s ^ lo) & -(s ^ lo)).bit_length() - 3  # hi - 2
        k[position] = lo.bit_length() - 1
        positions.append(position)
    return tuple(k), perm_sign_of(positions)


def parity_between(a: Sequence[frozenset[int]], b: Sequence[frozenset[int]]) -> int:
    """Sign of the permutation taking ordering `a` to ordering `b`."""
    index_b = {s: i for i, s in enumerate(b)}
    if len(a) != len(b) or set(index_b) != set(a):
        raise DomainError("orderings do not contain the same sets")
    return perm_sign_of([index_b[s] for s in a])


def epsilon(k: Sequence[int]) -> int:
    """Parity between canonical and construction orderings of the tree of k."""
    return _construct(validate_k(k))[1]


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


def _support(family: Masks) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(sign, choices): det(incidence_matrix(k, t)) of the tree t whose
    canonical mask family is `family` is `sign` at each k in the product of
    `choices`, row i's labels k_i lowest first, and 0 at every other k.

    Row i of the incidence matrix marks the ancestors-or-self of the node
    a_i = LCA(k_i, i+1), so X = A.Z: A selects node a_i in row i and Z is the
    ancestor matrix.  Z is unitriangular in the canonical ordering (ancestors
    come first), so det X is the sign of i -> position of a_i when that map
    is a bijection, 0 otherwise (_coordinate).  Only one bijection exists:
    a_i is at or above b_i, the deepest ancestor of leaf i+1 holding a
    smaller label; i -> b_i is a bijection, and only the rows whose b_i lies
    in a subtree, as many as its nodes, can reach them, so a_i = b_i.  The
    support is every k with each k_i in b_i below i+1, all of one sign.  In
    another column ordering each determinant gains that ordering's parity.
    """
    image, choices = [], []
    for i in range(2, len(family) + 2):
        leaf, below = 1 << i, (1 << i) - 2
        # b_{i-1} is the last mask in canonical order holding i and a smaller label
        p = len(family) - 1
        while not (family[p] & leaf and family[p] & below):
            p -= 1
        image.append(p)
        choices.append(_bits(family[p] & below))
    return perm_sign_of(image), tuple(choices)


def _coordinates(family: Masks) -> dict[KSequence, int]:
    """Every nonzero det(incidence_matrix(k, t)) of the tree t whose canonical
    mask family is `family`, keyed by k in lexicographic order (_support)."""
    sign, choices = _support(family)
    return dict.fromkeys(itertools.product(*choices), sign)


def _coordinate(family: Masks, k: KSequence) -> int:
    """det(incidence_matrix(k, t)) of the tree t whose canonical mask family
    is `family`: the sign of the LCA image i -> a_i if it is injective, else
    0.  LCA(k_i, i+1) is the last mask in canonical order holding both."""
    image: list[int] = []
    for i, ki in enumerate(k, start=2):
        both = 1 << ki | 1 << i
        p = len(family) - 1
        while family[p] & both != both:
            p -= 1
        if p in image:
            return 0
        image.append(p)
    return perm_sign_of(image)


def pair(k: Sequence[int], t: Tree) -> int:
    """Pairing of the k-th top-degree basis monomial against the tree's cycle:
    (-1)^C(g-2,2) times the incidence determinant in canonical ordering, read
    from the one LCA image of k's rows."""
    k = _validate_for(k, t)
    return (-1) ** math.comb(t.genus - 2, 2) * _coordinate(t._masks, k)


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


class CycleDecomposition:
    """Coordinates of a tree's cycle over the balanced basis.

    The basis element for k is the cycle of build_balanced_tree(k) taken with
    its construction ordering; in that basis the global pairing sign cancels
    and the coordinates are plain incidence determinants.  `coefficients`
    lists the nonzero (k, coefficient) pairs in k order.

    A decomposition made by `decompose` holds them as a signed box instead:
    one sign times the indicator of the product of g-2 nonempty factors
    (_support), so making it costs O(g).  Each read of the listing
    (coefficients, as_dict, to_json, hash, repr) builds it again in
    O(support) and keeps none of it, because a kept listing would make every
    held decomposition as large as its support.  Two boxes are equal when
    their (g, sign, factors) are, which is exact because no factor is empty;
    any other pair compares listings.  Immutable; ==, hash and repr are those
    of a frozen dataclass with the fields g and coefficients.
    """

    __slots__ = ("g", "_listing", "_box")

    def __init__(self, g: int, coefficients: tuple[tuple[KSequence, int], ...]) -> None:
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_listing", coefficients)
        object.__setattr__(self, "_box", None)

    @classmethod
    def _boxed(cls, g: int, sign: int, factors: tuple[tuple[int, ...], ...]) -> CycleDecomposition:
        """`sign` at every k in the product of `factors`, each nonempty and
        ascending, held without listing it."""
        d = cls(g, None)
        object.__setattr__(d, "_box", (sign, factors))
        return d

    @classmethod
    def from_dict(cls, g: int, coeffs: dict[KSequence, int]) -> CycleDecomposition:
        return cls(g=g, coefficients=tuple(sorted((k, c) for k, c in coeffs.items() if c != 0)))

    def _items(self):
        if self._box is None:
            return iter(self._listing)
        sign, factors = self._box
        return zip(itertools.product(*factors), itertools.repeat(sign))

    @property
    def coefficients(self) -> tuple[tuple[KSequence, int], ...]:
        return self._listing if self._box is None else tuple(self._items())

    def as_dict(self) -> dict[KSequence, int]:
        return dict(self._items())

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "basis": "balanced-construction",
            "terms": [{"k": list(k), "coeff": c} for k, c in self._items()],
        }

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._box is not None and other._box is not None:
            return self.g == other.g and self._box == other._box
        return (self.g, self.coefficients) == (other.g, other.coefficients)

    def __hash__(self) -> int:
        return hash((self.g, self.coefficients))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(g={self.g!r}, coefficients={self.coefficients!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        if self._box is None:
            return type(self), (self.g, self._listing)
        return type(self)._boxed, (self.g, *self._box)


def decompose(t: Tree) -> CycleDecomposition:
    """Expand a tree's cycle over the balanced basis: the incidence
    determinants, as LCA permutation signs over the support, held as its
    signed box in O(g).  Refused when the (g-2)! worst-case support is over
    MAX_TREES."""
    _check_support(t.genus)
    return CycleDecomposition._boxed(t.genus, *_support(t._masks))


def _check_support(g: int) -> None:
    """Refuse a genus whose (g-2)! balanced trees are over MAX_TREES."""
    if (count := _tree_count(g, True)) is None or count > MAX_TREES:
        raise DomainError(f"genus {g} trees decompose into up to {g - 2}! terms, "
                          f"over the decomposition budget of {MAX_TREES}")


def duality_table(g: int) -> list[list[int]]:
    """Matrix det(X[k', T_k]) over lexicographic k' (rows) and k (columns),
    canonical column ordering.  Diagonal entries are the parities epsilon(k);
    off-diagonal entries vanish."""
    ks = k_sequences(g)
    columns = [_coordinates(build_balanced_tree(k)._masks) for k in ks]
    return [[col.get(kp, 0) for col in columns] for kp in ks]


def unit_triangular_certificate(k: Sequence[int]) -> Matrix:
    """Incidence matrix of k against its own tree in construction ordering;
    lower unitriangular by construction."""
    return incidence_matrix(k, build_balanced_tree(k), ordering=construction_ordering(k))
