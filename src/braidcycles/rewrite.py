"""Cyclic-triple rewriting: reduce any tree's cycle to balanced trees.

Three trees form a cyclic triple when their node-set families agree except at
one node, where the three sets are the pairwise unions of three disjoint
blocks whose total union is a common node.  Rotating at a node v, with
children v1 = (u1, u2) and v2, replaces the one set v1 by u1|v2 or by v2|u2:
the two other associations, and the three cycles with aligned node orderings
sum to zero.  Rotating away a deepest unbalanced node strictly reduces
unbalancedness, so repeated rotation ends in a signed sum over balanced
trees, independently of the determinant route.

The engine rotates canonical families held as int bitmasks (see trees.py):
a node's lowest label is m & -m, and a rotation replaces one mask.  Its memo
is the rotation DAG, whose leaves are the balanced families, each carrying
its index sequence k, epsilon(k), Tree and text.  A reduction flattens the
DAG into {k: coeff * epsilon(k)}, coordinates over the construction-ordered
basis, and its terms are the leaves reached.

Orderings are tracked by descendant set: the rotated node keeps its position
while its set changes.  Signs are meaningless without this alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .decomposition import (CycleDecomposition, KSequence, _balanced_k, _check_support,
                            balanced_tree_to_k, epsilon, parity_between)
from .errors import DomainError, RewriteBudgetError
from .trees import (_CACHE_CAP, Masks, Tree, _build, _labels, _scan, _tree_count,
                    descendant_sets, is_balanced)

TraceHook = Callable[[dict], None]


@dataclass(frozen=True)
class OrderedTree:
    """A tree plus an explicit assignment of positions to its nodes.

    The ordering lists descendant sets by position (index 0 = position 1) and
    must be a permutation of the tree's canonical node sets.
    """

    tree: Tree
    ordering: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        canonical = descendant_sets(self.tree)
        if len(self.ordering) != len(canonical) or set(self.ordering) != set(canonical):
            raise DomainError("ordering is not a permutation of the tree's node sets")

    @classmethod
    def canonical(cls, tree: Tree) -> OrderedTree:
        return cls(tree=tree, ordering=descendant_sets(tree))

    def parity(self) -> int:
        """Sign relating this ordering to the canonical one."""
        return parity_between(self.ordering, descendant_sets(self.tree))


@dataclass(frozen=True)
class CyclicTriple:
    """Witness for a cyclic triple: aligned trees, blocks, and positions.

    The set at position s is B2|B3, B3|B1, B1|B2 in the three trees
    respectively; position t holds B1|B2|B3 in all of them.
    """

    trees: tuple[OrderedTree, OrderedTree, OrderedTree]
    blocks: tuple[frozenset[int], frozenset[int], frozenset[int]]
    s: int
    t: int


def is_cyclic_triple(t1: Tree, t2: Tree, t3: Tree) -> CyclicTriple | None:
    """Match three trees against the cyclic-triple pattern.

    Returns the witness with orderings aligned to t1's canonical ordering, or
    None if the families do not fit.  Symmetric in the inputs up to
    relabeling of the blocks.
    """
    if not (t1.genus == t2.genus == t3.genus):
        raise DomainError("trees must have the same genus")
    f1 = t1._masks
    if (blocks := _cyclic_blocks(f1, t2._masks, t3._masks)) is None:
        return None
    b1, b2, b3 = blocks
    ord1 = tuple(map(_labels, f1))
    s = f1.index(b2 | b3) + 1
    # swapping d1 = b2|b3 for d gives core | {d}, exactly the node sets of t
    aligned = tuple(
        OrderedTree(tree=t, ordering=ord1[:s - 1] + (_labels(d),) + ord1[s:])
        for t, d in ((t1, b2 | b3), (t2, b1 | b3), (t3, b1 | b2))
    )
    return CyclicTriple(trees=aligned, blocks=(_labels(b1), _labels(b2), _labels(b3)), s=s,
                        t=f1.index(b1 | b2 | b3) + 1)


def _cyclic_blocks(f1: Masks, f2: Masks, f3: Masks) -> tuple[int, int, int] | None:
    """The blocks (b1, b2, b3) of three mask families that agree except at
    one mask each, d1 = b2|b3, d2 = b1|b3 and d3 = b1|b2, where b1|b2|b3 is
    a common mask; None if the families do not fit that pattern."""
    core = set(f1).intersection(f2, f3)
    extras = [set(f).difference(core) for f in (f1, f2, f3)]
    if any(len(e) != 1 for e in extras):
        return None
    d1, d2, d3 = (e.pop() for e in extras)
    # two equal d's make two blocks equal, so empty or overlapping
    b1, b2, b3 = d2 & d3, d1 & d3, d1 & d2
    if not (b1 and b2 and b3) or b1 & b2 or b1 & b3 or b2 & b3:
        return None
    if d1 != b2 | b3 or d2 != b1 | b3 or d3 != b1 | b2 or b1 | b2 | b3 not in core:
        return None
    return b1, b2, b3


def _children(s: int, a: int) -> tuple[int, int]:
    """Node s's children, given a, its child holding its lowest label: first
    the child holding its two smallest labels, if one does, else canonical order."""
    rest, b = s ^ (s & -s), s ^ a
    return (a, b) if a & rest & -rest or a.bit_count() >= b.bit_count() else (b, a)


def _rotated(masks: Masks, v: int, firsts: list[int] | None = None
             ) -> tuple[int, tuple[Masks, int], tuple[Masks, int]]:
    """(i, (family_a, sign_a), (family_b, sign_b)): v has children (v1, v2),
    v1 = masks[i] is internal with children (u1, u2), both as _children orders
    them from _scan's `firsts` (computed if not given), and _replaced swaps v1
    for u1|v2 and for v2|u2.  The same preference inside v1 is what makes
    re-rotating the first output recover the input."""
    if not (1 <= v <= len(masks)):
        raise DomainError(f"node index {v} out of range 1..{len(masks)}")
    firsts = _scan(masks)[0] if firsts is None else firsts
    v1, v2 = _children(masks[v - 1], firsts[v - 1])
    if v1.bit_count() < 2:
        raise DomainError("node has two leaf children; no rotation is available")
    i = masks.index(v1, v)
    u1, u2 = _children(v1, firsts[i])
    return i, _replaced(masks, i, u1 | v2), _replaced(masks, i, v2 | u2)


def _replaced(masks: Masks, i: int, new: int) -> tuple[Masks, int]:
    """The canonical family with masks[i] replaced by `new`, and the sign of
    the permutation from that aligned ordering to the canonical one: `new`
    moves from index i to index p, a cycle of length |p - i| + 1.  p is found
    by walking from i, comparing popcounts, then lowest bits."""
    c, lo = new.bit_count(), new & -new
    rest, p = masks[:i] + masks[i + 1:], i
    while p and ((m := rest[p - 1]).bit_count() < c or m.bit_count() == c and m & -m > lo):
        p -= 1
    while p < len(rest) and ((m := rest[p]).bit_count() > c or m.bit_count() == c and m & -m < lo):
        p += 1
    return rest[:p] + (new,) + rest[p:], -1 if (p - i) % 2 else 1


def rotate(t: Tree, v: int) -> tuple[Tree, Tree]:
    """The two other associations of the three subtrees hanging below node v.

    With T carrying (u1 u2) v2 below v, returns T' carrying (u1 v2) u2 and
    T'' carrying (v2 u2) u1.  Together with T they form a cyclic triple.
    Fails if both children of v are leaves.
    """
    return tuple(ot.tree for ot in rotation_triple(t, v).trees[1:])


def rotation_triple(t: Tree, v: int) -> CyclicTriple:
    """Rotate at v and package {t, T', T''} with orderings aligned to t, as
    is_cyclic_triple matches them; the blocks come out as (v2, u2, u1).

    The rotated node keeps its position; only its descendant set changes.
    """
    _, (family_a, _), (family_b, _) = _rotated(t._masks, v)
    return is_cyclic_triple(t, _build(family_a), _build(family_b))


def find_unbalanced(t: Tree) -> int | None:
    """Canonical position of a deepest unbalanced node (smallest position on
    ties), or None when the tree is balanced."""
    return _scan(t._masks)[1]


@dataclass(frozen=True)
class SignedTreeSum:
    """Integer combination of balanced trees, each in canonical ordering.

    A sum made by reduce_to_balanced also carries its coordinates
    {k: coeff * epsilon(k)} and its terms' texts; they take no part in ==,
    hash or repr.
    """

    g: int
    terms: tuple[tuple[Tree, int], ...]
    _by_k: dict[KSequence, int] | None = field(default=None, init=False, repr=False,
                                                compare=False)
    _texts: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, g: int, coeffs: dict[Tree, int]) -> SignedTreeSum:
        for tree in coeffs:
            if not is_balanced(tree):
                raise DomainError(f"term {tree.render()} is not balanced")
        items = tuple(sorted(((t, c) for t, c in coeffs.items() if c != 0),
                             key=lambda tc: tc[0].render()))
        return cls(g=g, terms=items)

    def as_dict(self) -> dict[Tree, int]:
        return dict(self.terms)

    def to_json(self) -> dict:
        texts = [t.render() for t, _ in self.terms] if self._texts is None else self._texts
        return {
            "g": self.g,
            "terms": [{"tree": text, "coeff": c} for text, (_, c) in zip(texts, self.terms)],
        }

    def to_decomposition(self) -> CycleDecomposition:
        """Convert to coordinates over the construction-ordered basis, which
        picks up each tree's ordering parity.  A sum without carried
        coordinates walks each term back to its k."""
        if self._by_k is not None:
            return CycleDecomposition.from_dict(self.g, self._by_k)
        coeffs = {}
        for tree, c in self.terms:
            k = balanced_tree_to_k(tree)
            coeffs[k] = c * epsilon(k)
        return CycleDecomposition.from_dict(self.g, coeffs)


class _Leaf(NamedTuple):
    """The rotation DAG's node of a balanced family.  A rotated family's node
    is the tuple (sign_a, node_a, sign_b, node_b): sign_a times node_a's
    reduction plus sign_b times node_b's."""

    k: KSequence
    eps: int  # epsilon(k)
    tree: Tree
    text: str


# The rotation DAG's nodes by canonical family, shared by untraced calls:
# callers that reduce many trees of one genus (crosspath, checks of the
# determinant route) revisit the same intermediate trees.  Emptied at the
# cap; a node keeps its children alive, so a reduction survives a clear.
_SHARED_MEMO: dict[Masks, _Leaf | tuple] = {}


def reduce_to_balanced(t: Tree, trace: TraceHook | None = None) -> SignedTreeSum:
    """Rewrite a tree's cycle as a signed sum of balanced-tree cycles.

    Balanced input is returned as itself with coefficient 1.  Otherwise the
    tree is rotated at a deepest unbalanced node and both results recurse
    with coefficient -1, their inherited orderings folded into the sign.
    The terms are the balanced leaves reached, sorted by text, and the sum
    carries their coordinates and texts for to_decomposition and to_json.
    Each rotation is reported to `trace` when given (which also disables
    memoization, so the trace covers the whole recursion tree).  Reductions
    are memoized across calls.  Refused, like decompose, when the (g-2)!
    worst-case support is over MAX_TREES.
    """
    _check_support(t.genus)
    by_k, leaves = _reduce(t._masks, trace)
    entries = sorted((leaves[k].text, leaves[k].tree, c * leaves[k].eps) for k, c in by_k.items())
    signed = SignedTreeSum(t.genus, tuple((tree, c) for _, tree, c in entries))
    object.__setattr__(signed, "_by_k", by_k)
    object.__setattr__(signed, "_texts", tuple(text for text, _, _ in entries))
    return signed


def _reduce(masks: Masks, trace: TraceHook | None = None
            ) -> tuple[dict[KSequence, int], dict[KSequence, _Leaf]]:
    """The coordinates {k: coeff * epsilon(k)} of reduce_to_balanced on the
    tree of canonical family `masks`, no zeros kept, and the leaf of each k
    reached: the DAG flattened from its root with a stack.  Building and
    flattening each make the rotations of the unmemoized recursion at most,
    one fewer than its support size of at most (g-2)! (tested up to genus 7,
    and on caterpillars): past (g-2)!, the engine or the DAG is faulty."""
    limit = _tree_count(len(masks) + 2, True)
    stack = [(1, _reduce_family(masks, trace, [0], limit))]
    coords, leaves, rotations = {}, {}, 0
    while stack:
        coeff, node = stack.pop()
        while type(node) is not _Leaf:  # descend to node_a, stacking node_b
            if (rotations := rotations + 1) > limit:
                raise RewriteBudgetError(f"rotation budget {limit} exceeded; rewriting diverged")
            stack.append((coeff * node[2], node[3]))
            coeff, node = coeff * node[0], node[1]
        leaves[node.k] = node
        coords[node.k] = coords.get(node.k, 0) + coeff * node.eps
    return ({k: c for k, c in coords.items() if c} if 0 in coords.values() else coords), leaves


def _reduce_family(masks: Masks, trace: TraceHook | None, steps: list[int],
                   limit: int) -> _Leaf | tuple:
    """The rotation DAG's node of a family, from or into _SHARED_MEMO unless
    traced; steps[0] counts rotations against `limit`.  Not a closure, so
    that a call leaves no reference cycle behind."""
    if trace is None and (known := _SHARED_MEMO.get(masks)) is not None:
        return known
    firsts, v = _scan(masks)
    if v is None:
        tree = _build(masks)
        node = _Leaf(*_balanced_k(masks), tree, tree.render())
    else:
        steps[0] += 1
        if steps[0] > limit:
            raise RewriteBudgetError(f"rotation budget {limit} exceeded; rewriting diverged")
        i, (family_a, sigma_a), (family_b, sigma_b) = _rotated(masks, v, firsts)
        if trace is not None:
            trace({"at": i + 1,
                   "triple": [_build(f).render() for f in (masks, family_a, family_b)]})
        node = (-sigma_a, _reduce_family(family_a, trace, steps, limit),
                -sigma_b, _reduce_family(family_b, trace, steps, limit))
    if trace is None:
        if len(_SHARED_MEMO) >= _CACHE_CAP:
            _SHARED_MEMO.clear()
        _SHARED_MEMO[masks] = node
    return node
