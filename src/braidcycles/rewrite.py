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
a node's lowest label is m & -m, and a rotation replaces one mask.  It reads
each balanced family as its index sequence k and epsilon(k), so a reduction
is {k: coeff * epsilon(k)}: coordinates over the construction-ordered basis.
Trees are built only for traces and, from a cache per k, for returned terms;
public functions take and return frozensets.

Orderings are tracked by descendant set: the rotated node keeps its position
while its set changes.  Signs are meaningless without this alignment.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Callable

from .arnold import perm_sign_of
from .decomposition import (CycleDecomposition, KSequence, _construct, balanced_tree_to_k,
                            epsilon, parity_between)
from .errors import DomainError, RewriteBudgetError
from .trees import (_CACHE_CAP, Masks, Tree, _build, _family, _labels, _mask_key,
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
    def _trusted(cls, tree: Tree, ordering: tuple[frozenset[int], ...]) -> OrderedTree:
        """An OrderedTree whose ordering is a permutation of the tree's node
        sets by construction; no checks."""
        ordered = object.__new__(cls)
        object.__setattr__(ordered, "tree", tree)
        object.__setattr__(ordered, "ordering", ordering)
        return ordered

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
    f1 = _family(t1)
    if (blocks := _cyclic_blocks(f1, _family(t2), _family(t3))) is None:
        return None
    b1, b2, b3 = blocks
    ord1 = tuple(map(_labels, f1))
    s = f1.index(b2 | b3) + 1
    # swapping d1 = b2|b3 for d gives core | {d}, exactly the node sets of t
    aligned = tuple(
        OrderedTree._trusted(t, ord1[:s - 1] + (_labels(d),) + ord1[s:])
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


def _scan(masks: Masks, stop: int | None = None) -> tuple[list[int], int | None]:
    """One backward pass over a family: per index, the child mask holding the
    node's lowest label lo (the last mask seen whose lowest bit is lo, else
    the leaf lo), and the position of a deepest unbalanced node, the smallest
    on ties, or None.  Given `stop`, the pass ends at that index and finds no
    unbalanced node.  `best` keys each subtree holding one by its lowest bit,
    with depth * n - index of its best one, depth counted from the subtree's
    top; a parent takes over its children's keys (-n if none)."""
    n, firsts = len(masks), [0] * len(masks)
    top, best = {}, {}  # by lowest bit: the last mask seen, and keys as above
    for j, s in zip(range(n - 1, -1 if stop is None else stop - 1, -1), reversed(masks)):
        lo = s & -s
        a = firsts[j] = top.get(lo, lo)
        top[lo] = s
        if stop is not None:
            continue
        if best:
            b = s ^ a
            key_a, key_b = best.pop(lo, -n), best.pop(b & -b, -n)
            if (key := (key_a if key_a > key_b else key_b) + n) > 0:
                best[lo] = key
                continue
        if a & (rest := s ^ lo) & -rest:  # a also holds the second lowest label
            best[lo] = -j
    return firsts, -best.popitem()[1] % n + 1 if best else None


def _children(s: int, a: int) -> tuple[int, int]:
    """Node s's children, given a, its child holding its lowest label: first
    the child holding its two smallest labels, if one does, else canonical order."""
    rest, b = s ^ (s & -s), s ^ a
    return (a, b) if a & rest & -rest or a.bit_count() >= b.bit_count() else (b, a)


def _rotation(masks: Masks, v: int, firsts: list[int] | None = None) -> tuple[int, int, int, int]:
    """Index of v1 in `masks`, and u1, u2, v2: v has children (v1, v2) and v1,
    which must be internal, has children (u1, u2), both as _children orders
    them from _scan's `firsts` (computed if not given).  The same preference
    inside v1 is what makes re-rotating the first output recover the input."""
    if not (1 <= v <= len(masks)):
        raise DomainError(f"node index {v} out of range 1..{len(masks)}")
    firsts = _scan(masks, v - 1)[0] if firsts is None else firsts
    v1, v2 = _children(masks[v - 1], firsts[v - 1])
    if v1.bit_count() < 2:
        raise DomainError("node has two leaf children; no rotation is available")
    i = masks.index(v1, v)
    return (i, *_children(v1, firsts[i]), v2)


def _replaced(masks: Masks, i: int, new: int) -> tuple[Masks, int]:
    """The canonical family with masks[i] replaced by `new`, and the sign of
    the permutation from that aligned ordering to the canonical one: `new`
    moves from index i to index p, a cycle of length |p - i| + 1."""
    rest = masks[:i] + masks[i + 1:]
    p = bisect.bisect(rest, _mask_key(new), key=_mask_key)
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
    masks = _family(t)
    i, u1, u2, v2 = _rotation(masks, v)
    return is_cyclic_triple(t, *(_build(_replaced(masks, i, new)[0])
                                 for new in (u1 | v2, v2 | u2)))


def _balanced_k(masks: Masks) -> tuple[KSequence, int]:
    """k and epsilon(k) of a balanced family.  A balanced node's children have
    minima lo < hi, its two smallest labels; the merge construction creates
    it at step hi-1 (so at construction position hi-1) with k_{hi-1} = lo."""
    k = [0] * len(masks)
    positions = []
    for s in masks:
        lo = s & -s
        position = ((s ^ lo) & -(s ^ lo)).bit_length() - 3  # hi - 2
        k[position] = lo.bit_length() - 1
        positions.append(position)
    return tuple(k), perm_sign_of(positions)


@functools.lru_cache(maxsize=_CACHE_CAP)
def _balanced_term(k: KSequence) -> tuple[str, Tree, int]:
    """Render text, tree and epsilon(k) of the balanced tree of k.  The merge
    construction runs uncached, so that its node sets are not kept too."""
    tree, _, eps = _construct.__wrapped__(k)
    return tree.render(), tree, eps


def find_unbalanced(t: Tree) -> int | None:
    """Canonical position of a deepest unbalanced node (smallest position on
    ties), or None when the tree is balanced."""
    return _scan(_family(t))[1]


@dataclass(frozen=True)
class SignedTreeSum:
    """Integer combination of balanced trees, each in canonical ordering.

    A sum made by reduce_to_balanced also carries its coordinates
    {k: coeff * epsilon(k)}; they take no part in ==, hash or repr.
    """

    g: int
    terms: tuple[tuple[Tree, int], ...]
    _by_k: dict[KSequence, int] | None = field(default=None, init=False, repr=False,
                                                compare=False)

    @classmethod
    def from_dict(cls, g: int, coeffs: dict[Tree, int]) -> SignedTreeSum:
        for tree in coeffs:
            if not is_balanced(tree):
                raise DomainError(f"term {tree.render()} is not balanced")
        items = tuple(sorted(((t, c) for t, c in coeffs.items() if c != 0),
                             key=lambda tc: tc[0].render()))
        return cls(g=g, terms=items)

    @classmethod
    def _from_k(cls, g: int, by_k: dict[KSequence, int]) -> SignedTreeSum:
        """The sum with coordinates `by_k` (nonzero, epsilon folded in), its
        terms sorted by text; a balanced tree's text is unique."""
        entries = sorted((_balanced_term(k), c) for k, c in by_k.items())
        signed = cls(g=g, terms=tuple((tree, c * eps) for (_, tree, eps), c in entries))
        object.__setattr__(signed, "_by_k", by_k)
        return signed

    def as_dict(self) -> dict[Tree, int]:
        return dict(self.terms)

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "terms": [{"tree": t.render(), "coeff": c} for t, c in self.terms],
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


# Reductions of canonical mask families as (sign, {k: coeff * epsilon(k)}),
# sign times the dict, shared by untraced calls without a step limit: callers
# that reduce many trees of one genus (crosspath, checks of the determinant
# route) revisit the same intermediate trees.  Emptied at the cap.
_SHARED_MEMO: dict[Masks, tuple[int, dict[KSequence, int]]] = {}

# Without a step_limit, reduce_to_balanced allows _BUDGET_BASE ** genus rotations.
_BUDGET_BASE = 3


def reduce_to_balanced(t: Tree, trace: TraceHook | None = None,
                       step_limit: int | None = None) -> SignedTreeSum:
    """Rewrite a tree's cycle as a signed sum of balanced-tree cycles.

    Balanced input is returned as itself with coefficient 1.  Otherwise the
    tree is rotated at a deepest unbalanced node and both results recurse
    with coefficient -1, their inherited orderings folded into the sign.
    The recursion sums coordinates keyed by k, epsilon folded in, and the
    returned sum carries them for to_decomposition.
    Each rotation is reported to `trace` when given (which also disables
    memoization, so the trace covers the whole recursion tree).  The step
    ceiling of 3^g is a circuit breaker only (it raises RewriteBudgetError);
    the height measure already guarantees termination.  Reductions are
    memoized across calls, except under an explicit `step_limit`, which then
    counts every rotation of this tree's reduction.
    """
    return SignedTreeSum._from_k(t.genus, _reduce(t, trace, step_limit))


def _reduce(t: Tree, trace: TraceHook | None = None,
            step_limit: int | None = None) -> dict[KSequence, int]:
    """The coordinates {k: coeff * epsilon(k)} of reduce_to_balanced(t), with
    no terms built.  The result may be the shared memo's; do not mutate it."""
    limit = _BUDGET_BASE ** t.genus if step_limit is None else step_limit
    steps = 0
    memo = _SHARED_MEMO if step_limit is None else {}

    def reduce_family(masks: Masks) -> tuple[int, dict[KSequence, int]]:
        nonlocal steps
        if trace is None and (known := memo.get(masks)) is not None:
            return known
        firsts, v = _scan(masks)
        if v is None:
            k, eps = _balanced_k(masks)
            result = (1, {k: eps})
        else:
            steps += 1
            if steps > limit:
                raise RewriteBudgetError(f"rotation budget {limit} exceeded; rewriting diverged")
            i, u1, u2, v2 = _rotation(masks, v, firsts)
            family_a, sigma_a = _replaced(masks, i, u1 | v2)
            family_b, sigma_b = _replaced(masks, i, v2 | u2)
            if trace is not None:
                trace({"at": i + 1,
                       "triple": [_build(f).render() for f in (masks, family_a, family_b)]})
            # sum -sigma * sign * coords: copy the larger dict, add the smaller
            sign_a, a = reduce_family(family_a)
            sign_b, b = reduce_family(family_b)
            sign_a, sign_b = -sigma_a * sign_a, -sigma_b * sign_b
            if len(a) < len(b):
                sign_a, a, sign_b, b = sign_b, b, sign_a, a
            merged, factor = a.copy(), sign_a * sign_b
            for k, c in b.items():
                if c := merged.get(k, 0) + factor * c:
                    merged[k] = c
                else:
                    del merged[k]
            result = (sign_a, merged)
        if trace is None:
            if len(memo) >= _CACHE_CAP:
                memo.clear()
            memo[masks] = result
        return result

    sign, coords = reduce_family(_family(t))
    return coords if sign == 1 else {k: -c for k, c in coords.items()}
