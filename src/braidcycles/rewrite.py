"""Cyclic-triple rewriting: reduce any tree's cycle to balanced trees.

Three trees form a cyclic triple when their node-set families agree except at
one node, where the three sets are the pairwise unions of three disjoint
blocks whose total union is a common node.  Rotating a tree at a node with an
internal child produces the two other associations of the three hanging
subtrees, completing such a triple; the three cycles with aligned node
orderings sum to zero.  Rotating away a deepest unbalanced node strictly
reduces unbalancedness, so repeated rotation terminates in a signed sum over
balanced trees, independently of the determinant route.

Orderings are tracked across rotations by descendant set: the rotated node
keeps its position while its set changes, and every other node keeps both.
Signs are meaningless without this alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .decomposition import (
    CycleDecomposition,
    balanced_tree_to_k,
    det,
    epsilon,
    incidence_matrix,
    k_sequences,
    parity_between,
)
from .errors import DomainError
from .trees import Node, Tree, balance_report, descendant_sets, is_balanced, node_depths, _leaf_labels

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
    fams = [set(descendant_sets(t)) for t in (t1, t2, t3)]
    core = fams[0] & fams[1] & fams[2]
    extras = [fam - core for fam in fams]
    if any(len(e) != 1 for e in extras):
        return None
    d1, d2, d3 = (next(iter(e)) for e in extras)
    if len({d1, d2, d3}) != 3:
        return None
    b1, b2, b3 = d2 & d3, d1 & d3, d1 & d2
    if not (b1 and b2 and b3):
        return None
    if b1 & b2 or b1 & b3 or b2 & b3:
        return None
    if d1 != b2 | b3 or d2 != b1 | b3 or d3 != b1 | b2:
        return None
    union = b1 | b2 | b3
    if union not in core:
        return None
    ord1 = descendant_sets(t1)
    s = ord1.index(d1) + 1
    aligned = tuple(
        OrderedTree(tree=t, ordering=ord1[:s - 1] + (d,) + ord1[s:])
        for t, d in ((t1, d1), (t2, d2), (t3, d3))
    )
    return CyclicTriple(trees=aligned, blocks=(b1, b2, b3), s=s, t=ord1.index(union) + 1)


def _subtree_sort_key(node: Node) -> tuple[int, tuple[int, ...]]:
    labels = tuple(sorted(_leaf_labels(node)))
    return (-len(labels), labels)


def _smalls_child(children: tuple[Node, Node], lo: int, second: int) -> tuple[Node, Node] | None:
    """(child holding both labels, other child), or None when they are split."""
    for this, other in (children, children[::-1]):
        labels = _leaf_labels(this)
        if lo in labels and second in labels:
            return this, other
    return None


def _pick_v1(children: tuple[Node, Node], lo: int, second: int) -> tuple[Node, Node]:
    """Child of the rotation node whose subtrees get re-associated.

    Prefers the child holding both of the node's two smallest labels (which
    is then automatically internal); otherwise the canonically first internal
    child.  Applying the same preference again inside v1 (see _pick_u1) is
    what makes re-rotating the first output recover the input tree.
    """
    picked = _smalls_child(children, lo, second)
    if picked is not None:
        return picked
    for this in sorted(children, key=_subtree_sort_key):
        if not isinstance(this, int):
            other = children[1] if this is children[0] else children[0]
            return this, other
    raise DomainError("node has two leaf children; no rotation is available")


def _pick_u1(children: tuple[Node, Node], lo: int, second: int) -> tuple[Node, Node]:
    """Role assignment inside v1; the canonical-first fallback may be a leaf."""
    picked = _smalls_child(children, lo, second)
    if picked is not None:
        return picked
    a, b = sorted(children, key=_subtree_sort_key)
    return a, b


def _rotation_parts(t: Tree, v: int) -> tuple[frozenset[int], frozenset[int], Node, Node, Node]:
    """Locate node v and return (set at v, set at v1, u1, u2, v2)."""
    sets = descendant_sets(t)
    if not (1 <= v <= len(sets)):
        raise DomainError(f"node index {v} out of range 1..{len(sets)}")
    target = sets[v - 1]

    def find(node: Node) -> Node | None:
        if isinstance(node, int):
            return None
        if _leaf_labels(node) == target:
            return node
        return find(node[0]) or find(node[1])

    vnode = find(t.root)
    lo, second = sorted(target)[:2]
    v1, v2 = _pick_v1((vnode[0], vnode[1]), lo, second)
    s1, s2 = sorted(_leaf_labels(v1))[:2]
    u1, u2 = _pick_u1((v1[0], v1[1]), s1, s2)
    return target, _leaf_labels(v1), u1, u2, v2


def _replace(node: Node, old: frozenset[int], new: Node) -> Node:
    if isinstance(node, int):
        return node
    if _leaf_labels(node) == old:
        return new
    return (_replace(node[0], old, new), _replace(node[1], old, new))


def rotate(t: Tree, v: int) -> tuple[Tree, Tree]:
    """The two other associations of the three subtrees hanging below node v.

    With T carrying (u1 u2) v2 below v, returns T' carrying (u1 v2) u2 and
    T'' carrying (v2 u2) u1.  Together with T they form a cyclic triple.
    Fails if both children of v are leaves.
    """
    v_set, _, u1, u2, v2 = _rotation_parts(t, v)
    prime = Tree.from_node(_replace(t.root, v_set, ((u1, v2), u2)))
    double = Tree.from_node(_replace(t.root, v_set, ((v2, u2), u1)))
    return prime, double


def rotation_triple(t: Tree, v: int) -> CyclicTriple:
    """Rotate at v and package {t, T', T''} with orderings aligned to t.

    The rotated node keeps its position; only its descendant set changes.
    """
    v_set, v1_set, u1, u2, v2 = _rotation_parts(t, v)
    ord0 = descendant_sets(t)
    s = ord0.index(v1_set) + 1
    blocks = (_leaf_labels(v2), _leaf_labels(u2), _leaf_labels(u1))
    entries = []
    for replacement, changed in (
        (None, v1_set),
        (((u1, v2), u2), _leaf_labels(u1) | _leaf_labels(v2)),
        (((v2, u2), u1), _leaf_labels(v2) | _leaf_labels(u2)),
    ):
        tree = t if replacement is None else Tree.from_node(_replace(t.root, v_set, replacement))
        entries.append(OrderedTree(tree=tree, ordering=ord0[:s - 1] + (changed,) + ord0[s:]))
    return CyclicTriple(trees=tuple(entries), blocks=blocks, s=s, t=v)


def find_unbalanced(t: Tree) -> int | None:
    """Canonical position of a deepest unbalanced node (smallest position on
    ties), or None when the tree is balanced."""
    report = balance_report(t)
    depths = node_depths(t)
    best = None
    for pos, (ok, depth) in enumerate(zip(report, depths), start=1):
        if ok:
            continue
        if best is None or depth > depths[best - 1]:
            best = pos
    return best


@dataclass(frozen=True)
class SignedTreeSum:
    """Integer combination of balanced trees, each in canonical ordering."""

    g: int
    terms: tuple[tuple[Tree, int], ...]

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
        return {
            "g": self.g,
            "terms": [{"tree": t.render(), "coeff": c} for t, c in self.terms],
        }

    def to_decomposition(self) -> CycleDecomposition:
        """Convert to coordinates over the construction-ordered basis, which
        picks up each tree's ordering parity."""
        coeffs = {}
        for tree, c in self.terms:
            k = balanced_tree_to_k(tree)
            coeffs[k] = c * epsilon(k)
        return CycleDecomposition.from_dict(self.g, coeffs)


# Reductions of canonical trees, shared by every untraced call without an
# explicit step limit: a tree's reduction never changes, and callers that
# reduce many trees of one genus (crosspath, checks of the determinant route)
# revisit the same intermediate trees.  Emptied when it reaches the cap, so
# it stays bounded.
_SHARED_MEMO: dict[Tree, dict[Tree, int]] = {}
_SHARED_MEMO_CAP = 1 << 15


def reduce_to_balanced(t: Tree, trace: TraceHook | None = None,
                       step_limit: int | None = None) -> SignedTreeSum:
    """Rewrite a tree's cycle as a signed sum of balanced-tree cycles.

    Balanced input is returned as itself with coefficient 1.  Otherwise the
    tree is rotated at a deepest unbalanced node and both results recurse
    with coefficient -1, their inherited orderings folded into the sign.
    Each rotation is reported to `trace` when given (which also disables
    memoization, so the trace covers the whole recursion tree).  The step
    ceiling of 3^g is a circuit breaker only; the height measure already
    guarantees termination.  Reductions are memoized across calls, except
    under an explicit `step_limit`, which then counts every rotation of this
    tree's reduction.
    """
    limit = 3 ** t.genus if step_limit is None else step_limit
    steps = 0
    memo = _SHARED_MEMO if step_limit is None else {}

    def reduce_canonical(tree: Tree) -> dict[Tree, int]:
        nonlocal steps
        if trace is None:
            known = memo.get(tree)
            if known is not None:
                return known
        v = find_unbalanced(tree)
        if v is None:
            result = {tree: 1}
        else:
            steps += 1
            if steps > limit:
                raise RuntimeError(f"rotation budget {limit} exceeded; rewriting diverged")
            triple = rotation_triple(tree, v)
            if trace is not None:
                trace({"at": triple.s,
                       "triple": [ot.tree.render() for ot in triple.trees]})
            result: dict[Tree, int] = {}
            for ot in triple.trees[1:]:
                sigma = ot.parity()
                for term, c in reduce_canonical(ot.tree).items():
                    result[term] = result.get(term, 0) - sigma * c
            result = {term: c for term, c in result.items() if c != 0}
        if trace is None:
            if len(memo) >= _SHARED_MEMO_CAP:
                memo.clear()
            memo[tree] = result
        return result

    return SignedTreeSum.from_dict(t.genus, reduce_canonical(t))


def verify_cyclic_determinant_identity(triple: CyclicTriple) -> bool:
    """Check that the three aligned incidence determinants sum to zero for
    every index sequence."""
    g = triple.trees[0].tree.genus
    for k in k_sequences(g):
        total = sum(det(incidence_matrix(k, ot.tree, ordering=ot.ordering))
                    for ot in triple.trees)
        if total != 0:
            return False
    return True
