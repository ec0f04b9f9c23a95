"""Reference rotations, searches and reductions for the rewriting engine.

`rotation_triple` walks nested tuples instead of node-set families.  It finds
the rotation node by searching the tree for its leaf set, re-derives every
leaf set by walking subtrees, and rebuilds the rotated trees by substituting
a subtree and re-pairing canonically.  Tests use it as the oracle for
`rewrite.rotation_triple`: the same trees, orderings, blocks and positions.

On mask families, `deepest_unbalanced` is the quadratic definition of the
rotation node, `rotation` finds children by forward scans, and
`reduce_unsigned` is the reduction with plain dicts: each rotation sums
-sigma * c over both rotated families, then drops zero coefficients.
`remy_tree` draws uniform random trees for sampled checks.
"""

from braidcycles.errors import DomainError
from braidcycles.rewrite import _balanced_k, _replaced
from braidcycles.trees import Tree, descendant_sets


def leaf_labels(node):
    if isinstance(node, int):
        return frozenset((node,))
    return leaf_labels(node[0]) | leaf_labels(node[1])


def node_key(node):
    labels = leaf_labels(node)
    return (-len(labels), min(labels))


def canonical_pair(a, b):
    return (a, b) if node_key(a) <= node_key(b) else (b, a)


def smalls_child(children, lo, second):
    """(child holding both labels, other child), or None when they are split."""
    for this, other in (children, children[::-1]):
        labels = leaf_labels(this)
        if lo in labels and second in labels:
            return this, other
    return None


def pick_v1(children, lo, second):
    """The child holding both smallest labels, else the first internal child."""
    picked = smalls_child(children, lo, second)
    if picked is not None:
        return picked
    for this, other in (children, children[::-1]):
        if not isinstance(this, int):
            return this, other
    raise DomainError("node has two leaf children; no rotation is available")


def find(node, target):
    if isinstance(node, int):
        return None
    if leaf_labels(node) == target:
        return node
    return find(node[0], target) or find(node[1], target)


def replace(node, old, new):
    if isinstance(node, int):
        return node
    if leaf_labels(node) == old:
        return new
    return (replace(node[0], old, new), replace(node[1], old, new))


def rotation_triple(t, v):
    """(trees, orderings, blocks, s, t) of the rotation of `t` at position v."""
    ord0 = descendant_sets(t)
    v_set = ord0[v - 1]
    vnode = find(t.root, v_set)
    lo, second = sorted(v_set)[:2]
    v1, v2 = pick_v1((vnode[0], vnode[1]), lo, second)
    s1, s2 = sorted(leaf_labels(v1))[:2]
    u1, u2 = smalls_child(v1, s1, s2) or v1
    v1_set = leaf_labels(v1)
    s = ord0.index(v1_set) + 1
    b1, b2, b3 = leaf_labels(v2), leaf_labels(u2), leaf_labels(u1)
    prime = Tree(replace(t.root, v_set, canonical_pair(canonical_pair(u1, v2), u2)), t.genus)
    double = Tree(replace(t.root, v_set, canonical_pair(canonical_pair(v2, u2), u1)), t.genus)
    trees = (t, prime, double)
    orderings = tuple(ord0[:s - 1] + (changed,) + ord0[s:]
                      for changed in (v1_set, b3 | b1, b1 | b2))
    return trees, orderings, (b1, b2, b3), s, v


def children(masks, i):
    """The two child masks of node i, a leaf as one bit: first the child
    holding both of the node's two smallest labels, if one does, otherwise
    canonical order.  The first later mask inside a node is one of its children."""
    s = masks[i]
    lo = s & -s
    first = next((c for c in masks[i + 1:] if c & s == c), lo)
    # the other child holds both smallest labels exactly when first holds neither
    two_lowest = lo | ((s ^ lo) & -(s ^ lo))
    return (first, s ^ first) if first & two_lowest else (s ^ first, first)


def rotation(masks, v):
    """(index of v1, u1, u2, v2) for the rotation at position v."""
    v1, v2 = children(masks, v - 1)
    if v1.bit_count() < 2:
        raise DomainError("node has two leaf children; no rotation is available")
    i = masks.index(v1, v)
    return (i, *children(masks, i), v2)


def deepest_unbalanced(masks):
    """Position of a deepest unbalanced node, the smallest on ties, or None.
    A node is unbalanced when the first later mask holding its lowest bit lo,
    its child holding lo, also holds its second lowest; its depth is the
    number of earlier masks holding lo."""
    best, best_depth = None, -1
    for i, s in enumerate(masks):
        lo = s & -s
        for child in masks[i + 1:]:
            if child & lo:
                rest = s ^ lo
                if child & rest & -rest:
                    depth = sum(1 for a in masks[:i] if a & lo)
                    if depth > best_depth:
                        best, best_depth = i + 1, depth
                break
    return best


def reduce_unsigned(masks, memo):
    """{k: coeff * epsilon(k)} of a family, by rotating at a deepest
    unbalanced node; `memo` maps families to their finished dicts."""
    if masks in memo:
        return memo[masks]
    v = deepest_unbalanced(masks)
    if v is None:
        k, eps = _balanced_k(masks)
        result = {k: eps}
    else:
        i, u1, u2, v2 = rotation(masks, v)
        result = {}
        for family, sigma in (_replaced(masks, i, u1 | v2), _replaced(masks, i, v2 | u2)):
            for k, c in reduce_unsigned(family, memo).items():
                result[k] = result.get(k, 0) - sigma * c
        result = {k: c for k, c in result.items() if c != 0}
    memo[masks] = result
    return result


def remy_tree(genus, rng):
    """A uniform random tree of the genus by Remy's leaf insertion: leaf m
    goes above one of the 2m-3 nodes of the tree on leaves 1..m-1, each
    chosen with equal probability (nodes counted in preorder)."""
    root = 1
    for leaf in range(2, genus):
        root = _insert_above(root, rng.randrange(2 * leaf - 3), leaf)[0]
    return Tree.from_node(root)


def _insert_above(node, pick, leaf):
    """(node with `leaf` joined above its pick-th preorder node, pick left
    over); the pick left over is negative once the leaf is placed."""
    if pick == 0:
        return (node, leaf), -1
    if isinstance(node, int):
        return node, pick - 1
    left, pick = _insert_above(node[0], pick - 1, leaf)
    if pick < 0:
        return (left, node[1]), pick
    right, pick = _insert_above(node[1], pick, leaf)
    return (left, right), pick
