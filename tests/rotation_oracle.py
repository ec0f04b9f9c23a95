"""Reference rotation that walks nested tuples instead of node-set families.

It finds the rotation node by searching the tree for its leaf set, re-derives
every leaf set by walking subtrees, and rebuilds the rotated trees by
substituting a subtree and re-pairing canonically.  Tests use it as the
oracle for `rotation_triple`: the same trees, orderings, blocks and
positions.
"""

from braidcycles.errors import DomainError
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
