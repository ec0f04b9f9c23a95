"""Reference tree enumeration that canonicalizes every grown shape.

It orders children by (-size, sorted leaf tuple), the full lexicographic key,
and enumerates by plain leaf insertion followed by canonicalization, without
relying on any ordering invariant of the library's enumeration.  Tests use it
as the oracle for `enumerate_trees` and `enumerate_balanced`.

`facts` is the oracle for what a Tree shows of itself: its mask family walked
from nested pairs (`root_family`), its root, its text and its repr, all read
from a canonical nested root without the library.  `balanced_root` runs the
merge construction on nested pairs.
"""

from braidcycles.trees import Tree


def sorted_tuple_key(labels):
    elems = tuple(sorted(labels))
    return (-len(elems), elems)


def canonicalize(node):
    """(canonical node, sorted leaf labels) under the full lexicographic key."""
    if isinstance(node, int):
        return node, (node,)
    a, la = canonicalize(node[0])
    b, lb = canonicalize(node[1])
    if sorted_tuple_key(la) > sorted_tuple_key(lb):
        a, b = b, a
    return (a, b), tuple(sorted(la + lb))


def node_count(node):
    if isinstance(node, int):
        return 1
    return 1 + node_count(node[0]) + node_count(node[1])


def insert_leaf(node, pos, label):
    """Attach `label` at preorder node `pos`; returns (node, -1) once placed."""
    if pos == 0:
        return (node, label), -1
    if isinstance(node, int):
        return node, pos - 1
    left, pos = insert_leaf(node[0], pos - 1, label)
    if pos < 0:
        return (left, node[1]), -1
    right, pos = insert_leaf(node[1], pos, label)
    if pos < 0:
        return (node[0], right), -1
    return node, pos


def roots(g):
    """The canonical roots of all genus-g trees, every shape canonicalized,
    sorted by their text."""
    shapes = [(1, 2)]
    for m in range(3, g):
        shapes = [canonicalize(insert_leaf(shape, pos, m)[0])[0]
                  for shape in shapes for pos in range(node_count(shape))]
    return sorted(shapes, key=text)


def enumerate_trees(g):
    """All genus-g trees, sorted by their text."""
    return [Tree(root=shape, genus=g) for shape in roots(g)]


def root_family(root):
    """Every internal node's mask, bit x for label x, sorted by size
    descending, then lowest label: the canonical family."""
    masks = []

    def walk(node):
        if isinstance(node, int):
            return 1 << node
        mask = walk(node[0]) | walk(node[1])
        masks.append(mask)
        return mask

    walk(root)
    return tuple(sorted(masks, key=lambda m: (-bin(m).count("1"), m & -m)))


def text(node):
    return str(node) if isinstance(node, int) else f"({text(node[0])},{text(node[1])})"


def facts(root, genus):
    """(family, root, text, repr) of the Tree whose canonical root is `root`."""
    return root_family(root), root, text(root), f"Tree(root={root!r}, genus={genus!r})"


def balanced_root(k):
    """The canonical root of the merge construction of k: step i, for i =
    len(k) down to 1, joins the cluster of k_i with the cluster of i + 1."""
    clusters = {label: label for label in range(1, len(k) + 2)}
    for i in range(len(k), 0, -1):
        clusters[k[i - 1]] = (clusters[k[i - 1]], clusters.pop(i + 1))
    return canonicalize(clusters[1])[0]

