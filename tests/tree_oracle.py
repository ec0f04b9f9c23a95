"""Reference tree enumeration that canonicalizes every grown shape.

It orders children by (-size, sorted leaf tuple), the full lexicographic key,
and enumerates by plain leaf insertion followed by canonicalization, without
relying on any ordering invariant of the library's enumeration.  Tests use it
as the oracle for `enumerate_trees` and `enumerate_balanced`.
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


def enumerate_trees(g):
    """All genus-g trees, every shape canonicalized, sorted by their text."""
    shapes = [(1, 2)]
    for m in range(3, g):
        shapes = [canonicalize(insert_leaf(shape, pos, m)[0])[0]
                  for shape in shapes for pos in range(node_count(shape))]
    return sorted((Tree(root=shape, genus=g) for shape in shapes), key=Tree.render)
