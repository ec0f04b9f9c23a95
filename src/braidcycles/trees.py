"""Marked trivalent trees and their balanced subfamily.

A tree of genus g is stored as a rooted full binary tree whose leaves carry
the labels 1..g-1 exactly once (the marked root leaf g of the trivalent
picture is erased; the vertex next to it becomes the binary root).  Trees are
kept in canonical form: at every internal node the children are ordered by
descendant leaf set, larger set first, ties broken by the smallest element.
The same key orders the internal nodes themselves; position 1 of the
canonical node ordering is always the root.  The sets compared are always
disjoint (a laminar family), so the key agrees with a lexicographic
tie-break on the sorted element lists.

The builder, the merge construction and the rewriting engine hold a family as
int bitmasks, bit x for label x; on a laminar family the key (-popcount,
lowest set bit) is the same order.  Public functions take and return sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import TreeError

# A node is either a leaf label or a pair of child nodes.
Node = Union[int, tuple]

# parse_tree, Tree and Tree.from_node refuse deeper nesting before any
# recursion starts; a genus-g tree nests at most g-2 deep, far below this.
MAX_DEPTH = 100

Masks = tuple[int, ...]  # a canonical family as bitmasks, bit x for label x

# Bound of every cache over trees or node-set families (all 10,395 of genus 8),
# shared by the arnold ring's product cache.
_CACHE_CAP = 1 << 15


def _set_sort_key(s: frozenset[int] | set[int]) -> tuple[int, int]:
    """Canonical key of a descendant set: size descending, then smallest label."""
    return (-len(s), min(s))


def _mask_key(m: int) -> tuple[int, int]:
    """_set_sort_key of a node mask: popcount descending, then lowest set bit."""
    return (-m.bit_count(), m & -m)


def _masks(sets: Iterable[frozenset[int]]) -> Masks:
    return tuple(sum(1 << x for x in s) for s in sets)


def _labels(m: int) -> frozenset[int]:
    return frozenset(x for x in range(m.bit_length()) if m >> x & 1)


def _canonicalize(node: Node, leaves: list[int]) -> tuple[Node, int, int]:
    """Return (canonical node, leaf count, smallest leaf) and append each leaf
    to `leaves`, unchecked.  Children are ordered by (size, smallest leaf),
    which ties only when a label repeats; _check_labels rejects that."""
    if isinstance(node, int):
        leaves.append(node)
        return node, 1, node
    if not (isinstance(node, (tuple, list)) and len(node) == 2):
        raise TreeError("internal nodes must have exactly two children")
    a, na, la = _canonicalize(node[0], leaves)
    b, nb, lb = _canonicalize(node[1], leaves)
    if (-na, la) > (-nb, lb):
        a, b = b, a
    return (a, b), na + nb, min(la, lb)


def _validated(node: Node, genus: int | None = None) -> tuple[Node, int]:
    """(canonical node, genus) of a checked tree input: one canonicalizing
    walk, then one label check.  The genus defaults to the leaf count + 1."""
    leaves: list[int] = []
    canonical = _canonicalize(node, leaves)[0]
    genus = len(leaves) + 1 if genus is None else genus
    _check_labels(leaves, genus)
    return canonical, genus


def _check_labels(leaves: list[int], genus: int) -> None:
    """Reject the first fault in a fixed order that does not depend on where
    it sits in the tree: a bool leaf, the smallest label below 1, the smallest
    repeated label, fewer than 2 leaves, labels not exactly 1..n, the genus."""
    if bools := [lab for lab in leaves if isinstance(lab, bool)]:
        raise TreeError(f"leaf labels must be integers, got {min(bools)!r}")
    labels = sorted(leaves)
    n = len(labels)
    if labels[0] < 1:
        raise TreeError(f"leaf labels must be positive, got {labels[0]}")
    if repeated := [a for a, b in zip(labels, labels[1:]) if a == b]:
        raise TreeError(f"duplicate leaf label {repeated[0]}")
    if n < 2:
        raise TreeError("a tree needs at least 2 leaves (genus >= 3)")
    if labels != list(range(1, n + 1)):
        raise TreeError(f"leaf labels must be exactly 1..{n}, got {labels}")
    if genus != n + 1:
        raise TreeError(f"genus {genus} does not match {n} leaves (expected {n + 1})")


def _render(node: Node) -> str:
    if isinstance(node, int):
        return str(node)
    return f"({_render(node[0])},{_render(node[1])})"


@dataclass(frozen=True)
class Tree:
    """Canonical rooted full binary tree with leaves labeled 1..genus-1."""

    root: Node
    genus: int

    def __post_init__(self) -> None:
        _check_depth(self.root)
        if _validated(self.root, self.genus)[0] != self.root:
            raise TreeError("children are not in canonical order")

    @classmethod
    def from_node(cls, node: Node) -> Tree:
        """Build a canonical Tree from a nested node structure."""
        _check_depth(node)
        return cls._trusted(*_validated(node))

    @classmethod
    def _trusted(cls, root: Node, genus: int) -> Tree:
        """A Tree over a root that is canonical by construction; no checks."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "root", root)
        object.__setattr__(tree, "genus", genus)
        return tree

    @classmethod
    def from_string(cls, text: str) -> Tree:
        return parse_tree(text)

    def render(self) -> str:
        return _render(self.root)

    def descendant_sets(self) -> tuple[frozenset[int], ...]:
        return descendant_sets(self)

    def is_balanced(self) -> bool:
        return is_balanced(self)

    def to_json(self) -> dict:
        return tree_to_json(self)

    def __str__(self) -> str:
        return self.render()


def _check_depth(node: Node) -> None:
    """Refuse nesting deeper than MAX_DEPTH, one level at a time, no recursion."""
    level: list = [node]
    for _ in range(MAX_DEPTH + 1):
        if not (level := [child for n in level if isinstance(n, (tuple, list)) for child in n]):
            return
    raise TreeError(f"tree nested deeper than {MAX_DEPTH} levels")


def parse_tree(text: str) -> Tree:
    """Parse `TREE := LEAF | "(" TREE "," TREE ")"` into a canonical Tree.

    Whitespace is ignored and the child order of the input is irrelevant.
    Raises TreeError on malformed syntax, nesting deeper than MAX_DEPTH,
    duplicate labels, labels that are not exactly 1..n, or fewer than two
    leaves.
    """
    s = "".join(text.split())
    depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in s)
    if s.count("(") > MAX_DEPTH and max(depths) > MAX_DEPTH:
        raise TreeError(f"tree nested deeper than {MAX_DEPTH} levels")
    pos = 0

    def parse_node() -> Node:
        nonlocal pos
        if pos >= len(s):
            raise TreeError("unexpected end of input")
        if s[pos] == "(":
            pos += 1
            a = parse_node()
            if pos >= len(s) or s[pos] != ",":
                raise TreeError(f"expected ',' at position {pos}")
            pos += 1
            b = parse_node()
            if pos >= len(s) or s[pos] != ")":
                raise TreeError(f"expected ')' at position {pos}")
            pos += 1
            return (a, b)
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise TreeError(f"expected a leaf label at position {pos}")
        return int(s[start:pos])

    node = parse_node()
    if pos != len(s):
        raise TreeError(f"trailing input at position {pos}")
    # the text check above bounds the depth, so no _check_depth scan
    return Tree._trusted(*_validated(node))


def render_tree(t: Tree) -> str:
    """Canonical text form; parse_tree(render_tree(t)) == t."""
    return t.render()


@functools.lru_cache(maxsize=_CACHE_CAP)
def descendant_sets(t: Tree) -> tuple[frozenset[int], ...]:
    """Descendant leaf sets of the internal nodes, in canonical ordering.

    Ordering: size descending, ties broken by the smallest element.  The
    first entry is always the full set {1..g-1}.
    """
    sets: list[frozenset[int]] = []

    def walk(node: Node) -> frozenset[int]:
        if isinstance(node, int):
            return frozenset((node,))
        leaves = walk(node[0]) | walk(node[1])
        sets.append(leaves)
        return leaves

    walk(t.root)
    sets.sort(key=_set_sort_key)
    return tuple(sets)


def _node_report(sets: tuple[frozenset[int], ...]) -> list[tuple[int, bool]]:
    """(depth, balanced) per position of a canonical family.  A set's
    ancestors are the earlier sets holding its smallest label lo; the first
    later set holding lo is the child holding lo, unless that is a leaf."""
    report = []
    for i, s in enumerate(sets):
        lo, second = sorted(s)[:2]
        child = next((c for c in sets[i + 1:] if lo in c), ())
        report.append((sum(lo in a for a in sets[:i]), second not in child))
    return report


def node_depths(t: Tree) -> tuple[int, ...]:
    """Depth (edge distance from the root) per canonical node position."""
    return tuple(depth for depth, _ in _node_report(descendant_sets(t)))


def balance_report(t: Tree) -> tuple[bool, ...]:
    """Per-node balance flags, indexed by canonical node position.

    A node is balanced when its two smallest descendant leaf labels lie in
    different child subtrees.
    """
    return tuple(ok for _, ok in _node_report(descendant_sets(t)))


def is_balanced(t: Tree) -> bool:
    """True iff every internal node separates its two smallest descendants."""
    return all(balance_report(t))


def enumerate_trees(g: int) -> list[Tree]:
    """All genus-g trees, in lexicographic order of their canonical strings.

    There are (2g-5)!! of them.  Built by leaf insertion: every tree on
    leaves 1..m arises uniquely by attaching leaf m at one of the 2m-3 nodes
    of a tree on leaves 1..m-1.
    """
    return _enumerate(g, leaves_only=False)


def enumerate_balanced(g: int) -> list[Tree]:
    """The (g-2)! balanced trees of genus g, same order as enumerate_trees.

    Built by attaching leaf m next to a leaf only.  Paired with an internal
    node, the largest label m would leave that node's two smallest labels in
    one child; paired with a leaf, it changes no ancestor's two smallest
    labels.  So a tree is balanced iff it grows this way from a balanced one.
    """
    return _enumerate(g, leaves_only=True)


def _enumerate(g: int, leaves_only: bool) -> list[Tree]:
    if g < 3:
        raise TreeError(f"genus must be at least 3, got {g}")
    shapes: dict[str, Node] = {"(1,2)": (1, 2)}
    for m in range(3, g):
        shapes = {text: grown for shape in shapes.values()
                  for grown, text in _insertions(shape, m, leaves_only)[3]}
    return [Tree._trusted(shapes[text], g) for text in sorted(shapes)]


def _insertions(node: Node, m: int,
                leaves_only: bool) -> tuple[int, int, str, list[tuple[Node, str]]]:
    """Size, smallest label and text of a canonical subtree, and each canonical
    subtree (with its text) made by attaching leaf m at one of its nodes.

    m exceeds every label, so the new node is (x, m) and each ancestor keeps
    its smallest label; only a grown second child can overtake its sibling.
    """
    if isinstance(node, int):
        text = str(node)
        return 1, node, text, [((node, m), f"({text},{m})")]
    na, la, ta, grown_a = _insertions(node[0], m, leaves_only)
    nb, lb, tb, grown_b = _insertions(node[1], m, leaves_only)
    text = f"({ta},{tb})"
    out = [] if leaves_only else [((node, m), f"({text},{m})")]
    out += [((a, node[1]), f"({t},{tb})") for a, t in grown_a]
    if (-nb - 1, lb) < (-na, la):
        out += [((b, node[0]), f"({t},{ta})") for b, t in grown_b]
    else:
        out += [((node[0], b), f"({ta},{t})") for b, t in grown_b]
    return na + nb, min(la, lb), text, out


def _build(masks: Masks) -> Tree:
    """The Tree of a canonical mask family, built bottom-up without checks:
    each node joins the subtree holding its lowest label and the one whose
    minimum is the lowest label outside it, both keyed by lowest bit."""
    top: dict[int, tuple[Node, int]] = {}
    for s in reversed(masks):
        lo = s & -s
        a, a_mask = top.get(lo) or (lo.bit_length() - 1, lo)
        b_mask = s ^ a_mask
        hi = b_mask & -b_mask
        b = top.pop(hi)[0] if hi != b_mask else hi.bit_length() - 1
        # a holds the smaller label, so it comes first unless b is larger
        top[lo] = ((a, b) if a_mask.bit_count() >= b_mask.bit_count() else (b, a), s)
    return Tree._trusted(top[2][0], masks[0].bit_count() + 1)


def tree_from_sets(sets: Iterable[frozenset[int]]) -> Tree:
    """Reconstruct the tree whose internal descendant sets are `sets`.

    Inverse of descendant_sets: the family must be laminar, contain the full
    set {1..g-1}, and describe a full binary tree (g-2 sets, all of size >= 2).
    """
    family = [frozenset(s) for s in sets]
    if not family:
        raise TreeError("empty set family")
    # not yet known to be laminar, so equal sizes may share a smallest element
    family.sort(key=lambda s: (-len(s), sorted(s)))
    full = family[0]
    if len(set(family)) != len(family):
        raise TreeError("descendant sets must be pairwise distinct")
    if full != frozenset(range(1, len(full) + 1)):
        raise TreeError("the largest set must be {1..g-1}")
    if len(family) != len(full) - 1:
        raise TreeError(f"expected {len(full) - 1} sets for {len(full)} leaves")
    # g-2 laminar sets of size >= 2 in {1..g-1} leave every node two parts
    if any(len(s) < 2 or not s <= full for s in family):
        raise TreeError("set family does not describe a full binary tree")
    if any(a & b and not b <= a for a, b in itertools.combinations(family, 2)):
        raise TreeError("set family is not laminar")
    return _build(_masks(family))


def tree_to_json(t: Tree) -> dict:
    """JSON form: genus, canonical string, and canonical-ordered node sets."""
    return {
        "g": t.genus,
        "newick": t.render(),
        "nodes": [sorted(s) for s in descendant_sets(t)],
    }
