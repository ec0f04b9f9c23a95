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

Internally label sets are int bitmasks, bit x for label x; on a laminar family
the key (-popcount, lowest set bit) is the same order.  _family is the one
walk from a tree to its canonical family; public functions return sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import TreeError

# A node is either a leaf label or a pair of child nodes.
Node = Union[int, tuple]

# parse_tree, Tree and Tree.from_node refuse deeper nesting before any
# recursion starts; a genus-g tree nests at most g-2 deep, far below this.
MAX_DEPTH = 100

# The most trees one enumeration builds: the (2g-5)!! trees of genus 10.
MAX_TREES = 2_027_025

Masks = tuple[int, ...]  # a canonical family as bitmasks, bit x for label x

# Bound of every cache over trees or node-set families (all 10,395 of genus 8),
# shared by the arnold ring's product cache.
_CACHE_CAP = 1 << 15


def _mask_key(m: int) -> tuple[int, int]:
    """Canonical key of a node mask: popcount descending, then lowest set bit."""
    return (-m.bit_count(), m & -m)


def _masks(sets: Iterable[frozenset[int]]) -> Masks:
    return tuple(sum(1 << x for x in s) for s in sets)


def _bits(m: int) -> list[int]:
    """The labels of a mask, lowest first."""
    labels = []
    while m:
        labels.append((m & -m).bit_length() - 1)
        m &= m - 1
    return labels


@functools.lru_cache(maxsize=_CACHE_CAP)
def _labels(m: int) -> frozenset[int]:
    """The label set of a mask, one shared frozenset per mask (2^(g-1) of them)."""
    return frozenset(_bits(m))


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


def _family(t: Tree) -> Masks:
    """The canonical mask family of a tree, in one walk of its root."""
    return _root_family(t.root)


def _root_family(root: Node) -> Masks:
    masks: list[int] = []

    def walk(node: Node) -> int:
        if isinstance(node, int):
            return 1 << node
        masks.append(walk(node[0]) | walk(node[1]))
        return masks[-1]

    walk(root)
    return tuple(sorted(masks, key=_mask_key))


@functools.lru_cache(maxsize=_CACHE_CAP)
def descendant_sets(t: Tree) -> tuple[frozenset[int], ...]:
    """Descendant leaf sets of the internal nodes, in canonical ordering.

    Ordering: size descending, ties broken by the smallest element.  The
    first entry is always the full set {1..g-1}.
    """
    return tuple(map(_labels, _family(t)))


def _node_report(masks: Masks) -> list[tuple[int, bool]]:
    """(depth, balanced) per position of a canonical family.  A mask's
    ancestors are the earlier masks holding its lowest bit lo; the first later
    mask holding lo is the child holding lo, unless that is a leaf."""
    report = []
    for i, s in enumerate(masks):
        lo = s & -s
        second = (s ^ lo) & -(s ^ lo)
        child = next((c for c in masks[i + 1:] if c & lo), 0)
        report.append((sum(a & lo != 0 for a in masks[:i]), not child & second))
    return report


def node_depths(t: Tree) -> tuple[int, ...]:
    """Depth (edge distance from the root) per canonical node position."""
    return tuple(depth for depth, _ in _node_report(_family(t)))


def balance_report(t: Tree) -> tuple[bool, ...]:
    """Per-node balance flags, indexed by canonical node position.

    A node is balanced when its two smallest descendant leaf labels lie in
    different child subtrees.
    """
    return tuple(ok for _, ok in _node_report(_family(t)))


def is_balanced(t: Tree) -> bool:
    """True iff every internal node separates its two smallest descendants."""
    return all(balance_report(t))


def enumerate_trees(g: int) -> list[Tree]:
    """All genus-g trees, in lexicographic order of their canonical strings.

    There are (2g-5)!! of them: a root joins a canonical tree on each part
    of each split of the labels into two nonempty parts, and so on down.
    """
    return _enumerate(g, balanced=False)


def enumerate_balanced(g: int) -> list[Tree]:
    """The (g-2)! balanced trees of genus g, same order as enumerate_trees.

    Built by the splits that separate the two smallest labels only: a node is
    balanced exactly when its two smallest labels lie in different children.
    """
    return _enumerate(g, balanced=True)


def _enumerate(g: int, balanced: bool) -> list[Tree]:
    nodes, texts = _tree_lists(g, balanced)
    return [Tree._trusted(nodes[i], g) for i in sorted(range(len(texts)), key=texts.__getitem__)]


def _tree_lists(g: int, balanced: bool) -> tuple[list[Node], list[str]]:
    """The canonical roots and texts of the genus-g trees, or of the balanced
    ones, as unsorted parallel lists; refused if over MAX_TREES trees."""
    if g < 3:
        raise TreeError(f"genus must be at least 3, got {g}")
    if (count := _tree_count(g, balanced)) > MAX_TREES:
        raise TreeError(f"genus {g} has {count} {'balanced ' * balanced}trees, "
                        f"over the enumeration budget of {MAX_TREES}")
    memo: dict[int, tuple[list[Node], list[str]]] = {1 << x: ([x], [str(x)]) for x in range(1, g)}
    return _splits((1 << g) - 2, balanced, memo)


def _tree_count(g: int, balanced: bool) -> int:
    """The closed formula: (g-2)! balanced trees, (2g-5)!! trees in all."""
    return math.factorial(g - 2) if balanced else math.prod(range(2 * g - 5, 0, -2))


def _splits(mask: int, balanced: bool,
            memo: dict[int, tuple[list[Node], list[str]]]) -> tuple[list[Node], list[str]]:
    """The canonical subtrees on the labels of `mask` and their texts, as
    parallel lists (no (node, text) pairs for the garbage collector to scan).
    B runs over the nonempty submasks of `rest` and A = mask ^ B keeps the
    lowest label, so each split is met once; the larger part goes first, A on
    a tie (the canonical key).  A balanced split puts the second-lowest in B."""
    if (got := memo.get(mask)) is not None:
        return got
    rest = mask ^ (mask & -mask)
    second = rest & -rest
    nodes: list[Node] = []
    texts: list[str] = []
    sub = rest
    while sub:
        if not balanced or sub & second:
            a = mask ^ sub
            first, last = (a, sub) if a.bit_count() >= sub.bit_count() else (sub, a)
            first_nodes, first_texts = _splits(first, balanced, memo)
            last_nodes, last_texts = _splits(last, balanced, memo)
            nodes += [(x, y) for x in first_nodes for y in last_nodes]
            texts += [f"({x},{y})" for x in first_texts for y in last_texts]
        sub = (sub - 1) & rest
    memo[mask] = (nodes, texts)
    return nodes, texts


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
    return _json_entry(t.genus, t.root, t.render())


def _json_entry(g: int, root: Node, text: str) -> dict:
    return {"g": g, "newick": text, "nodes": [sorted(_labels(m)) for m in _root_family(root)]}


def _json_listing(g: int, balanced: bool) -> Iterator[dict]:
    """tree_to_json of each genus-g tree, or balanced tree, in text order,
    made one at a time from the label-split lists; no Tree is built."""
    nodes, texts = _tree_lists(g, balanced)
    return (_json_entry(g, nodes[i], texts[i])
            for i in sorted(range(len(texts)), key=texts.__getitem__))
