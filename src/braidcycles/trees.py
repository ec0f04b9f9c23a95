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
the key (-popcount, lowest set bit) is the same order.  A Tree holds only its
canonical family of masks: the walk that checks a tree input builds it, and
the root and the text are folded back from it on demand (_fold).  Public
functions return sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar, Union

from .errors import TreeError

# A node is either a leaf label or a pair of child nodes.
Node = Union[int, tuple]
X = TypeVar("X")  # what a fold makes of a node

# parse_tree, Tree and Tree.from_node refuse deeper nesting before any
# recursion starts; a genus-g tree nests at most g-2 deep, far below this.
MAX_DEPTH = 100

# The most trees one enumeration builds: the (2g-5)!! trees of genus 10.
MAX_TREES = 2_027_025
# Python's default int-string limit: a longer label is refused, not read or written.
MAX_LABEL_DIGITS = 4300
_LONG_LABEL = f"leaf labels must have at most {MAX_LABEL_DIGITS} digits"
# A refusal writes a tree count up to this in full, a larger one as its formula.
_COUNT_SHOWN = 10 ** 18

Masks = tuple[int, ...]  # a canonical family as bitmasks, bit x for label x

# Bound of every cache (all 10,395 trees of genus 8 fit), the arnold ring's
# product cache included.
_CACHE_CAP = 1 << 15


def _mask_key(m: int) -> tuple[int, int]:
    """Canonical key of a node mask: popcount descending, then lowest set bit."""
    return (-m.bit_count(), m & -m)


def _masks(sets: Iterable[frozenset[int]]) -> Masks:
    return tuple(sum(1 << x for x in s) for s in sets)


@functools.lru_cache(maxsize=_CACHE_CAP)
def _bits(m: int) -> tuple[int, ...]:
    """The labels of a mask, lowest first, one shared tuple per mask."""
    labels = []
    while m:
        labels.append((m & -m).bit_length() - 1)
        m &= m - 1
    return tuple(labels)


def _labels(m: int) -> frozenset[int]:
    """The label set of a mask."""
    return frozenset(_bits(m))


def _walk(node: Node, n: int, masks: list[int]) -> int:
    """The mask of a node of a tree input, appending each internal node's
    mask to `masks`.  Only an int in 1..n (no bool) gets a bit, so a faulty
    label leaves the root mask short."""
    if isinstance(node, int):
        return 1 << node if 0 < node <= n and node is not True else 0
    if not (isinstance(node, (tuple, list)) and len(node) == 2):
        raise TreeError("internal nodes must have exactly two children")
    masks.append(mask := _walk(node[0], n, masks) | _walk(node[1], n, masks))
    return mask


def _validated(node: Node, n: int, genus: int | None = None) -> tuple[Masks, int]:
    """(canonical family, genus) of a tree input with n leaves: one walk and
    one root mask comparison; the label check runs only to name a fault.
    The genus defaults to n + 1."""
    masks: list[int] = []
    root = _walk(node, n, masks)
    genus = n + 1 if genus is None else genus
    if root != (2 << n) - 2 or n < 2 or genus != n + 1:
        _check_labels(_check_depth(node), genus)
    masks.sort(key=_mask_key)
    return tuple(masks), genus


def _check_labels(leaves: list[int], genus: int) -> None:
    """Reject the first fault in a fixed order that does not depend on where
    it sits in the tree: a bool leaf, a label over MAX_LABEL_DIGITS digits,
    the smallest label below 1, the smallest repeated label, fewer than 2
    leaves, labels not exactly 1..n, the genus."""
    if bools := [lab for lab in leaves if isinstance(lab, bool)]:
        raise TreeError(f"leaf labels must be integers, got {min(bools)!r}")
    if any(abs(lab) >= 10 ** MAX_LABEL_DIGITS for lab in leaves):
        raise TreeError(_LONG_LABEL)
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


def _fold(masks: Masks, leaf: Callable[[int], X], join: Callable[[X, X], X]) -> X:
    """Fold a canonical family bottom-up into its root: each node joins the
    subtree holding its lowest label and the one whose minimum is the lowest
    label outside it, both keyed by lowest bit.  The larger child goes first,
    the one holding the lowest label on a tie: the canonical order."""
    top: dict[int, tuple[X, int]] = {}
    for s in reversed(masks):
        lo = s & -s
        a, a_mask = top.get(lo) or (leaf(lo.bit_length() - 1), lo)
        b_mask = s ^ a_mask
        hi = b_mask & -b_mask
        b = top.pop(hi)[0] if hi != b_mask else leaf(hi.bit_length() - 1)
        top[lo] = (join(a, b) if a_mask.bit_count() >= b_mask.bit_count() else join(b, a), s)
    return top[2][0]


@dataclass(frozen=True, init=False, repr=False)
class Tree:
    """Canonical rooted full binary tree with leaves labeled 1..genus-1, held
    as its canonical mask family; the root and the text are folded from it."""

    _masks: Masks
    genus: int

    def __init__(self, root: Node, genus: int) -> None:
        masks, genus = _validated(root, len(_check_depth(root)), genus)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "genus", genus)
        if self.root != root:
            raise TreeError("children are not in canonical order")

    @classmethod
    def from_node(cls, node: Node) -> Tree:
        """Build a canonical Tree from a nested node structure."""
        return _build(_validated(node, len(_check_depth(node)))[0])

    @property
    def root(self) -> Node:
        """The canonical nested pairs of leaf labels."""
        return _fold(self._masks, int, lambda a, b: (a, b))

    def render(self) -> str:
        return _fold(self._masks, str, "({},{})".format)

    def descendant_sets(self) -> tuple[frozenset[int], ...]:
        return descendant_sets(self)

    def is_balanced(self) -> bool:
        return is_balanced(self)

    def to_json(self) -> dict:
        return tree_to_json(self)

    def __repr__(self) -> str:
        return f"Tree(root={self.root!r}, genus={self.genus!r})"

    def __str__(self) -> str:
        return self.render()


def _check_depth(node: Node) -> list:
    """Refuse nesting deeper than MAX_DEPTH, one level at a time, no
    recursion; return the leaves (the nodes that are not pairs)."""
    level, leaves = [node], []
    for _ in range(MAX_DEPTH + 1):
        leaves += [n for n in level if not isinstance(n, (tuple, list))]
        if not (level := [child for n in level if isinstance(n, (tuple, list)) for child in n]):
            return leaves
    raise TreeError(f"tree nested deeper than {MAX_DEPTH} levels")


def parse_tree(text: str) -> Tree:
    """Parse `TREE := LEAF | "(" TREE "," TREE ")"` into a canonical Tree.

    Whitespace is ignored and the child order of the input is irrelevant.
    One descent reads the text and builds the mask family the Tree holds.
    Raises TreeError on malformed syntax, nesting deeper than MAX_DEPTH,
    duplicate labels, labels that are not exactly 1..n, or fewer than two
    leaves.
    """
    s = "".join(text.split())
    depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in s)
    if s.count("(") > MAX_DEPTH and max(depths) > MAX_DEPTH:
        raise TreeError(f"tree nested deeper than {MAX_DEPTH} levels")
    n = s.count(",") + 1  # a binary tree has one leaf more than it has commas
    masks: list[int] = []
    leaves: list[int] = []
    root, pos = _parse_node(s, 0, n, masks, leaves)
    if pos != len(s):
        raise TreeError(f"trailing input at position {pos}")
    if root != (2 << n) - 2 or n < 2:
        _check_labels(leaves, n + 1)
    masks.sort(key=_mask_key)
    return _build(tuple(masks))


def _parse_node(s: str, pos: int, n: int, masks: list[int], leaves: list[int]) -> tuple[int, int]:
    """The mask of the node of `s` that starts at `pos` and the position
    after it, appending each internal node's mask to `masks` and each label
    to `leaves`; a leaf gets a bit only if it is in 1..n, as in _walk."""
    if pos >= len(s):
        raise TreeError("unexpected end of input")
    if s[pos] == "(":
        ma, pos = _parse_node(s, pos + 1, n, masks, leaves)
        if pos >= len(s) or s[pos] != ",":
            raise TreeError(f"expected ',' at position {pos}")
        mb, pos = _parse_node(s, pos + 1, n, masks, leaves)
        if pos >= len(s) or s[pos] != ")":
            raise TreeError(f"expected ')' at position {pos}")
        masks.append(mask := ma | mb)
        return mask, pos + 1
    start = pos
    while pos < len(s) and s[pos].isdecimal():  # what int() accepts, unlike isdigit
        pos += 1
    if pos == start:
        raise TreeError(f"expected a leaf label at position {pos}")
    digits = s[start:pos]
    if pos - start > MAX_LABEL_DIGITS:  # read past zero padding
        if len(digits := digits.lstrip("0") or "0") > MAX_LABEL_DIGITS:
            raise TreeError(_LONG_LABEL)
    leaves.append(label := int(digits))
    return 1 << label if 0 < label <= n else 0, pos


def render_tree(t: Tree) -> str:
    """Canonical text form; parse_tree(render_tree(t)) == t."""
    return t.render()


def descendant_sets(t: Tree) -> tuple[frozenset[int], ...]:
    """Descendant leaf sets of the internal nodes, in canonical ordering.

    Ordering: size descending, ties broken by the smallest element.  The
    first entry is always the full set {1..g-1}.
    """
    return tuple(map(_labels, t._masks))


def _scan(masks: Masks) -> tuple[list[int], int | None]:
    """One backward pass over a family: per index, the child mask holding the
    node's lowest label lo (the last mask seen whose lowest bit is lo, else
    the leaf lo), and the position of a deepest unbalanced node, the smallest
    on ties, or None.  `best` keys each subtree holding one by its lowest bit,
    with depth * n - index of its best one, depth counted from the subtree's
    top; a parent takes over its children's keys (-n if none)."""
    n, firsts = len(masks), [0] * len(masks)
    top, best = {}, {}  # by lowest bit: the last mask seen, and keys as above
    for j, s in zip(range(n - 1, -1, -1), reversed(masks)):
        lo = s & -s
        a = firsts[j] = top.get(lo, lo)
        top[lo] = s
        if best:
            b = s ^ a
            key_a, key_b = best.pop(lo, -n), best.pop(b & -b, -n)
            if (key := (key_a if key_a > key_b else key_b) + n) > 0:
                best[lo] = key
                continue
        if a & (rest := s ^ lo) & -rest:  # a also holds the second lowest label
            best[lo] = -j
    return firsts, -best.popitem()[1] % n + 1 if best else None


def node_depths(t: Tree) -> tuple[int, ...]:
    """Depth (edge distance from the root) per canonical node position: the
    number of earlier masks, its ancestors, holding the node's lowest label."""
    return tuple(sum(a & s & -s != 0 for a in t._masks[:i]) for i, s in enumerate(t._masks))


def balance_report(t: Tree) -> tuple[bool, ...]:
    """Per-node balance flags, indexed by canonical node position.

    A node is balanced when its two smallest descendant leaf labels lie in
    different child subtrees: its child holding the lowest (_scan) lacks the other.
    """
    firsts = _scan(t._masks)[0]
    return tuple(not a & (rest := s ^ (s & -s)) & -rest for s, a in zip(t._masks, firsts))


def is_balanced(t: Tree) -> bool:
    """True iff every internal node separates its two smallest descendants."""
    return _scan(t._masks)[1] is None


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
    return [_build(masks) for _, masks in _listing(g, balanced)]


def _listing(g: int, balanced: bool) -> Iterator[tuple[str, Masks]]:
    """(text, canonical family) of each genus-g tree, or balanced tree, in
    text order: the split lists sorted by text."""
    families, texts = _tree_lists(g, balanced)
    for i in sorted(range(len(texts)), key=texts.__getitem__):
        yield texts[i], families[i]


def _tree_lists(g: int, balanced: bool) -> tuple[list[Masks], list[str]]:
    """The canonical families and texts of the genus-g trees, or of the
    balanced ones, as parallel lists in split order; refused if over
    MAX_TREES trees."""
    _check_enumeration(g, balanced)
    rank = {m: i for i, m in enumerate(sorted(range(2, 1 << g, 2), key=_mask_key))}
    leaves = {1 << x: ([()], [str(x)]) for x in range(1, g)}
    return _splits((1 << g) - 2, balanced, leaves, rank.__getitem__)


def _check_enumeration(g: int, balanced: bool) -> None:
    """Refuse genus below 3, or more than MAX_TREES trees, before any work."""
    if g < 3:
        raise TreeError(f"genus must be at least 3, got {g}")
    if (count := _tree_count(g, balanced)) is None or count > MAX_TREES:
        shown = count or (f"{g - 2}!" if balanced else f"{2 * g - 5}!!")
        raise TreeError(f"genus {g} has {shown} {'balanced ' * balanced}trees, "
                        f"over the enumeration budget of {MAX_TREES}")


def _tree_count(g: int, balanced: bool) -> int | None:
    """The closed formula, (g-2)! balanced trees and (2g-5)!! in all, or None
    past _COUNT_SHOWN, where the product stops: no huge integer is built."""
    count = 1
    for factor in range(2, g - 1) if balanced else range(3, 2 * g - 4, 2):
        if (count := count * factor) > _COUNT_SHOWN:
            return None
    return count


def _splits(mask: int, balanced: bool, memo: dict[int, tuple[list[Masks], list[str]]],
            rank: Callable[[int], int]) -> tuple[list[Masks], list[str]]:
    """The canonical families and texts of the subtrees on the labels of
    `mask`, as parallel lists, one product of the parts' lists per split of
    _parts.  A family is `mask`, then its parts' families merged by `rank`,
    the _mask_key rank of a mask; a leaf's is ().  Equal masks are one int."""
    if (got := memo.get(mask)) is not None:
        return got
    families: list[Masks] = []
    texts: list[str] = []
    for first, last in _parts(mask, balanced):
        first_families, first_texts = _splits(first, balanced, memo, rank)
        last_families, last_texts = _splits(last, balanced, memo, rank)
        families += [(mask, *sorted(x + y, key=rank))
                     for x in first_families for y in last_families]
        texts += [f"({x},{y})" for x in first_texts for y in last_texts]
    memo[mask] = (families, texts)
    return families, texts


def _split_count(g: int, balanced: bool) -> int:
    """len(_tree_lists(g, balanced)[1]), refused alike, with no list built: the
    splits of _parts counted per label mask, smaller masks first."""
    _check_enumeration(g, balanced)
    count = dict.fromkeys((1 << x for x in range(1, g)), 1)  # the leaves
    for mask in range(2, 1 << g, 2):
        if mask not in count:
            count[mask] = sum(count[a] * count[b] for a, b in _parts(mask, balanced))
    return count[(1 << g) - 2]


def _parts(mask: int, balanced: bool) -> Iterator[tuple[int, int]]:
    """(first, last) child masks of each split of `mask` at a canonical node.
    B runs over the nonempty submasks of `rest` and A = mask ^ B keeps the
    lowest label, so each split is met once; the larger part goes first, A on
    a tie (the canonical key).  A balanced split puts the second-lowest in B."""
    rest = mask ^ (mask & -mask)
    second = rest & -rest
    sub = rest
    while sub:
        if not balanced or sub & second:
            a = mask ^ sub
            yield (a, sub) if a.bit_count() >= sub.bit_count() else (sub, a)
        sub = (sub - 1) & rest


def _build(masks: Masks) -> Tree:
    """The Tree of a canonical mask family; no checks."""
    tree = object.__new__(Tree)
    object.__setattr__(tree, "_masks", masks)
    object.__setattr__(tree, "genus", len(masks) + 2)
    return tree


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
    return _json_entry(t.genus, t._masks, t.render())


def _json_entry(g: int, masks: Masks, text: str) -> dict:
    return {"g": g, "newick": text, "nodes": [list(_bits(m)) for m in masks]}


def _json_listing(g: int, balanced: bool) -> Iterator[dict]:
    """tree_to_json of each genus-g tree, or balanced tree, in text order,
    made one at a time from the label-split lists; no Tree is built."""
    return (_json_entry(g, masks, text) for text, masks in _listing(g, balanced))
