"""Seeded uniform random trees by Rémy leaf insertion, and workload inputs.

A rooted full binary tree on leaves 1..m arises exactly once by attaching
leaf m above one of the 2m-3 nodes of a tree on leaves 1..m-1 (Rémy 1985,
RAIRO Inform. Théor. 19).  Choosing that node uniformly at every step makes
the result uniform over all (2g-5)!! trees of genus g.  Trees are emitted as
text with the children of every node in random order, so that the library's
parser has to canonicalize them.

This module is the benchmark's own code: it does not import the library.
"""

from __future__ import annotations

import array
import random
import sys
import zlib
from pathlib import Path

GENUS = {"query-det": 8, "query-rewrite": 9}

# support_g9.bin lists every genus-9 tree in order of rewriting cost; see
# load_support_table and make_support_table.py.
GENUS9_TREES = 135135
INDEX_BITS = 18
SUPPORT_TABLE = Path(__file__).resolve().parent / "support_g9.bin"


def tree_from_choices(genus: int, choices) -> list:
    """The tree built by inserting leaves 3..g-1 at the given node choices.

    Choice c for leaf m is in 0..2m-4: below 2m-4 it names a non-root node
    in insertion order, and 2m-4 means above the root.  The tree is nested
    two-element lists with int leaves.
    """
    root: list = [1, 2]
    # every node except the root, as (parent, child index)
    slots = [(root, 0), (root, 1)]
    for label, pick in zip(range(3, genus), choices):
        if pick == len(slots):
            root = [root, label]
            slots += [(root, 0), (root, 1)]
            continue
        parent, side = slots[pick]
        joined = [parent[side], label]
        parent[side] = joined
        slots += [(joined, 0), (joined, 1)]
    return root


def choices_at(genus: int, index: int) -> list[int]:
    """The index-th choice sequence in lexicographic order, 0 <= index < (2g-5)!!."""
    choices = []
    for m in reversed(range(3, genus)):
        index, pick = divmod(index, 2 * m - 3)
        choices.append(pick)
    if index:
        raise ValueError("tree index out of range")
    return choices[::-1]


def remy_tree(genus: int, rng: random.Random) -> list:
    """A uniform random tree of the given genus."""
    return tree_from_choices(genus, [rng.randrange(2 * m - 3) for m in range(3, genus)])


def shuffled_text(node, rng: random.Random) -> str:
    """Tree text with each node's two children in random order."""
    if isinstance(node, int):
        return str(node)
    a, b = node
    if rng.random() < 0.5:
        a, b = b, a
    return f"({shuffled_text(a, rng)},{shuffled_text(b, rng)})"


def load_support_table() -> list[int]:
    """Choice indices of all genus-9 trees in order of rewriting cost.

    support_g9.bin (see make_support_table.py) is zlib-compressed uint32s,
    one per tree, support << INDEX_BITS | index, sorted.  The support of a
    tree is the number of balanced trees with a nonzero coefficient in the
    decomposition of its cycle.
    """
    table = array.array("I")
    table.frombytes(zlib.decompress(SUPPORT_TABLE.read_bytes()))
    if sys.byteorder == "big":
        table.byteswap()
    mask = (1 << INDEX_BITS) - 1
    return [entry & mask for entry in table]


def stratified_trees(genus: int, ordered, rng: random.Random, block: int = 200):
    """Endless stream of uniform random trees, stratified by rewriting cost.

    `ordered` holds the choice index of every tree of the genus, in order
    of cost.  Rewriting cost spans three orders of magnitude, so a plain
    uniform stream lets a few costly trees swing a run's throughput from
    seed to seed.  Here every block of `block` trees covers the cost order
    evenly: position j of a block, taken in shuffled order, is the tree at
    the point (j + U)/block of the order, with U uniform in [0, 1).  Each
    tree is still uniform over all trees of the genus.
    """
    while True:
        positions = list(range(block))
        rng.shuffle(positions)
        for j in positions:
            place = int((j + rng.random()) / block * len(ordered))
            place = min(place, len(ordered) - 1)  # in case the product rounds up
            yield tree_from_choices(genus, choices_at(genus, ordered[place]))


def random_k(genus: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform index sequence (k_1..k_{g-2}) with 1 <= k_i <= i."""
    return tuple(rng.randint(1, i) for i in range(1, genus - 1))


def query_inputs(workload: str, seed: int, episode: int = 0):
    """Endless stream of (tree text, k) for a query workload, seed and episode."""
    rng = random.Random(f"{workload}:{seed}:{episode}")
    genus = GENUS[workload]
    if workload == "query-rewrite":
        trees = stratified_trees(genus, load_support_table(), rng)
    else:
        trees = iter(lambda: remy_tree(genus, rng), None)
    for tree in trees:
        yield shuffled_text(tree, rng), random_k(genus, rng)
