"""Build support_g9.bin, the genus-9 trees in order of rewriting cost.

The rewriting cost of a tree follows the support of its cycle decomposition
(the number of balanced trees with a nonzero coefficient): on 2,600 random
genus-9 trees, log latency and log support correlate at 0.98.  This script
computes the support of all 135,135 genus-9 trees with the library and
writes one little-endian uint32 per tree, sorted and zlib-compressed:
support << 18 | index, where index is the tree's Rémy choice index
(remy.choices_at).  remy.py draws query-rewrite's trees by position in this
order.

    python3 perfbench/make_support_table.py       # about 15 minutes, 2 processes

The table is an input of the benchmark, like its seeds: a faster library does
not change it.  Rebuild it only if the class of costly trees is redefined.
"""

from __future__ import annotations

import array
import multiprocessing
import random
import sys
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import braidcycles as bc  # noqa: E402
from remy import (GENUS9_TREES, INDEX_BITS, SUPPORT_TABLE, choices_at,  # noqa: E402
                  shuffled_text, tree_from_choices)

CHUNK = 500


def supports(start: int) -> list[int]:
    """Table entries of the trees with index in start..start+CHUNK-1."""
    rng = random.Random(0)
    entries = []
    for index in range(start, min(start + CHUNK, GENUS9_TREES)):
        tree = tree_from_choices(9, choices_at(9, index))
        terms = bc.reduce_to_balanced(bc.parse_tree(shuffled_text(tree, rng))).terms
        entries.append(len(terms) << INDEX_BITS | index)
    for module in ("braidcycles.trees", "braidcycles.rewrite", "braidcycles.decomposition"):
        for value in vars(sys.modules[module]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    return entries


def main() -> int:
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        parts = pool.imap_unordered(supports, range(0, GENUS9_TREES, CHUNK))
        entries = sorted(entry for part in parts for entry in part)
    table = array.array("I", entries)
    if sys.byteorder == "big":
        table.byteswap()
    SUPPORT_TABLE.write_bytes(zlib.compress(table.tobytes(), 9))
    print(f"{len(entries)} trees written to {SUPPORT_TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
