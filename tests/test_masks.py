"""The int-bitmask form of canonical node-set families against frozensets.

The builder, the merge construction, the rewriting engine, the coordinate
kernel and `descendant_sets` hold a family as int bitmasks, bit x for label x,
ordered by (-popcount, lowest set bit).  The oracles here are test-local: the
frozenset key, a walk that collects frozensets, depths and balance flags from
nested pairs, and a merge construction over frozensets and nested pairs.
"""

import itertools
import random

import pytest

from braidcycles.decomposition import (
    _construct,
    _merge,
    build_balanced_tree,
    construction_ordering,
    epsilon,
    k_sequences,
    parity_between,
)
from braidcycles.trees import (
    Tree,
    _labels,
    _mask_key,
    _masks,
    balance_report,
    descendant_sets,
    enumerate_trees,
    is_balanced,
    node_depths,
)


def _set_sort_key(s):
    """Canonical key of a descendant set: size descending, then smallest label."""
    return (-len(s), min(s))


def walk_report(t):
    """(descendant set, depth, balanced) per internal node in canonical order,
    collected by walking the nested pairs of the root."""
    report = []

    def walk(node, depth):
        if isinstance(node, int):
            return frozenset((node,))
        a, b = walk(node[0], depth + 1), walk(node[1], depth + 1)
        lo, second = sorted(a | b)[:2]
        report.append((a | b, depth, (lo in a) != (second in a)))
        return a | b

    walk(t.root, 0)
    return sorted(report, key=lambda entry: _set_sort_key(entry[0]))


def frozenset_construction(k):
    """(tree, construction ordering, parity) of k: the merge construction run
    on frozensets, its tree canonicalized from nested pairs by Tree.from_node."""
    set_of = {lab: frozenset((lab,)) for lab in range(1, len(k) + 2)}
    node_of = {lab: lab for lab in set_of}
    created = []
    for i in range(len(k), 0, -1):
        a = k[i - 1]
        set_of[a] = set_of[a] | set_of.pop(i + 1)
        node_of[a] = (node_of[a], node_of.pop(i + 1))
        created.append(set_of[a])
    tree = Tree.from_node(node_of[1])
    ordering = tuple(reversed(created))
    return tree, ordering, parity_between(descendant_sets(tree), ordering)


class TestMaskFamilies:
    @pytest.mark.parametrize("g", range(3, 9))
    def test_key_orders_as_set_key(self, g):
        rng = random.Random(g)
        for t in enumerate_trees(g):
            sets = descendant_sets(t)
            masks = _masks(sets)
            assert sorted(sets, key=_set_sort_key) == list(sets)
            assert sorted(masks, key=_mask_key) == list(masks)
            shuffled = list(masks)
            rng.shuffle(shuffled)
            assert sorted(shuffled, key=_mask_key) == list(masks)
            for (a, ma), (b, mb) in itertools.combinations(zip(sets, masks), 2):
                assert (_mask_key(ma) < _mask_key(mb)) == (_set_sort_key(a) < _set_sort_key(b))

    @pytest.mark.parametrize("g", range(3, 9))
    def test_family_reports_match_walk(self, g):
        for t in enumerate_trees(g):
            sets, depths, flags = zip(*walk_report(t))
            assert descendant_sets(t) == sets
            assert node_depths(t) == depths
            assert balance_report(t) == flags
            assert is_balanced(t) == all(flags)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_masks_convert_back_to_sets(self, g):
        for t in enumerate_trees(g):
            sets = descendant_sets(t)
            masks = _masks(sets)
            assert all(m == sum(1 << x for x in s) for s, m in zip(sets, masks))
            assert tuple(map(_labels, masks)) == sets


class TestMaskConstruction:
    @pytest.mark.parametrize("g", range(3, 9))
    def test_construction_matches_frozenset_oracle(self, g):
        for k in k_sequences(g):
            family, ordering = _merge(k)
            tree, parity = _construct(k)
            want_tree, want_ordering, want_parity = frozenset_construction(k)
            assert family == want_tree._masks
            assert tree == want_tree
            assert hash(tree) == hash(want_tree)
            assert tuple(map(_labels, ordering)) == want_ordering
            assert parity == want_parity
            assert build_balanced_tree(k) == want_tree
            assert construction_ordering(k) == want_ordering
            assert epsilon(k) == want_parity
