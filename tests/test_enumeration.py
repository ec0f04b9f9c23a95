"""The direct canonical enumeration against the canonicalize-everything oracle."""

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidcycles.trees as trees_module
import tree_oracle
from braidcycles.decomposition import build_balanced_tree, k_sequences
from braidcycles.errors import TreeError
from braidcycles.rewrite import rotate, rotation_triple
from braidcycles.trees import (
    Tree,
    _build,
    _masks,
    descendant_sets,
    enumerate_balanced,
    enumerate_trees,
    is_balanced,
    parse_tree,
)


def internal_nodes(node):
    if not isinstance(node, int):
        yield node
        yield from internal_nodes(node[0])
        yield from internal_nodes(node[1])


def leaves(node):
    return (node,) if isinstance(node, int) else leaves(node[0]) + leaves(node[1])


def assert_validated_equal(t):
    checked = Tree(root=t.root, genus=t.genus)  # raises unless canonical
    assert checked == t
    assert hash(checked) == hash(t)


class TestAgainstOracle:
    @pytest.mark.parametrize("g", range(3, 9))
    def test_trees_equal_oracle(self, g):
        assert enumerate_trees(g) == tree_oracle.enumerate_trees(g)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_balanced_equal_filtered_trees(self, g):
        assert enumerate_balanced(g) == [t for t in enumerate_trees(g) if is_balanced(t)]

    def test_genus_9_texts_strictly_increase(self):
        texts = [t.render() for t in enumerate_trees(9)]
        assert len(texts) == 135135
        assert all(a < b for a, b in zip(texts, texts[1:]))

    def test_genus_9_balanced_equal_merge_construction(self):
        """The merge construction is an oracle independent of the splits."""
        built = sorted((build_balanced_tree(k) for k in k_sequences(9)), key=Tree.render)
        assert len(built) == 5040
        assert enumerate_balanced(9) == built

    @pytest.mark.parametrize("g", range(3, 8))
    def test_node_key_matches_sorted_tuple_key(self, g):
        for t in enumerate_trees(g):
            sets = descendant_sets(t)
            assert list(sets) == sorted(sets, key=tree_oracle.sorted_tuple_key)
            for a, b in internal_nodes(t.root):
                key_a = tree_oracle.sorted_tuple_key(leaves(a))
                assert key_a < tree_oracle.sorted_tuple_key(leaves(b))


class TestTrustedConstructor:
    @pytest.mark.parametrize("g", range(3, 8))
    def test_enumerated_trees(self, g):
        for t in enumerate_trees(g) + enumerate_balanced(g):
            assert_validated_equal(t)

    @pytest.mark.parametrize("g", range(4, 7))
    def test_rotations(self, g):
        for t in enumerate_trees(g):
            for v, s in enumerate(descendant_sets(t), start=1):
                if len(s) < 3:
                    continue
                for rotated in rotate(t, v):
                    assert_validated_equal(rotated)
                for ot in rotation_triple(t, v).trees:
                    assert_validated_equal(ot.tree)

    @pytest.mark.parametrize("g", range(3, 8))
    def test_construction(self, g):
        for k in k_sequences(g):
            assert_validated_equal(build_balanced_tree(k))

    @pytest.mark.parametrize("g", range(3, 9))
    def test_builder_from_family(self, g):
        for t in enumerate_trees(g):
            built = _build(_masks(descendant_sets(t)))
            assert built.root == t.root
            assert built == t
            assert hash(built) == hash(t)
            assert_validated_equal(built)


@st.composite
def labelled_shapes(draw):
    """A nested pair structure with 2..7 leaves drawn from 1..4, so labels
    may repeat."""
    nodes = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 7)))]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        nodes[i:i + 2] = [(nodes[i], nodes[i + 1])]
    return nodes[0]


class TestFromNodeValidation:
    @given(labelled_shapes())
    @example((((1, 2), 2), ((1, 1), 3)))  # equal (size, min); the full key swaps them
    @settings(max_examples=300)
    def test_same_outcome_as_full_key(self, node):
        """from_node accepts, or rejects with the same message, exactly as
        canonicalizing under the full lexicographic key would."""
        canonical, labels = tree_oracle.canonicalize(node)
        try:
            expected = Tree(root=canonical, genus=len(labels) + 1)
        except TreeError as exc:
            with pytest.raises(TreeError) as got:
                Tree.from_node(node)
            assert str(got.value) == str(exc)
        else:
            assert Tree.from_node(node) == expected


@pytest.fixture
def no_enumeration(monkeypatch):
    # the one split rule behind both the lists and the count
    def parts(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(trees_module, "_parts", parts)


def both_refused(g, balanced, message):
    """Listing and counting refuse `g` with the same message."""
    for request in (enumerate_balanced if balanced else enumerate_trees,
                    lambda g: trees_module._split_count(g, balanced)):
        with pytest.raises(TreeError, match=message):
            request(g)


class TestBudget:
    @pytest.mark.parametrize("g, balanced, count", (
        (11, False, 34_459_425),  # (2g-5)!!
        (12, True, 3_628_800),  # (g-2)!
        (15, False, 7_905_853_580_625),
    ))
    def test_refused_before_any_work(self, no_enumeration, g, balanced, count):
        message = (f"^genus {g} has {count} {'balanced ' * balanced}trees, "
                   f"over the enumeration budget of 2027025$")
        both_refused(g, balanced, message)

    @pytest.mark.parametrize("g, balanced, count", (
        (19, False, "33!!"),  # 33!! is about 6.3e18, past the 10^18 written in full
        (22, True, "20!"),
        (3000, False, "5995!!"),  # over 9,000 digits, more than int-to-str converts
        (3000, True, "2998!"),
        (10**6, False, "1999995!!"),
    ))
    def test_huge_genus_refused_with_formula(self, no_enumeration, g, balanced, count):
        message = (f"^genus {g} has {re.escape(count)} {'balanced ' * balanced}trees, "
                   f"over the enumeration budget of 2027025$")
        both_refused(g, balanced, message)

    @pytest.mark.parametrize("g, balanced, count", (
        (18, False, 191_898_783_962_510_625), (21, True, 121_645_100_408_832_000),
    ))
    def test_largest_counts_written_in_full(self, no_enumeration, g, balanced, count):
        assert count <= 10**18 < count * (g - 1 if balanced else 2 * g - 3)
        both_refused(g, balanced, f"^genus {g} has {count} ")

    @pytest.mark.parametrize("g, balanced", ((10, False), (11, True)))
    def test_largest_accepted_requests(self, monkeypatch, g, balanced):
        calls = []

        def splits(mask, split_balanced, memo, rank):
            calls.append((mask, split_balanced))
            return [], []

        monkeypatch.setattr(trees_module, "_splits", splits)
        assert trees_module._tree_lists(g, balanced) == ([], [])
        assert calls == [((1 << g) - 2, balanced)]

    @pytest.mark.parametrize("g", (2, 0, -5))
    def test_small_genus_message_unchanged(self, no_enumeration, g):
        for balanced in (False, True):
            both_refused(g, balanced, f"^genus must be at least 3, got {g}$")


class TestSplitLists:
    """_tree_lists holds each tree's canonical family and text, in split order."""

    @pytest.mark.parametrize("g", range(3, 9))
    @pytest.mark.parametrize("balanced", (False, True))
    def test_families_are_the_enumerated_ones(self, g, balanced):
        families, texts = trees_module._tree_lists(g, balanced)
        assert Counter(families) == Counter(
            t._masks for t in trees_module._enumerate(g, balanced))
        assert len(texts) == len(families)

    @pytest.mark.parametrize("g", range(3, 8))
    @pytest.mark.parametrize("balanced", (False, True))
    def test_each_text_parses_to_its_family(self, g, balanced):
        for family, text in zip(*trees_module._tree_lists(g, balanced)):
            assert parse_tree(text)._masks == family

    @pytest.mark.parametrize("enumerate_", (enumerate_trees, enumerate_balanced))
    def test_equal_masks_share_one_int(self, enumerate_):
        # CPython shares the ints up to 256 anyway; genus 9 has masks up to 510
        first = {}
        for t in enumerate_(9):
            for m in t._masks:
                assert first.setdefault(m, m) is m
        assert max(first) > 256


class TestSplitCount:
    """_split_count counts the splits _splits walks, with no list built."""

    @pytest.mark.parametrize("g", range(3, 10))
    @pytest.mark.parametrize("balanced", (False, True))
    def test_equals_the_lists(self, g, balanced):
        count = trees_module._split_count(g, balanced)
        assert count == len(trees_module._tree_lists(g, balanced)[1])

    @pytest.mark.parametrize("g", range(3, 11))
    @pytest.mark.parametrize("balanced", (False, True))
    def test_equals_the_formula(self, g, balanced):
        assert trees_module._split_count(g, balanced) == trees_module._tree_count(g, balanced)

    def test_largest_balanced_count(self):
        assert trees_module._split_count(11, True) == 362_880  # 9!
