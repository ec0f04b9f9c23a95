import random

import pytest

import rotation_oracle
import braidcycles.decomposition as decomposition
import braidcycles.rewrite as rewrite_module
from braidcycles.decomposition import (
    balanced_tree_to_k,
    decompose,
    det,
    epsilon,
    incidence_matrix,
    k_sequences,
)
from braidcycles import verify_cyclic_determinant_identity
from braidcycles.errors import DomainError, RewriteBudgetError
from braidcycles.rewrite import (
    OrderedTree,
    SignedTreeSum,
    find_unbalanced,
    is_cyclic_triple,
    reduce_to_balanced,
    rotate,
    rotation_triple,
)
from braidcycles.trees import (_family, _labels, _masks, descendant_sets, enumerate_balanced,
                               enumerate_trees, parse_tree)


def eligible_nodes(t):
    """Positions with an internal child, i.e. descendant sets of size >= 3."""
    return [pos for pos, s in enumerate(descendant_sets(t), start=1) if len(s) >= 3]


class TestRotate:
    def test_g4_root(self):
        got = {t.render() for t in rotate(parse_tree("((1,2),3)"), 1)}
        assert got == {"((1,3),2)", "((2,3),1)"}

    def test_g5_root(self):
        got = {t.render() for t in rotate(parse_tree("(((1,2),3),4)"), 1)}
        assert got == {"(((1,2),4),3)", "((1,2),(3,4))"}

    def test_two_leaf_children(self):
        with pytest.raises(DomainError, match="two leaf children"):
            rotate(parse_tree("(1,2)"), 1)

    def test_invalid_node(self):
        with pytest.raises(DomainError, match="out of range"):
            rotate(parse_tree("((1,2),3)"), 3)

    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_outputs_form_cyclic_triple(self, g):
        for t in enumerate_trees(g):
            for v in eligible_nodes(t):
                prime, double = rotate(t, v)
                assert len({t, prime, double}) == 3
                assert is_cyclic_triple(t, prime, double) is not None

    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_involution_on_first_output(self, g):
        for t in enumerate_trees(g):
            for v in eligible_nodes(t):
                prime = rotate(t, v)[0]
                v_set = descendant_sets(t)[v - 1]
                v_in_prime = descendant_sets(prime).index(v_set) + 1
                assert t in rotate(prime, v_in_prime)


class TestAgainstRotationOracle:
    """The rotation on node-set families against the walk over nested tuples."""

    @pytest.mark.parametrize("g", range(4, 8))
    def test_every_eligible_node(self, g):
        for t in enumerate_trees(g):
            for v in eligible_nodes(t):
                trees, orderings, blocks, s, pos = rotation_oracle.rotation_triple(t, v)
                triple = rotation_triple(t, v)
                assert tuple(ot.tree for ot in triple.trees) == trees
                assert tuple(ot.ordering for ot in triple.trees) == orderings
                assert (triple.blocks, triple.s, triple.t) == (blocks, s, pos)


class TestCyclicTriple:
    def test_g4_witness(self):
        triple = is_cyclic_triple(
            parse_tree("((1,2),3)"), parse_tree("((1,3),2)"), parse_tree("((2,3),1)"))
        assert triple is not None
        assert set(triple.blocks) == {frozenset({1}), frozenset({2}), frozenset({3})}
        assert triple.s == 2
        assert triple.t == 1
        b1, b2, b3 = triple.blocks
        sets = [ot.ordering[triple.s - 1] for ot in triple.trees]
        assert sets == [b2 | b3, b3 | b1, b1 | b2]

    def test_identical_trees(self):
        t = parse_tree("((1,2),3)")
        assert is_cyclic_triple(t, t, t) is None

    def test_two_copies(self):
        t1 = parse_tree("((1,2),3)")
        t2 = parse_tree("((1,3),2)")
        assert is_cyclic_triple(t1, t1, t2) is None

    def test_trees_differing_in_two_nodes(self):
        t1 = parse_tree("(((1,2),3),4)")
        t2 = parse_tree("(((1,4),3),2)")
        t3 = parse_tree("(((2,3),4),1)")
        assert is_cyclic_triple(t1, t2, t3) is None

    def test_genus_mismatch(self):
        with pytest.raises(DomainError):
            is_cyclic_triple(parse_tree("(1,2)"), parse_tree("(1,2)"), parse_tree("((1,2),3)"))

    def test_symmetric_in_arguments(self):
        t1 = parse_tree("((1,2),3)")
        t2 = parse_tree("((1,3),2)")
        t3 = parse_tree("((2,3),1)")
        for a, b, c in ((t1, t2, t3), (t2, t3, t1), (t3, t1, t2), (t2, t1, t3)):
            triple = is_cyclic_triple(a, b, c)
            assert triple is not None
            assert set(triple.blocks) == {frozenset({1}), frozenset({2}), frozenset({3})}


class TestOnFamilies:
    """The mask-family forms that verify_relations runs on, against the
    frozenset forms of the public functions and the rotation oracle."""

    @pytest.mark.parametrize("g", range(4, 8))
    def test_replaced_sign_is_ordering_parity(self, g):
        for t in enumerate_trees(g):
            family = _family(t)
            for v in eligible_nodes(t):
                i, u1, u2, v2 = rewrite_module._rotation(family, v)
                signs = [1] + [rewrite_module._replaced(family, i, new)[1]
                               for new in (u1 | v2, v2 | u2)]
                assert signs == [ot.parity() for ot in rotation_triple(t, v).trees]

    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_cyclic_blocks_on_every_rotation_triple(self, g):
        for t in enumerate_trees(g):
            for v in eligible_nodes(t):
                trees, orderings, blocks, s, _ = rotation_oracle.rotation_triple(t, v)
                b1, b2, b3 = rewrite_module._cyclic_blocks(*map(_family, trees))
                assert tuple(map(_labels, (b1, b2, b3))) == blocks
                changed = tuple(map(_labels, (b2 | b3, b3 | b1, b1 | b2)))
                assert changed == tuple(o[s - 1] for o in orderings)
                triple = is_cyclic_triple(*trees)
                assert (triple.blocks, triple.s) == (blocks, s)

    @pytest.mark.parametrize("texts", (
        ("((1,2),3)",) * 3,
        ("((1,2),3)", "((1,2),3)", "((1,3),2)"),
        ("(((1,2),3),4)", "(((1,4),3),2)", "(((2,3),4),1)"),
    ), ids=("identical", "two-copies", "two-nodes"))
    def test_cyclic_blocks_rejects_what_is_cyclic_triple_rejects(self, texts):
        trees = [parse_tree(text) for text in texts]
        assert is_cyclic_triple(*trees) is None
        assert rewrite_module._cyclic_blocks(*map(_family, trees)) is None

    @pytest.mark.parametrize("families", (
        # d1, d2, d3 are the pairwise unions of blocks 10010, 01010, 00110 (sharing bit 1)
        ((0b11110, 0b01110), (0b11110, 0b10110), (0b11110, 0b11010)),
        # disjoint blocks 0010, 0100, 1000 whose union 1110 is in no family
        ((0b01100,), (0b01010,), (0b00110,)),
    ), ids=("overlapping-blocks", "union-not-common"))
    def test_cyclic_blocks_rejects_crafted_families(self, families):
        """Families of no real trees, each caught by one check alone."""
        assert rewrite_module._cyclic_blocks(*families) is None


class TestDeterminantIdentity:
    def test_g4_det_vectors(self):
        triple = rotation_triple(parse_tree("((1,2),3)"), 1)
        vectors = [
            tuple(det(incidence_matrix(k, ot.tree, ordering=ot.ordering))
                  for k in k_sequences(4))
            for ot in triple.trees
        ]
        assert vectors == [(-1, -1), (1, 0), (0, 1)]
        assert verify_cyclic_determinant_identity(triple)

    @pytest.mark.parametrize("g", (4, 5))
    def test_all_rotation_triples(self, g):
        for t in enumerate_trees(g):
            for v in eligible_nodes(t):
                triple = rotation_triple(t, v)
                assert is_cyclic_triple(*[ot.tree for ot in triple.trees]) is not None
                assert verify_cyclic_determinant_identity(triple)

    def test_rewrite_module_has_no_determinant_names(self):
        # the rewriting route stays independent of the determinant route
        names = vars(rewrite_module)
        for name in ("det", "incidence_matrix", "k_sequences", "_coordinates",
                     "verify_cyclic_determinant_identity"):
            assert name not in names


class TestFindUnbalanced:
    def test_g4(self):
        assert find_unbalanced(parse_tree("((1,2),3)")) == 1

    def test_balanced_none(self):
        for t in enumerate_balanced(5):
            assert find_unbalanced(t) is None

    def test_deepest_wins(self):
        # nodes {1,2,3,4} and {1,2,3} are unbalanced; {1,2} is balanced
        assert find_unbalanced(parse_tree("(((1,2),3),4)")) == 2

    def test_rotation_available_at_result(self):
        for t in enumerate_trees(6):
            v = find_unbalanced(t)
            if v is not None:
                rotate(t, v)  # must not raise


class TestOnePassSearch:
    """_scan's backward pass against the quadratic definition and the forward
    child scans kept in rotation_oracle."""

    @pytest.mark.parametrize("g", range(3, 9))
    def test_matches_quadratic_definition(self, g):
        for t in enumerate_trees(g):
            family = _family(t)
            v = rotation_oracle.deepest_unbalanced(family)
            firsts, found = rewrite_module._scan(family)
            assert find_unbalanced(t) == found == v
            if v is not None:
                # the rotation the engine takes, from the pass's own children
                taken = rewrite_module._rotation(family, v, firsts)
                assert taken == rewrite_module._rotation(family, v)
                assert taken == rotation_oracle.rotation(family, v)

    @pytest.mark.parametrize("g", range(4, 9))
    def test_rotation_matches_forward_child_scans(self, g):
        for t in enumerate_trees(g):
            family = _family(t)
            for v in eligible_nodes(t):
                assert rewrite_module._rotation(family, v) == rotation_oracle.rotation(family, v)

    def test_smallest_position_on_ties(self):
        # {1,2,3} at position 2 and {4,5,6} at position 3 are both unbalanced at depth 1
        t = parse_tree("(((1,2),3),((4,5),6))")
        assert rotation_oracle.deepest_unbalanced(_family(t)) == 2
        assert find_unbalanced(t) == 2


class TestSignedMemo:
    """_reduce's (sign, coords) memo entries against the unsigned recursion
    in rotation_oracle, on an empty, a filling and a warm shared memo."""

    @pytest.mark.parametrize("g", (3, 4, 5, 6, 7, 9))
    def test_matches_unsigned_recursion(self, g, monkeypatch):
        if g == 9:
            rng = random.Random(9)
            trees = [rotation_oracle.remy_tree(9, rng) for _ in range(300)]
        else:
            trees = enumerate_trees(g)
        oracle_memo = {}
        expected = [rotation_oracle.reduce_unsigned(_family(t), oracle_memo) for t in trees]
        monkeypatch.setattr(rewrite_module, "_SHARED_MEMO", {})
        for state in ("emptied", "filling", "warm"):
            for t, want in zip(trees, expected):
                if state == "emptied":
                    rewrite_module._SHARED_MEMO.clear()
                got = rewrite_module._reduce(t)
                assert got == want, (state, t.render())
                assert 0 not in got.values()

    def test_cancelled_keys_are_deleted(self, monkeypatch):
        # no reduction of genus <= 8 cancels a coordinate, so two memo entries
        # are planted whose merge does: the key must go, not stay as 0
        t = parse_tree("(((1,2),3),4)")
        family = _family(t)
        i, u1, u2, v2 = rewrite_module._rotation(family, find_unbalanced(t))
        (family_a, sigma_a), (family_b, sigma_b) = (rewrite_module._replaced(family, i, new)
                                                    for new in (u1 | v2, v2 | u2))
        a = {(1, 1, 1): 2, (1, 1, 2): 3}
        b = {(1, 1, 1): 2}
        sign_b = -sigma_a * sigma_b  # -sigma_a * a and -sigma_b * sign_b * b cancel at (1, 1, 1)
        planted = {family_a: (1, a), family_b: (sign_b, b)}
        monkeypatch.setattr(rewrite_module, "_SHARED_MEMO", planted)
        assert rewrite_module._reduce(t) == {(1, 1, 2): -sigma_a * 3}
        assert (a, b) == ({(1, 1, 1): 2, (1, 1, 2): 3}, {(1, 1, 1): 2})

    def test_negative_top_sign_mutates_no_memo_entry(self, monkeypatch):
        monkeypatch.setattr(rewrite_module, "_SHARED_MEMO", {})
        memo = rewrite_module._SHARED_MEMO

        def top_sign(t):
            rewrite_module._reduce(t)
            return memo[_family(t)][0]

        t = next(t for t in enumerate_trees(6) if top_sign(t) == -1)
        before = {family: (sign, dict(coords)) for family, (sign, coords) in memo.items()}
        first = rewrite_module._reduce(t)
        second = rewrite_module._reduce(t)
        assert first == second == rotation_oracle.reduce_unsigned(_family(t), {})
        assert first is not memo[_family(t)][1]
        assert {family: (sign, dict(coords)) for family, (sign, coords) in memo.items()} == before


class TestReduce:
    def test_balanced_identity(self):
        t = parse_tree("((1,3),2)")
        assert reduce_to_balanced(t).as_dict() == {t: 1}

    def test_g4_example(self):
        got = reduce_to_balanced(parse_tree("((1,2),3)"))
        assert {t.render(): c for t, c in got.terms} == {"((1,3),2)": -1, "((2,3),1)": -1}

    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_cross_path_equality(self, g):
        for t in enumerate_trees(g):
            assert reduce_to_balanced(t).to_decomposition() == decompose(t)

    def test_independent_of_coordinate_kernel(self, monkeypatch):
        trees = enumerate_trees(6)
        expected = [decompose(t) for t in trees]

        def kernel_called(*args, **kwargs):
            raise AssertionError("the rewriting route called the coordinate kernel")

        monkeypatch.setattr(decomposition, "_coordinates", kernel_called)
        # an empty shared memo, so that every rotation is made again here
        monkeypatch.setattr(rewrite_module, "_SHARED_MEMO", {})
        assert not hasattr(rewrite_module, "_coordinates")
        for t, want in zip(trees, expected):
            assert reduce_to_balanced(t).to_decomposition() == want

    def test_trace_records_rotations(self):
        events = []
        t = parse_tree("(((1,2),3),4)")
        reduce_to_balanced(t, trace=events.append)
        assert events, "expected at least one rotation"
        assert events[0]["triple"][0] == t.render()
        assert set(events[0]) == {"at", "triple"}

    def test_step_limit(self):
        with pytest.raises(RuntimeError, match="budget"):
            reduce_to_balanced(parse_tree("((1,2),3)"), step_limit=0)

    def test_budget_error_is_typed(self):
        with pytest.raises(RewriteBudgetError) as info:
            reduce_to_balanced(parse_tree("((1,2),3)"), step_limit=0)
        assert isinstance(info.value, DomainError)
        assert isinstance(info.value, RuntimeError)

    def test_json_sorted_by_tree(self):
        s = reduce_to_balanced(parse_tree("((1,2),3)"))
        strings = [term["tree"] for term in s.to_json()["terms"]]
        assert strings == sorted(strings)

    def test_sum_rejects_unbalanced_terms(self):
        with pytest.raises(DomainError):
            SignedTreeSum.from_dict(4, {parse_tree("((1,2),3)"): 1})

    def test_terminates_at_g7_exhaustive(self):
        for t in enumerate_trees(7):
            s = reduce_to_balanced(t)
            assert all(c != 0 for _, c in s.terms)

    def test_terminates_at_g8_sampled(self):
        import random

        trees = enumerate_trees(8)
        rng = random.Random(0)
        for t in rng.sample(trees, 200):
            reduce_to_balanced(t)  # must come back within the 3^g ceiling

    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_balanced_sum_converts_with_epsilon(self, g):
        for k in k_sequences(g):
            from braidcycles.decomposition import build_balanced_tree
            tree = build_balanced_tree(k)
            s = SignedTreeSum.from_dict(g, {tree: 1})
            assert s.to_decomposition().as_dict() == {k: epsilon(k)}


class TestOrderedTree:
    def test_parity_of_canonical(self):
        ot = OrderedTree.canonical(parse_tree("((1,2),(3,4))"))
        assert ot.parity() == 1

    def test_parity_of_swap(self):
        t = parse_tree("((1,2),(3,4))")
        sets = descendant_sets(t)
        swapped = (sets[0], sets[2], sets[1])
        assert OrderedTree(tree=t, ordering=swapped).parity() == -1

    def test_rejects_wrong_sets(self):
        t = parse_tree("((1,2),3)")
        with pytest.raises(DomainError):
            OrderedTree(tree=t, ordering=(frozenset({1, 2, 3}), frozenset({2, 3})))

    @pytest.mark.parametrize("g", range(4, 8))
    def test_trusted_orderings_pass_validation(self, g):
        # rotation_triple and is_cyclic_triple skip the permutation check;
        # the validating constructor must accept what they build
        for t in enumerate_trees(g):
            for v in eligible_nodes(t):
                triple = rotation_triple(t, v)
                matched = is_cyclic_triple(*(ot.tree for ot in triple.trees))
                for ot in triple.trees + matched.trees:
                    assert ot == OrderedTree(tree=ot.tree, ordering=ot.ordering)


class TestIndexSequences:
    """The engine's coordinates {k: coeff * epsilon(k)} against the walk over
    each returned term (balanced_tree_to_k, epsilon) and the determinant route."""

    @pytest.mark.parametrize("g", range(3, 10))
    def test_k_and_epsilon_read_from_balanced_family(self, g):
        for b in enumerate_balanced(g):
            k = balanced_tree_to_k(b)
            assert rewrite_module._balanced_k(_masks(descendant_sets(b))) == (k, epsilon(k))

    @pytest.mark.parametrize("g", range(3, 10))
    def test_term_cache_matches_construction(self, g):
        for b in enumerate_balanced(g):
            k = balanced_tree_to_k(b)
            assert rewrite_module._balanced_term(k) == (b.render(), b, epsilon(k))

    @pytest.mark.parametrize("mode", ("shared-memo", "trace", "step-limit"))
    @pytest.mark.parametrize("g", range(3, 8))
    def test_carried_coordinates_match_term_walk(self, g, mode):
        options = {"shared-memo": {}, "trace": {"trace": lambda event: None},
                   "step-limit": {"step_limit": 3 ** g}}[mode]
        for t in enumerate_trees(g):
            engine = reduce_to_balanced(t, **options)
            by_hand = SignedTreeSum(t.genus, engine.terms)
            via_det = decompose(t)
            assert engine.to_decomposition() == by_hand.to_decomposition() == via_det
            assert engine == by_hand == SignedTreeSum.from_dict(t.genus, engine.as_dict())

    def test_carried_coordinates_take_no_part_in_identity(self):
        t = parse_tree("(((1,2),3),(4,5))")
        engine = reduce_to_balanced(t)
        by_hand = SignedTreeSum(t.genus, engine.terms)
        assert engine == by_hand
        assert hash(engine) == hash(by_hand)
        assert repr(engine) == repr(by_hand)
        assert "_by_k" not in repr(engine)

    def test_term_cache_is_bounded(self):
        assert rewrite_module._balanced_term.cache_info().maxsize == 2**15
