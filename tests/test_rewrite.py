import pytest

import braidcycles.decomposition as decomposition
import braidcycles.rewrite as rewrite_module
from braidcycles.decomposition import (
    decompose,
    det,
    epsilon,
    incidence_matrix,
    k_sequences,
)
from braidcycles.errors import DomainError
from braidcycles.rewrite import (
    OrderedTree,
    SignedTreeSum,
    find_unbalanced,
    is_cyclic_triple,
    reduce_to_balanced,
    rotate,
    rotation_triple,
    verify_cyclic_determinant_identity,
)
from braidcycles.trees import descendant_sets, enumerate_balanced, enumerate_trees, parse_tree


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
