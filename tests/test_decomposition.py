import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcycles.arnold import CohomologyClass, straighten, w, w_basis_index
from braidcycles.decomposition import (
    CycleDecomposition,
    _coordinates,
    balanced_tree_to_k,
    build_balanced_tree,
    construction_ordering,
    decompose,
    det,
    duality_table,
    epsilon,
    incidence_matrix,
    k_sequences,
    pair,
    pair_class,
    parity_between,
    perm_sign_of,
    unit_triangular_certificate,
    validate_k,
)
from braidcycles.errors import DomainError
from braidcycles.trees import (
    Tree,
    _insert_leaf,
    _node_count,
    descendant_sets,
    enumerate_balanced,
    enumerate_trees,
    is_balanced,
    parse_tree,
)


def det_by_permutation_expansion(matrix):
    """Independent oracle: sum over permutations with inversion-count signs."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += (-1) ** inversions * prod
    return total


def factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestKSequences:
    def test_g3(self):
        assert k_sequences(3) == [(1,)]

    def test_g4(self):
        assert k_sequences(4) == [(1, 1), (1, 2)]

    def test_g5_count(self):
        seqs = k_sequences(5)
        assert len(seqs) == 6
        assert seqs == sorted(seqs)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_count_factorial(self, g):
        assert len(k_sequences(g)) == factorial(g - 2)

    def test_g_too_small(self):
        with pytest.raises(DomainError):
            k_sequences(2)

    def test_validate_rejects(self):
        with pytest.raises(DomainError):
            validate_k((1, 3))
        with pytest.raises(DomainError):
            validate_k(())
        with pytest.raises(DomainError):
            validate_k((0,))


class TestConstruction:
    def test_g3(self):
        assert build_balanced_tree((1,)).render() == "(1,2)"

    def test_k11(self):
        assert build_balanced_tree((1, 1)).render() == "((1,3),2)"

    def test_k12(self):
        assert build_balanced_tree((1, 2)).render() == "((2,3),1)"

    @pytest.mark.parametrize("g", range(3, 8))
    def test_always_balanced_and_bijective(self, g):
        built = {build_balanced_tree(k) for k in k_sequences(g)}
        assert all(is_balanced(t) for t in built)
        assert built == set(enumerate_balanced(g))

    @pytest.mark.parametrize("g", range(3, 8))
    def test_round_trip(self, g):
        for k in k_sequences(g):
            assert balanced_tree_to_k(build_balanced_tree(k)) == k

    def test_inverse_examples(self):
        assert balanced_tree_to_k(parse_tree("((1,3),2)")) == (1, 1)
        assert balanced_tree_to_k(parse_tree("((2,3),1)")) == (1, 2)

    def test_inverse_rejects_unbalanced(self):
        with pytest.raises(DomainError):
            balanced_tree_to_k(parse_tree("((1,2),3)"))

    def test_construction_ordering_root_first(self):
        ordering = construction_ordering((1, 1, 2))
        assert ordering[0] == frozenset({1, 2, 3, 4})
        assert len(ordering[-1]) == 2  # first-created node pairs two leaves


class TestIncidenceMatrix:
    def test_g3(self):
        assert incidence_matrix((1,), parse_tree("(1,2)")) == ((1,),)

    def test_example_k11(self):
        assert incidence_matrix((1, 1), parse_tree("((1,2),3)")) == ((1, 1), (1, 0))

    def test_example_k12(self):
        assert incidence_matrix((1, 2), parse_tree("((2,3),1)")) == ((1, 0), (1, 1))

    def test_genus_mismatch(self):
        with pytest.raises(DomainError):
            incidence_matrix((1,), parse_tree("((1,2),3)"))

    def test_explicit_ordering_permutes_columns(self):
        t = parse_tree("((1,2),3)")
        reversed_sets = tuple(reversed(descendant_sets(t)))
        assert incidence_matrix((1, 1), t, ordering=reversed_sets) == ((1, 1), (0, 1))

    def test_bad_ordering_rejected(self):
        t = parse_tree("((1,2),3)")
        with pytest.raises(DomainError):
            incidence_matrix((1, 1), t, ordering=(frozenset({1, 2, 3}), frozenset({2, 3})))

    def test_root_column_all_ones(self):
        for t in enumerate_trees(5):
            for k in k_sequences(5):
                assert all(row[0] == 1 for row in incidence_matrix(k, t))


class TestDet:
    def test_2x2(self):
        assert det([[1, 1], [1, 0]]) == -1

    def test_identity(self):
        assert det([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 1

    def test_proportional_columns(self):
        assert det([[1, 0], [1, 0]]) == 0

    def test_non_square(self):
        with pytest.raises(DomainError):
            det([[1, 2]])

    def test_bareiss_path_vs_oracle(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(5, 7)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert det(m) == det_by_permutation_expansion(m)

    def test_cofactor_path_vs_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert det(m) == det_by_permutation_expansion(m)

    @pytest.mark.parametrize("g", range(3, 6))
    def test_all_arising_matrices_match_oracle(self, g):
        for t in enumerate_trees(g):
            for k in k_sequences(g):
                m = incidence_matrix(k, t)
                assert det(m) == det_by_permutation_expansion(m)


@st.composite
def trees(draw, max_genus=8):
    """A tree of genus 3..max_genus, built by attaching leaves 3, 4, ... at
    drawn preorder nodes."""
    g = draw(st.integers(3, max_genus))
    node = (1, 2)
    for label in range(3, g):
        node = _insert_leaf(node, draw(st.integers(0, _node_count(node) - 1)), label)[0]
    return Tree.from_node(node)


@st.composite
def tree_and_k(draw, max_genus=8):
    t = draw(trees(max_genus))
    k = tuple(draw(st.integers(1, i)) for i in range(1, t.genus - 1))
    return t, k


class TestCoordinateKernel:
    """The LCA sign kernel against the permutation-expansion determinant."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_coordinate_vs_oracle(self, data):
        t, k = data.draw(tree_and_k())
        ordering = data.draw(st.none() | st.permutations(descendant_sets(t)))
        expected = det_by_permutation_expansion(incidence_matrix(k, t, ordering=ordering))
        assert _coordinates(t, ordering).get(k, 0) == expected
        assert _coordinates(t, ordering, k=k) == ({k: expected} if expected else {})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_support_vs_oracle(self, data):
        # every k up to genus 6; above it, every k the kernel reports
        t = data.draw(trees())
        ordering = data.draw(st.none() | st.permutations(descendant_sets(t)))
        coords = _coordinates(t, ordering)
        for k in k_sequences(t.genus) if t.genus <= 6 else list(coords):
            expected = det_by_permutation_expansion(incidence_matrix(k, t, ordering=ordering))
            assert coords.get(k, 0) == expected
        assert set(coords.values()) <= {-1, 1}


class TestPair:
    def test_g3(self):
        assert pair((1,), parse_tree("(1,2)")) == 1

    def test_diagonal_with_sign(self):
        assert pair((1, 1), parse_tree("((1,3),2)")) == -1

    def test_vanishing(self):
        assert pair((1, 2), parse_tree("((1,3),2)")) == 0

    def test_genus_mismatch(self):
        with pytest.raises(DomainError):
            pair((1, 2, 1), parse_tree("(1,2)"))


class TestPairClass:
    def test_basis_monomial_reduces_to_pair(self):
        c = CohomologyClass.from_dict(3, {w_basis_index((1, 1)): 1})
        assert pair_class(c, parse_tree("((1,3),2)")) == -1

    def test_zero_class(self):
        assert pair_class(CohomologyClass.zero(3), parse_tree("((1,2),3)")) == 0

    def test_bilinearity(self):
        t = parse_tree("((1,2),3)")
        c = CohomologyClass.from_dict(
            3, {w_basis_index((1, 1)): 1, w_basis_index((1, 2)): 1})
        assert pair_class(c, t) == pair((1, 1), t) + pair((1, 2), t)

    def test_non_admissible_input_is_straightened_first(self):
        t = parse_tree("((1,3),2)")
        c = straighten(3, [w(1, 3), w(2, 3)])  # = w(1,2)w(2,3) - w(1,2)w(1,3)
        assert pair_class(c, t) == pair((1, 2), t) - pair((1, 1), t)

    def test_wrong_strand_count(self):
        with pytest.raises(DomainError):
            pair_class(CohomologyClass.unit(4), parse_tree("(1,2)"))

    def test_wrong_degree(self):
        with pytest.raises(DomainError):
            pair_class(CohomologyClass.unit(3), parse_tree("((1,2),3)"))

    @pytest.mark.parametrize("g", (4, 5))
    def test_matches_pair_on_every_basis_element(self, g):
        for t in enumerate_trees(g):
            for k in k_sequences(g):
                c = CohomologyClass.from_dict(g - 1, {w_basis_index(k): 1})
                assert pair_class(c, t) == pair(k, t)


class TestDecompose:
    def test_g3(self):
        assert decompose(parse_tree("(1,2)")).as_dict() == {(1,): 1}

    def test_balanced_tree_single_term(self):
        assert decompose(parse_tree("((1,3),2)")).as_dict() == {(1, 1): 1}

    def test_worked_example(self):
        assert decompose(parse_tree("((1,2),3)")).as_dict() == {(1, 1): -1, (1, 2): -1}

    def test_json_sorted(self):
        d = decompose(parse_tree("((1,2),3)"))
        assert d.to_json() == {
            "g": 4,
            "basis": "balanced-construction",
            "terms": [{"k": [1, 1], "coeff": -1}, {"k": [1, 2], "coeff": -1}],
        }

    @pytest.mark.parametrize("g", range(3, 7))
    def test_consistency_with_pair(self, g):
        sign = -1 if ((g - 2) * (g - 3) // 2) % 2 else 1
        for t in enumerate_trees(g):
            coeffs = decompose(t).as_dict()
            for k in k_sequences(g):
                assert pair(k, t) == sign * coeffs.get(k, 0)

    @pytest.mark.parametrize("g", range(3, 7))
    def test_balanced_trees_have_unit_support(self, g):
        for k in k_sequences(g):
            d = decompose(build_balanced_tree(k)).as_dict()
            assert d == {k: epsilon(k)}
            assert d[k] in (-1, 1)

    def test_from_dict_drops_zeros(self):
        d = CycleDecomposition.from_dict(4, {(1, 1): 0, (1, 2): 3})
        assert d.as_dict() == {(1, 2): 3}


class TestDuality:
    def test_g3(self):
        assert duality_table(3) == [[1]]

    def test_g4_identity(self):
        assert duality_table(4) == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("g", range(3, 7))
    def test_diagonal_with_epsilon(self, g):
        ks = k_sequences(g)
        table = duality_table(g)
        for r, kp in enumerate(ks):
            for c, k in enumerate(ks):
                if r == c:
                    assert table[r][c] == epsilon(k)
                    assert table[r][c] in (-1, 1)
                else:
                    assert table[r][c] == 0

    @pytest.mark.parametrize("g", range(3, 8))
    def test_construction_ordering_unitriangular(self, g):
        for k in k_sequences(g):
            m = unit_triangular_certificate(k)
            size = len(m)
            for i in range(size):
                assert m[i][i] == 1
                for j in range(i + 1, size):
                    assert m[i][j] == 0
            assert det(m) == 1


class TestParity:
    def test_perm_sign(self):
        assert perm_sign_of([0, 1, 2]) == 1
        assert perm_sign_of([1, 0, 2]) == -1
        assert perm_sign_of([2, 0, 1]) == 1

    def test_parity_between(self):
        a = (frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4}))
        b = (frozenset({1, 2, 3, 4}), frozenset({3, 4}), frozenset({1, 2}))
        assert parity_between(a, b) == -1
        assert parity_between(a, a) == 1

    def test_parity_requires_same_sets(self):
        with pytest.raises(DomainError):
            parity_between((frozenset({1, 2}),), (frozenset({1, 3}),))

    @pytest.mark.parametrize("g", range(3, 7))
    def test_epsilon_is_table_diagonal(self, g):
        table = duality_table(g)
        for idx, k in enumerate(k_sequences(g)):
            assert epsilon(k) == table[idx][idx]
