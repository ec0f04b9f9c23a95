import copy
import itertools
import math
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidcycles.decomposition as decomposition
from braidcycles.arnold import CohomologyClass, straighten, w, w_basis_index
from braidcycles.decomposition import (
    CycleDecomposition,
    _coordinate,
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
from braidcycles import rewrite
from braidcycles.errors import DomainError
from braidcycles.rewrite import SignedTreeSum, reduce_to_balanced
from braidcycles.trees import (
    Tree,
    descendant_sets,
    enumerate_balanced,
    enumerate_trees,
    is_balanced,
    parse_tree,
)
import coordinate_oracle
from rotation_oracle import remy_tree
from tree_oracle import insert_leaf, node_count


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

    @pytest.mark.parametrize("g", range(3, 8))
    def test_inverse_rejects_exactly_unbalanced(self, g):
        for t in enumerate_trees(g):
            if is_balanced(t):
                assert build_balanced_tree(balanced_tree_to_k(t)) == t
            else:
                with pytest.raises(DomainError, match="not balanced"):
                    balanced_tree_to_k(t)

    def test_inverse_rejects_unbalanced_term(self):
        # a raw SignedTreeSum skips from_dict's check; conversion still refuses
        # a tree whose root is balanced and whose node {2,3,5} is not
        raw = SignedTreeSum(g=6, terms=((parse_tree("((1,4),((2,3),5))"), 1),))
        with pytest.raises(DomainError, match="not balanced"):
            raw.to_decomposition()

    def test_construction_cache_is_bounded(self):
        # the merge construction keeps no cache at all: only verify_duality
        # repeats a k, and rerunning a merge costs about what a lookup saved
        assert not hasattr(decomposition._construct, "cache_info")

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
        node = insert_leaf(node, draw(st.integers(0, node_count(node) - 1)), label)[0]
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
        sign = 1 if ordering is None else parity_between(ordering, descendant_sets(t))
        expected = det_by_permutation_expansion(incidence_matrix(k, t, ordering=ordering))
        assert sign * _coordinates(t._masks).get(k, 0) == expected
        assert _coordinate(t._masks, k) == sign * expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_support_vs_oracle(self, data):
        # every k up to genus 6; above it, every k the kernel reports
        t = data.draw(trees())
        ordering = data.draw(st.none() | st.permutations(descendant_sets(t)))
        sign = 1 if ordering is None else parity_between(ordering, descendant_sets(t))
        coords = _coordinates(t._masks)
        for k in k_sequences(t.genus) if t.genus <= 6 else list(coords):
            expected = det_by_permutation_expansion(incidence_matrix(k, t, ordering=ordering))
            assert sign * coords.get(k, 0) == expected
        assert set(coords.values()) <= {-1, 1}

    @pytest.mark.parametrize("g", range(3, 7))
    def test_one_coordinate_vs_bareiss_every_k(self, g):
        # pair and _coordinate read the one LCA image of k's rows
        sign = -1 if math.comb(g - 2, 2) % 2 else 1
        for t in enumerate_trees(g):
            for k in k_sequences(g):
                expected = det(incidence_matrix(k, t))
                assert pair(k, t) == sign * expected
                assert _coordinate(t._masks, k) == expected

    def test_one_coordinate_vs_support_kernel_genus_7(self):
        ks = k_sequences(7)
        for t in enumerate_trees(7):
            family = t._masks
            coords = _coordinates(family)
            assert [_coordinate(family, k) for k in ks] == [coords.get(k, 0) for k in ks]

    def test_one_coordinate_vs_support_kernel_sampled_genus_9(self):
        rng = random.Random(9)
        for _ in range(300):
            family = remy_tree(9, rng)._masks
            coords = _coordinates(family)
            # a uniform k, and one from the support (nearly all uniform k miss it)
            for k in (tuple(rng.randint(1, i) for i in range(1, 8)), rng.choice(list(coords))):
                assert _coordinate(family, k) == coords.get(k, 0)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_support_kernel_vs_backtracking_oracle(self, g):
        # the one-image kernel gives the backtracking kernel's output, keys in
        # lexicographic order (decompose keeps that order without sorting)
        for t in enumerate_trees(g):
            family = t._masks
            coords = _coordinates(family)
            assert coords == coordinate_oracle.coordinates(family)
            assert list(coords) == sorted(coords)
            assert len(set(coords.values())) == 1


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

    @pytest.mark.parametrize("g", range(3, 12))
    def test_box_reads_as_its_listing(self, g):
        # every tree up to genus 8, seeded trees above, and the genus-11
        # caterpillar; distinct trees have distinct boxes
        rng = random.Random(g)
        ts = enumerate_trees(g) if g <= 8 else {remy_tree(g, rng) for _ in range(200)}
        ts = list(ts) + ([caterpillar(11)] if g == 11 else [])
        boxes = []
        for t in ts:
            box = decompose(t)
            listed = CycleDecomposition.from_dict(g, _coordinates(t._masks))
            assert box == listed and listed == box and box == decompose(t)
            assert not (box != listed or listed != box)
            assert hash(box) == hash(listed)
            assert repr(box) == repr(listed)
            assert box.as_dict() == listed.as_dict()
            assert box.to_json() == listed.to_json()
            assert len(box.coefficients) == len(listed.coefficients)
            boxes.append(box)
        assert all(a != b for a, b in zip(boxes, boxes[1:]))
        assert len(set(boxes)) == len(ts)
        assert pickle.loads(pickle.dumps(boxes[-1])) == boxes[-1] == copy.copy(boxes[-1])
        with pytest.raises(FrozenInstanceError):
            boxes[-1].g = g

    def test_box_holds_no_listing(self):
        # the genus-11 caterpillar's 9! = 362,880 terms are listed only when read
        t = caterpillar(11)
        tracemalloc.start()
        try:
            d = decompose(t)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
            assert len(d.coefficients) == math.factorial(9)
            assert tracemalloc.get_traced_memory()[0] < 2 ** 20
        finally:
            tracemalloc.stop()


def caterpillar(g):
    """(((1,2),3),...,g-1): the genus-g tree of largest support, (g-2)! terms."""
    return parse_tree("(" * (g - 2) + "1" + "".join(f",{i})" for i in range(2, g)))


def wide(leaves):
    """A tree on 1..leaves nested about log2(leaves) deep."""
    level = [str(i) for i in range(1, leaves + 1)]
    while len(level) > 1:
        level = [f"({a},{b})" for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
    return parse_tree(level[0])


class TestSupportBudget:
    """decompose and reduce_to_balanced refuse a genus whose (g-2)! worst-case
    support is over MAX_TREES, before any work starts; pair is unaffected."""

    @pytest.fixture
    def started(self, monkeypatch):
        calls = []

        def record(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("the work started")

        monkeypatch.setattr(decomposition, "_coordinates", record)
        monkeypatch.setattr(decomposition, "_support", record)
        monkeypatch.setattr(rewrite, "_reduce", record)
        return calls

    @pytest.mark.parametrize("route", (decompose, reduce_to_balanced))
    @pytest.mark.parametrize("t", (caterpillar(12), caterpillar(15), wide(3000)),
                             ids=("genus 12", "genus 15", "genus 3001"))
    def test_refused_before_any_work(self, started, route, t):
        # 10! = 3,628,800 > 2,027,025; at genus 3001 the count would have
        # over 9,000 digits, more than int-to-str converts by default
        message = (f"^genus {t.genus} trees decompose into up to {t.genus - 2}! terms, "
                   f"over the decomposition budget of 2027025$")
        with pytest.raises(DomainError, match=message):
            route(t)
        assert started == []

    @pytest.mark.parametrize("route", (decompose, reduce_to_balanced))
    def test_genus_11_accepted(self, started, route):
        with pytest.raises(RuntimeError, match="the work started"):
            route(caterpillar(11))
        assert len(started) == 1

    def test_pair_unaffected(self):
        t = caterpillar(12)
        k = tuple(range(1, 11))
        sign = -1 if math.comb(10, 2) % 2 else 1
        assert pair(k, t) == sign * det(incidence_matrix(k, t))


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
