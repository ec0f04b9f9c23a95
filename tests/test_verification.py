import json
from collections import Counter

import pytest

import braidcycles.decomposition as decomposition
import braidcycles.rewrite as rewrite
import braidcycles.trees as trees_module
import braidcycles.verification as verification
from braidcycles.decomposition import (CycleDecomposition, decompose, det, incidence_matrix,
                                       k_sequences)
from braidcycles.errors import DomainError
from braidcycles.rewrite import rotation_triple
from braidcycles.trees import _build, enumerate_balanced, enumerate_trees
from braidcycles.verification import (
    SuiteReport,
    relation_cases,
    verify_arnold,
    verify_counts,
    verify_crosspath,
    verify_duality,
    verify_relations,
)
from test_decomposition import det_by_permutation_expansion


def plant_crosspath_disagreement(monkeypatch, families):
    """Make the rewriting route that verify_crosspath calls negate its
    coordinates on the trees whose canonical families are in `families`.
    The patched call takes a Tree or a canonical family."""
    reduce = verification._reduce

    def disagreeing(tree_or_family, *args, **kwargs):
        coords, leaves = reduce(tree_or_family, *args, **kwargs)
        if getattr(tree_or_family, "_masks", tree_or_family) in families:
            coords = {k: -c for k, c in coords.items()}
        return coords, leaves

    monkeypatch.setattr(verification, "_reduce", disagreeing)


class TestCounts:
    @pytest.mark.parametrize("g", range(3, 8))
    def test_passes(self, g):
        report = verify_counts(g)
        assert report.passed
        assert report.cases == 2

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            verify_counts(9)
        with pytest.raises(DomainError):
            verify_counts(2)

    def test_fails_when_the_lists_miss_a_tree(self, monkeypatch):
        tree_lists = verification._tree_lists
        monkeypatch.setattr(verification, "_tree_lists",
                            lambda g, balanced: tuple(lst[1:] for lst in tree_lists(g, balanced)))
        assert verify_counts(5).failures == [
            {"check": "trees", "g": 5, "got": 14, "expected": 15},
            {"check": "balanced", "g": 5, "got": 5, "expected": 6},
        ]


class TestDuality:
    @pytest.mark.parametrize("g", (3, 4, 5, 6))
    def test_passes(self, g):
        report = verify_duality(g)
        assert report.passed
        size = len(k_sequences(g))
        assert report.cases == size * size + size

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            verify_duality(8)


class TestRelations:
    def test_g3_vacuous(self):
        # a genus-3 tree has no node to rotate, so the suite is refused
        # rather than passing on 0 cases; below genus 3 the message is the old one
        assert relation_cases(3) == []
        with pytest.raises(DomainError, match="no node to rotate"):
            verify_relations(3)
        with pytest.raises(DomainError, match="genus must be at least 3, got 2"):
            verify_relations(2)

    @pytest.mark.parametrize("g", (4, 5))
    def test_exhaustive(self, g):
        report = verify_relations(g)
        assert report.passed
        assert report.cases == len(relation_cases(g))

    def test_sampled(self):
        report = verify_relations(6, sample=100, seed=1)
        assert report.passed
        assert report.cases == 100

    def test_seed_reproducible(self):
        a = verify_relations(6, sample=60, seed=42).to_json()
        b = verify_relations(6, sample=60, seed=42).to_json()
        a.pop("millis")
        b.pop("millis")
        assert a == b

    @pytest.mark.parametrize("sample", (0, -3))
    def test_sample_below_one_rejected(self, sample):
        with pytest.raises(DomainError, match="sample"):
            verify_relations(6, sample=sample)

    @pytest.mark.parametrize("sample", (verification.MAX_SAMPLE + 1, 10**5000),
                             ids=("one over", "5001 digits"))
    def test_sample_over_budget_rejected(self, monkeypatch, sample):
        monkeypatch.setattr(verification, "relation_cases", None)  # refused before the pool
        with pytest.raises(DomainError, match="^sample is over the sampling budget of 1000000$"):
            verify_relations(7, sample=sample)

    def test_failure_witness_shape(self, monkeypatch):
        # force wrong determinants to exercise the reporting path: every tree
        # gets coordinate 1 at the sequences ending in their largest value,
        # as a product set: k_i in 1..i for i < n, and k_n = n
        def ending_in_largest(masks):
            n = masks[0].bit_count() - 1  # the length of k
            return 1, tuple(tuple(range(1, i + 1)) for i in range(1, n)) + ((n,),)

        monkeypatch.setattr(verification, "_support", ending_in_largest)
        report = verify_relations(4)
        assert not report.passed
        witness = report.failures[0]
        assert set(witness) == {"check", "tree", "node", "triple", "k", "dets"}
        assert witness["check"] == "determinant-sum"
        assert len(witness["triple"]) == 3
        assert witness["k"] == [1, 2]  # the first failing k in lexicographic order
        assert witness["dets"] == [1, 1, 1]
        trees = [f["tree"] for f in report.failures]
        assert trees == sorted(trees)
        json.dumps(report.to_json())  # witnesses stay serializable

    def test_each_distinct_draw_checked_once(self, monkeypatch):
        calls = []
        rotated = verification._rotated

        def counted(family, pos):
            calls.append((family, pos))
            return rotated(family, pos)

        monkeypatch.setattr(verification, "_rotated", counted)
        report = verify_relations(6, sample=1000, seed=0)
        draws = verification._sample_indices(len(relation_cases(6)), 1000, 0)
        assert report.passed and report.cases == 1000
        # 264 distinct draws out of a pool of 270
        assert len(calls) == len(set(calls)) == len(set(draws)) == 264

    def test_folds_no_tree_when_passing(self, monkeypatch):
        # the suite reads each tree's family; no root or text is folded from it
        def folded(*args):
            raise AssertionError("a tree was folded to its root or text")

        monkeypatch.setattr(trees_module, "_fold", folded)
        assert verify_relations(6, sample=1000, seed=0).passed

    def test_one_coordinate_computation_per_distinct_tree(self, monkeypatch):
        calls = []
        support = verification._support

        def counted(family):
            calls.append(family)
            return support(family)

        monkeypatch.setattr(verification, "_support", counted)
        report = verify_relations(6, sample=1000, seed=0)
        assert report.passed and report.cases == 1000
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_signed_canonical_coordinates_match_aligned_determinants(self, g):
        """Each aligned determinant is the ordering's parity times the
        tree's canonical coordinate, against the permutation expansion."""
        for family, pos in relation_cases(g):
            for ot in rotation_triple(_build(family), pos).trees:
                coords = verification._coordinates(ot.tree._masks)
                for k in k_sequences(g):
                    matrix = incidence_matrix(k, ot.tree, ordering=ot.ordering)
                    assert ot.parity() * coords.get(k, 0) == det_by_permutation_expansion(matrix)

    def test_builds_no_tree_when_passing(self, monkeypatch):
        # the suite runs on mask families, its pool drawn from the split
        # lists; trees are built for witnesses only
        def tree_built(*args, **kwargs):
            raise AssertionError("verify_relations built a tree")

        for module in (rewrite, verification):
            monkeypatch.setattr(module, "_build", tree_built)
        built, build = [], trees_module._build

        def counted(masks):
            built.append(masks)
            return build(masks)

        monkeypatch.setattr(trees_module, "_build", counted)
        assert verify_relations(5).passed
        assert verify_relations(7, sample=300, seed=1).passed
        assert built == []

    def test_repeated_failures_reported_per_draw(self, monkeypatch):
        # every case fails; a case drawn n times must be reported n times
        # every tree gets coordinate 1 at k = (1, ..., 1) alone
        monkeypatch.setattr(verification, "_support",
                            lambda masks: (1, ((1,),) * (masks[0].bit_count() - 1)))
        report = verify_relations(6, sample=500, seed=3)
        pool = relation_cases(6)
        draws = verification._sample_indices(len(pool), 500, 3)
        assert len(set(draws)) < len(draws)
        assert report.cases == 500
        assert [f["check"] for f in report.failures] == ["determinant-sum"] * 500
        assert (Counter((f["tree"], f["node"]) for f in report.failures)
                == Counter((_build(pool[i][0]).render(), pool[i][1]) for i in draws))


class TestCrosspath:
    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_passes(self, g):
        report = verify_crosspath(g)
        assert report.passed
        assert report.cases == len(enumerate_trees(g))

    def test_builds_each_term_once(self, monkeypatch):
        # crosspath compares coordinates only: the rewriting route builds one
        # Tree per balanced leaf of the memo, and never runs the merge construction
        def construction_called(*args, **kwargs):
            raise AssertionError("the rewriting route ran the merge construction")

        built = []
        monkeypatch.setattr(decomposition, "_construct", construction_called)
        monkeypatch.setattr(rewrite, "_build", lambda masks: built.append(masks) or _build(masks))
        monkeypatch.setattr(rewrite, "_SHARED_MEMO", {})
        assert verify_crosspath(6).passed
        assert sorted(built) == sorted(b._masks for b in enumerate_balanced(6))

    def test_builds_no_tree_when_every_tree_passes(self, monkeypatch):
        # the suite, the enumeration and the determinant route build no Tree;
        # with the memo warm, the rewriting route builds none either
        def tree_built(*args, **kwargs):
            raise AssertionError("a Tree was built")

        for module in (trees_module, verification, decomposition):
            monkeypatch.setattr(module, "_build", tree_built)
        monkeypatch.setattr(rewrite, "_SHARED_MEMO", {})
        assert verify_crosspath(6).passed
        monkeypatch.setattr(rewrite, "_build", tree_built)
        report = verify_crosspath(6)
        assert report.passed
        assert report.cases == 105

    def test_failure_witness(self, monkeypatch):
        t = enumerate_trees(5)[7]
        plant_crosspath_disagreement(monkeypatch, {t._masks})
        report = verify_crosspath(5)
        assert not report.passed
        assert report.cases == 15
        via_det = decompose(t)
        negated = CycleDecomposition.from_dict(5, {k: -c for k, c in via_det.as_dict().items()})
        assert report.failures == [{"check": "crosspath", "tree": t.render(),
                                    "determinant": via_det.to_json(),
                                    "rewrite": negated.to_json()}]
        assert set(report.failures[0]) == {"check", "tree", "determinant", "rewrite"}

    def test_failures_sorted_by_text(self, monkeypatch):
        # the suite visits trees in split order, which is not text order
        texts = [t.render() for t in enumerate_trees(5)]
        assert trees_module._tree_lists(5, False)[1] != texts
        plant_crosspath_disagreement(monkeypatch, {t._masks for t in enumerate_trees(5)})
        assert [f["tree"] for f in verify_crosspath(5).failures] == texts


class TestArnold:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_passes(self, n):
        report = verify_arnold(n, sample=200)
        assert report.passed

    @pytest.mark.parametrize("sample", (0, -3))
    def test_sample_below_one_rejected(self, sample):
        with pytest.raises(DomainError, match="sample"):
            verify_arnold(4, sample=sample)

    def test_sample_over_budget_rejected(self, monkeypatch):
        monkeypatch.setattr(verification, "rank", None)  # refused before any check
        with pytest.raises(DomainError, match="^sample is over the sampling budget of 1000000$"):
            verify_arnold(6, sample=verification.MAX_SAMPLE + 1)

    def test_sample_budget_is_inclusive(self):
        verification._check_sample(verification.MAX_SAMPLE)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            verify_arnold(7)
        with pytest.raises(DomainError):
            verify_arnold(1)

    def test_seed_reproducible(self):
        a = verify_arnold(5, sample=150, seed=8).to_json()
        b = verify_arnold(5, sample=150, seed=8).to_json()
        a.pop("millis")
        b.pop("millis")
        assert a == b


class TestVectorizedIncidence:
    """The sign kernel the verifiers call must agree with the scalar
    incidence-matrix determinants, exhaustively over every tree and k."""

    @pytest.mark.parametrize("g", (3, 4, 5, 6))
    def test_stack_matches_scalar(self, g):
        for t in enumerate_trees(g):
            coords = verification._coordinates(t._masks)
            for k in k_sequences(g):
                assert coords.get(k, 0) == det(incidence_matrix(k, t))
            assert set(coords.values()) <= {-1, 1}


class TestReport:
    def test_json_schema(self):
        report = SuiteReport("demo", 4, 10, [], 12)
        assert report.to_json() == {
            "suite": "demo", "param": 4, "cases": 10, "failures": [], "millis": 12}
        assert report.passed

    def test_failures_flip_passed(self):
        report = SuiteReport("demo", 4, 1, [{"check": "x"}], 0)
        assert not report.passed
