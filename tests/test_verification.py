import json
import warnings
from collections import Counter

import pytest

import braidcycles.rewrite as rewrite
import braidcycles.trees as trees_module
import braidcycles.verification as verification
from braidcycles.decomposition import det, incidence_matrix, k_sequences
from braidcycles.errors import DomainError
from braidcycles.rewrite import rotation_triple
from braidcycles.trees import _family, enumerate_trees
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

    def test_ceiling_configurable(self):
        with pytest.raises(DomainError):
            verify_counts(8, ceiling=7)

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
        report = verify_relations(3)
        assert report.passed
        assert report.cases == 0

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

    def test_failure_witness_shape(self, monkeypatch):
        # force wrong determinants to exercise the reporting path: every tree
        # gets coordinate 1 at the sequences ending in their largest value
        monkeypatch.setattr(
            verification, "_coordinates",
            lambda masks, k=None: {k: 1 for k in k_sequences(masks[0].bit_count() + 1)
                                   if k[-1] == len(k)})
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
        rotation = verification._rotation

        def counted(family, pos):
            calls.append((family, pos))
            return rotation(family, pos)

        monkeypatch.setattr(verification, "_rotation", counted)
        report = verify_relations(6, sample=1000, seed=0)
        draws = verification._sample_indices(len(relation_cases(6)), 1000, 0)
        assert report.passed and report.cases == 1000
        # 264 distinct draws out of a pool of 270
        assert len(calls) == len(set(calls)) == len(set(draws)) == 264

    def test_walks_each_pool_tree_once(self, monkeypatch):
        walked = []
        family = verification._family

        def counted(tree):
            walked.append(tree)
            return family(tree)

        monkeypatch.setattr(verification, "_family", counted)
        assert verify_relations(6, sample=1000, seed=0).passed
        assert len(walked) == len(set(walked)) == 105

    def test_one_coordinate_computation_per_distinct_tree(self, monkeypatch):
        calls = []
        coordinates = verification._coordinates

        def counted(family, k=None):
            calls.append(family)
            return coordinates(family, k=k)

        monkeypatch.setattr(verification, "_coordinates", counted)
        report = verify_relations(6, sample=1000, seed=0)
        assert report.passed and report.cases == 1000
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_signed_canonical_coordinates_match_aligned_determinants(self, g):
        """Each aligned determinant is the ordering's parity times the
        tree's canonical coordinate, against the permutation expansion."""
        for tree, pos in relation_cases(g):
            for ot in rotation_triple(tree, pos).trees:
                coords = verification._coordinates(_family(ot.tree))
                for k in k_sequences(g):
                    matrix = incidence_matrix(k, ot.tree, ordering=ot.ordering)
                    assert ot.parity() * coords.get(k, 0) == det_by_permutation_expansion(matrix)

    def test_builds_no_tree_when_passing(self, monkeypatch):
        # the suite runs on mask families; trees are built for witnesses only
        def tree_built(*args, **kwargs):
            raise AssertionError("verify_relations built a tree")

        for module in (trees_module, rewrite, verification):
            monkeypatch.setattr(module, "_build", tree_built)
        assert verify_relations(5).passed
        assert verify_relations(7, sample=300, seed=1).passed

    def test_repeated_failures_reported_per_draw(self, monkeypatch):
        # every case fails; a case drawn n times must be reported n times
        monkeypatch.setattr(verification, "_coordinates",
                            lambda masks, k=None: {(1,) * (masks[0].bit_count() - 1): 1})
        report = verify_relations(6, sample=500, seed=3)
        pool = relation_cases(6)
        draws = verification._sample_indices(len(pool), 500, 3)
        assert len(set(draws)) < len(draws)
        assert report.cases == 500
        assert [f["check"] for f in report.failures] == ["determinant-sum"] * 500
        assert (Counter((f["tree"], f["node"]) for f in report.failures)
                == Counter((pool[i][0].render(), pool[i][1]) for i in draws))


class TestCrosspath:
    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_passes(self, g):
        report = verify_crosspath(g)
        assert report.passed
        assert report.cases == len(enumerate_trees(g))

    def test_threads_equivalent(self):
        a = verify_crosspath(5).to_json()
        with pytest.warns(DeprecationWarning, match="threads is deprecated"):
            b = verify_crosspath(5, threads=3).to_json()
        a.pop("millis")
        b.pop("millis")
        assert a == b

    def test_builds_no_terms(self, monkeypatch):
        # crosspath compares coordinates only, so no balanced term is built
        def term_built(*args, **kwargs):
            raise AssertionError("verify_crosspath built a balanced term")

        monkeypatch.setattr(rewrite, "_balanced_term", term_built)
        monkeypatch.setattr(rewrite, "_SHARED_MEMO", {})
        assert verify_crosspath(6).passed


class TestThreadsDeprecated:
    @pytest.mark.parametrize("suite", (
        lambda threads: verify_duality(4, threads=threads),
        lambda threads: verify_relations(5, threads=threads),
        lambda threads: verify_crosspath(4, threads=threads),
    ), ids=("duality", "relations", "crosspath"))
    def test_warns_unless_one(self, suite):
        with pytest.warns(DeprecationWarning, match="threads is deprecated"):
            threaded = suite(2).to_json()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = suite(1).to_json()
        threaded.pop("millis")
        plain.pop("millis")
        assert threaded == plain


class TestArnold:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_passes(self, n):
        report = verify_arnold(n, sample=200)
        assert report.passed

    @pytest.mark.parametrize("sample", (0, -3))
    def test_sample_below_one_rejected(self, sample):
        with pytest.raises(DomainError, match="sample"):
            verify_arnold(4, sample=sample)

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
            coords = verification._coordinates(_family(t))
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
