import json

import pytest

import braidcycles.verification as verification
from braidcycles.decomposition import det, incidence_matrix, k_sequences
from braidcycles.errors import DomainError
from braidcycles.trees import enumerate_trees
from braidcycles.verification import (
    SuiteReport,
    relation_cases,
    verify_arnold,
    verify_counts,
    verify_crosspath,
    verify_duality,
    verify_relations,
)


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
            lambda tree, ordering=None: {k: 1 for k in k_sequences(tree.genus)
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


class TestCrosspath:
    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_passes(self, g):
        report = verify_crosspath(g)
        assert report.passed
        assert report.cases == len(enumerate_trees(g))

    def test_threads_equivalent(self):
        a = verify_crosspath(5).to_json()
        b = verify_crosspath(5, threads=3).to_json()
        a.pop("millis")
        b.pop("millis")
        assert a == b


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

    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_stack_matches_scalar(self, g):
        for t in enumerate_trees(g):
            coords = verification._coordinates(t)
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
