import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidcycles.arnold as arnold
from braidcycles.arnold import (
    CohomologyClass,
    Monomial,
    basis,
    format_class,
    generator_class,
    monomial_to_k,
    multiply,
    parse_expression,
    rank,
    straighten,
    w,
    w_basis_index,
)
from braidcycles.cli import main
from braidcycles.errors import AlgebraError


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def poincare_coeffs(n):
    """Coefficients of prod_{i=1}^{n-1} (1 + i*t)."""
    poly = [1]
    for i in range(1, n):
        poly = [a + i * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def free_generators(n):
    return sorted(
        ((i, j) for j in range(2, n + 1) for i in range(1, j)),
        key=lambda p: (p[1], p[0]),
    )


def wedge_sort(pairs):
    """Sort (i,j) pairs by (j,i) with the exterior sign; None if repeated."""
    items = list(pairs)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            a, b = items[j], items[j + 1]
            if (a[1], a[0]) > (b[1], b[0]):
                items[j], items[j + 1] = b, a
                sign = -sign
    for a, b in zip(items, items[1:]):
        if a == b:
            return None, 0
    return tuple(items), sign


def relation_rows(n, p, columns):
    """Degree-p shifts of the three-term relations, as vectors over `columns`."""
    col_index = {m: i for i, m in enumerate(columns)}
    gens = free_generators(n)
    rows = []
    for k, l, m in itertools.combinations(range(1, n + 1), 3):
        base = [((k, l), (l, m)), ((l, m), (k, m)), ((k, m), (k, l))]
        for shift in itertools.combinations(gens, p - 2):
            row = [Fraction(0)] * len(columns)
            nonzero = False
            for pair in base:
                mono, sign = wedge_sort(pair + shift)
                if mono is not None:
                    row[col_index[mono]] += sign
                    nonzero = True
            if nonzero:
                rows.append(row)
    return rows


def rref(rows):
    """Row-reduce in place over Fractions; return {pivot column: row}."""
    pivots = {}
    for row in rows:
        for col in sorted(pivots):
            if row[col]:
                factor = row[col]
                prow = pivots[col]
                for c2 in range(len(row)):
                    row[c2] -= factor * prow[c2]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        for c2 in range(len(row)):
            row[c2] *= inv
        pivots[lead] = row
    return pivots


def reduce_mod(vector, pivots):
    v = list(vector)
    for col in sorted(pivots):
        if v[col]:
            factor = v[col]
            prow = pivots[col]
            for c2 in range(len(v)):
                v[c2] -= factor * prow[c2]
    return v


def class_vector(c, columns):
    col_index = {m: i for i, m in enumerate(columns)}
    v = [Fraction(0)] * len(columns)
    for mono, coeff in c.terms:
        v[col_index[tuple((f.i, f.j) for f in mono.factors)]] += coeff
    return v


def perm_sign(perm):
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------

class TestStraighten:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_coefficients_are_units(self, n):
        # every product of distinct generators straightens to coefficients +-1,
        # which the digit bound on expression integers relies on
        gens = [w(i, j) for j in range(2, n + 1) for i in range(1, j)]
        for p in range(1, n):
            for factors in itertools.combinations(gens, p):
                assert {abs(c) for _, c in straighten(n, factors).terms} <= {1}

    def test_exterior_square(self):
        assert straighten(3, [w(1, 2), w(1, 2)]).is_zero()

    def test_antisymmetry(self):
        got = straighten(3, [w(2, 3), w(1, 2)])
        expected = straighten(3, [w(1, 2), w(2, 3)]).scale(-1)
        assert got == expected

    def test_single_relation_rewrite(self):
        got = straighten(3, [w(1, 3), w(2, 3)])
        assert got.as_dict() == {
            Monomial((w(1, 2), w(2, 3))): 1,
            Monomial((w(1, 2), w(1, 3))): -1,
        }

    def test_normalizes_swapped_indices(self):
        assert straighten(3, [w(3, 1), w(3, 2)]) == straighten(3, [w(1, 3), w(2, 3)])

    def test_out_of_range(self):
        with pytest.raises(AlgebraError):
            straighten(3, [w(1, 4)])

    def test_equal_indices_rejected(self):
        with pytest.raises(AlgebraError):
            w(2, 2)

    def test_all_outputs_admissible(self):
        for factors in itertools.combinations(free_generators(5), 3):
            c = straighten(5, [w(*f) for f in factors])
            assert all(m.is_admissible() for m, _ in c.terms)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_relation_instances_vanish(self, n):
        for k, l, m in itertools.combinations(range(1, n + 1), 3):
            total = (
                straighten(n, [w(k, l), w(l, m)])
                + straighten(n, [w(l, m), w(m, k)])
                + straighten(n, [w(m, k), w(k, l)])
            )
            assert total.is_zero()

    @pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3, 4) for p in range(0, 7)]
                             + [(5, p) for p in range(0, 5)])
    def test_against_row_reduction_oracle(self, n, p):
        """straighten agrees with reduction modulo the relation ideal."""
        gens = free_generators(n)
        if p > len(gens):
            return
        columns = list(itertools.combinations(gens, p))
        pivots = rref(relation_rows(n, p, columns)) if p >= 2 else {}
        assert len(columns) - len(pivots) == rank(n, p)
        for mono in columns:
            c = straighten(n, [w(*f) for f in mono])
            target = [Fraction(0)] * len(columns)
            target[columns.index(mono)] = Fraction(1)
            diff = [a - b for a, b in zip(target, class_vector(c, columns))]
            assert all(v == 0 for v in reduce_mod(diff, pivots))
            # the straightened form itself must be fully reduced and reduce to
            # the same residue as the input
            assert reduce_mod(target, pivots) == reduce_mod(class_vector(c, columns), pivots)

    @given(st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_confluence(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        p = rng.randint(1, min(4, len(free_generators(n))))
        factors = [w(*f) for f in rng.sample(free_generators(n), p)]
        perm = list(range(p))
        rng.shuffle(perm)
        shuffled = [factors[i] for i in perm]
        assert straighten(n, shuffled) == straighten(n, factors).scale(perm_sign(perm))

    def test_cache_is_bounded(self):
        assert arnold._reduce_sorted.cache_info().maxsize == 2**15


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

class TestMultiply:
    def test_unit(self):
        x = straighten(4, [w(1, 3), w(2, 3)])
        assert multiply(x, CohomologyClass.unit(4)) == x
        assert multiply(CohomologyClass.unit(4), x) == x

    def test_square_zero(self):
        x = generator_class(3, 1, 2)
        assert multiply(x, x).is_zero()

    def test_odd_anticommutativity(self):
        a = generator_class(3, 1, 3)
        b = generator_class(3, 2, 3)
        assert (multiply(a, b) + multiply(b, a)).is_zero()

    def test_mismatched_n(self):
        with pytest.raises(AlgebraError):
            multiply(generator_class(3, 1, 2), generator_class(4, 1, 2))

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_associative_and_graded_commutative(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 5)

        def random_class(max_deg):
            deg = rng.randint(1, max_deg)
            factors = [w(*f) for f in rng.sample(free_generators(n), deg)]
            return straighten(n, factors).scale(rng.choice([-2, -1, 1, 2, 3]))

        x, y, z = random_class(2), random_class(2), random_class(1)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        px = x.degree or 0
        py = y.degree or 0
        sign = -1 if (px * py) % 2 else 1
        assert multiply(x, y) == multiply(y, x).scale(sign)


# ---------------------------------------------------------------------------
# basis and ranks
# ---------------------------------------------------------------------------

class TestBasis:
    def test_degree_zero(self):
        assert basis(4, 0) == [Monomial(())]

    def test_degree_one_count(self):
        assert len(basis(4, 1)) == 6

    def test_top_degree_n4(self):
        assert len(basis(4, 3)) == 6

    def test_out_of_range_empty(self):
        assert basis(4, 4) == []
        assert basis(4, -1) == []

    def test_rank_pb2(self):
        assert rank(2, 1) == 1

    def test_rank_n4_p2(self):
        assert rank(4, 2) == 11

    @pytest.mark.parametrize("n", range(2, 7))
    def test_ranks_match_poincare_polynomial(self, n):
        coeffs = poincare_coeffs(n)
        for p in range(n + 1):
            expected = coeffs[p] if p < len(coeffs) else 0
            assert rank(n, p) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_top_rank_factorial(self, n):
        fact = 1
        for i in range(2, n):
            fact *= i
        assert rank(n, n - 1) == fact

    def test_top_degree_matches_k_sequences(self):
        top = basis(4, 3)
        ks = {monomial_to_k(m) for m in top}
        assert ks == {(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3)}


class TestWBasisIndex:
    def test_singleton(self):
        assert w_basis_index((1,)) == Monomial((w(1, 2),))

    def test_k11(self):
        assert w_basis_index((1, 1)) == Monomial((w(1, 2), w(1, 3)))

    def test_k12(self):
        assert w_basis_index((1, 2)) == Monomial((w(1, 2), w(2, 3)))

    def test_invalid_entry(self):
        with pytest.raises(AlgebraError):
            w_basis_index((1, 3))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_round_trip(self, n):
        for mono in basis(n, n - 1):
            assert w_basis_index(monomial_to_k(mono)) == mono


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

class TestExpressions:
    def test_relation_rewrite(self):
        got = parse_expression("w(1,3)*w(2,3)", 3)
        assert got == straighten(3, [w(1, 3), w(2, 3)])
        assert format_class(got) == "-w(1,2)*w(1,3) + w(1,2)*w(2,3)"

    def test_square_is_zero(self):
        assert parse_expression("w(1,2)*w(1,2)", 3).is_zero()

    def test_full_relation_is_zero(self):
        expr = "w(1,2)*w(2,3)+w(2,3)*w(1,3)+w(1,3)*w(1,2)"
        assert parse_expression(expr, 3).is_zero()

    def test_coefficient_and_minus(self):
        got = parse_expression("2*w(1,2) - w(1,2)", 3)
        assert got == generator_class(3, 1, 2)

    def test_unicode_minus(self):
        assert parse_expression("w(1,2) − w(1,2)", 3).is_zero()

    def test_leading_sign(self):
        assert parse_expression("-w(1,2)", 3) == generator_class(3, 1, 2).scale(-1)

    @pytest.mark.parametrize("bad", ["", "w(1,2)+", "w(1)", "2*", "w(1,2)**w(1,3)", "q(1,2)"])
    def test_malformed(self, bad):
        with pytest.raises(AlgebraError):
            parse_expression(bad, 4)

    def test_index_out_of_range(self):
        with pytest.raises(AlgebraError):
            parse_expression("w(1,5)", 4)

    def test_format_round_trip(self):
        c = straighten(4, [w(1, 4), w(2, 4), w(3, 4)]) + generator_class(4, 1, 2).scale(2)
        assert parse_expression(format_class(c), 4) == c

    def test_format_zero(self):
        assert format_class(CohomologyClass.zero(3)) == "0"

    @pytest.mark.parametrize("expr", (
        "9" * 5000 + "*w(1,2)",
        "w(1," + "9" * 5000 + ")",
        "9" * 4300 + "*w(1,2)+" + "9" * 4300 + "*w(1,2)",
    ), ids=("coefficient", "index", "sum"))
    def test_huge_integers_refused(self, expr, capsys):
        message = "integers in expressions must have at most 4000 digits"
        with pytest.raises(AlgebraError) as refused:
            parse_expression(expr, 3)
        assert str(refused.value) == message
        assert main(["arnold", "--n", "3", "--expr", expr]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_integers_at_the_bound_print(self):
        big = "9" * arnold.MAX_INT_DIGITS
        c = parse_expression(f"{big}*w(1,2)+{big}*w(1,2)", 3)
        assert format_class(c) == f"{2 * int(big)}*w(1,2)"
        assert parse_expression("0" * 5000 + "2*w(1,2)", 3) == generator_class(3, 1, 2).scale(2)


class TestClassArithmetic:
    def test_degrees_mixed(self):
        c = generator_class(4, 1, 2) + multiply(generator_class(4, 1, 3), generator_class(4, 2, 3))
        assert c.degrees() == frozenset({1, 2})
        assert c.degree is None

    def test_zero_degree_none(self):
        assert CohomologyClass.zero(4).degree is None

    def test_sub_and_neg(self):
        x = generator_class(4, 1, 2)
        assert (x - x).is_zero()
        assert (-x) + x == CohomologyClass.zero(4)
