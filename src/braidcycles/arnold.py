"""Integral cohomology ring of the pure braid group on n strands.

The ring is the exterior algebra on degree-1 generators w(i,j), 1 <= i < j <= n,
subject to the three-term relation

    w(k,l)*w(l,m) + w(l,m)*w(k,m) + w(k,m)*w(k,l) = 0   for k < l < m

(written with normalized generators; w(j,i) means w(i,j)).  Products whose
factors have pairwise distinct larger indices that increase left to right are
admissible, and the admissible monomials form an additive basis.  Everything
here is exact over the integers.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AlgebraError
from .trees import _CACHE_CAP


@dataclass(frozen=True)
class Generator:
    """Degree-1 generator w(i,j); stored with i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise AlgebraError(f"generator indices must differ, got w({self.i},{self.j})")
        if self.i < 1 or self.j < 1:
            raise AlgebraError("generator indices must be positive")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)

    @property
    def sort_key(self) -> tuple[int, int]:
        # larger index first: the straightening order
        return (self.j, self.i)

    def __str__(self) -> str:
        return f"w({self.i},{self.j})"


def w(i: int, j: int) -> Generator:
    """Convenience constructor; w(j,i) is normalized to w(i,j)."""
    return Generator(i, j)


@dataclass(frozen=True)
class Monomial:
    """Product of generators.  In normal form the larger indices strictly
    increase left to right (which also makes them pairwise distinct)."""

    factors: tuple[Generator, ...]

    @property
    def degree(self) -> int:
        return len(self.factors)

    def is_admissible(self) -> bool:
        larger = [f.j for f in self.factors]
        return all(a < b for a, b in zip(larger, larger[1:]))

    @property
    def sort_key(self) -> tuple:
        return (self.degree, tuple(f.sort_key for f in self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(str(f) for f in self.factors)


UNIT_MONOMIAL = Monomial(())


@dataclass(frozen=True)
class CohomologyClass:
    """Integer combination of admissible monomials on n strands.

    Terms are kept sorted with nonzero coefficients, so equality is
    structural.  Mixed-degree sums are allowed.
    """

    n: int
    terms: tuple[tuple[Monomial, int], ...]

    @classmethod
    def from_dict(cls, n: int, coeffs: dict[Monomial, int]) -> CohomologyClass:
        items = tuple(sorted(((m, c) for m, c in coeffs.items() if c != 0),
                             key=lambda mc: mc[0].sort_key))
        return cls(n=n, terms=items)

    @classmethod
    def zero(cls, n: int) -> CohomologyClass:
        return cls(n=n, terms=())

    @classmethod
    def unit(cls, n: int) -> CohomologyClass:
        return cls(n=n, terms=((UNIT_MONOMIAL, 1),))

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> int:
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    def degrees(self) -> frozenset[int]:
        return frozenset(m.degree for m, _ in self.terms)

    @property
    def degree(self) -> int | None:
        """The common degree, or None for the zero class or a mixed sum."""
        degs = self.degrees()
        return next(iter(degs)) if len(degs) == 1 else None

    def _check_same_n(self, other: CohomologyClass) -> None:
        if self.n != other.n:
            raise AlgebraError(f"mismatched strand counts {self.n} and {other.n}")

    def __add__(self, other: CohomologyClass) -> CohomologyClass:
        self._check_same_n(other)
        coeffs = dict(self.terms)
        for m, c in other.terms:
            coeffs[m] = coeffs.get(m, 0) + c
        return CohomologyClass.from_dict(self.n, coeffs)

    def __neg__(self) -> CohomologyClass:
        return CohomologyClass(self.n, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: CohomologyClass) -> CohomologyClass:
        return self + (-other)

    def scale(self, c: int) -> CohomologyClass:
        if c == 0:
            return CohomologyClass.zero(self.n)
        return CohomologyClass(self.n, tuple((m, c * x) for m, x in self.terms))

    def __rmul__(self, c: int) -> CohomologyClass:
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other: CohomologyClass) -> CohomologyClass:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return multiply(self, other)

    def __str__(self) -> str:
        return format_class(self)


def perm_sign_of(perm: Sequence[int]) -> int:
    """Sign of a permutation given as the image list of 0..n-1."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _sort_with_sign(factors: Iterable[Generator]) -> tuple[tuple[Generator, ...] | None, int]:
    """Sort generators by (larger, smaller) index with the exterior sign.

    Returns (None, 0) when a factor repeats (the square of a degree-1
    element vanishes).
    """
    items = list(factors)
    order = sorted(range(len(items)), key=lambda i: items[i].sort_key)
    ordered = tuple(items[i] for i in order)
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        return None, 0
    return ordered, perm_sign_of(order)


@functools.lru_cache(maxsize=_CACHE_CAP)
def _reduce_sorted(factors: tuple[Generator, ...]) -> tuple[tuple[tuple[Generator, ...], int], ...]:
    """Expand a sorted, duplicate-free product in the admissible basis.

    Picks the largest repeated larger-index l and rewrites the adjacent pair
    w(a,l)*w(b,l) (a < b) as w(a,b)*w(b,l) - w(a,b)*w(a,l).  Each replacement
    trades an l for the smaller b, so the multiset of larger indices strictly
    decreases and the recursion terminates.  The cache keeps the most recent
    2^15 products (arnold --n 6 fills fewer than a thousand).
    """
    pos = -1
    for p in range(len(factors) - 2, -1, -1):
        if factors[p].j == factors[p + 1].j:
            pos = p
            break
    if pos < 0:
        return ((factors, 1),)

    a, b, l = factors[pos].i, factors[pos + 1].i, factors[pos].j
    prefix, suffix = factors[:pos], factors[pos + 2:]
    coeffs: dict[tuple[Generator, ...], int] = {}
    for replacement, c in (((Generator(a, b), Generator(b, l)), 1),
                           ((Generator(a, b), Generator(a, l)), -1)):
        sorted_factors, sign = _sort_with_sign(prefix + replacement + suffix)
        if sorted_factors is None:
            continue
        for mono, sub in _reduce_sorted(sorted_factors):
            coeffs[mono] = coeffs.get(mono, 0) + c * sign * sub
    return tuple(sorted((mc for mc in coeffs.items() if mc[1] != 0),
                        key=lambda mc: tuple(f.sort_key for f in mc[0])))


def _check_range(factors: Iterable[Generator], n: int) -> None:
    if n < 2:
        raise AlgebraError(f"need at least 2 strands, got {n}")
    for f in factors:
        if f.j > n:
            raise AlgebraError(f"generator {f} out of range for {n} strands")


def straighten(n: int, factors: Sequence[Generator]) -> CohomologyClass:
    """Expand the product of `factors` in the admissible basis on n strands."""
    _check_range(factors, n)
    sorted_factors, sign = _sort_with_sign(factors)
    if sorted_factors is None:
        return CohomologyClass.zero(n)
    coeffs: dict[Monomial, int] = {}
    for mono, c in _reduce_sorted(sorted_factors):
        coeffs[Monomial(mono)] = sign * c
    return CohomologyClass.from_dict(n, coeffs)


def generator_class(n: int, i: int, j: int) -> CohomologyClass:
    """The class of a single generator w(i,j)."""
    return straighten(n, (w(i, j),))


def multiply(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Bilinear extension of straighten over concatenated factor lists."""
    a._check_same_n(b)
    coeffs: dict[Monomial, int] = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            expanded = straighten(a.n, ma.factors + mb.factors)
            for m, c in expanded.terms:
                coeffs[m] = coeffs.get(m, 0) + ca * cb * c
    return CohomologyClass.from_dict(a.n, coeffs)


def basis(n: int, p: int) -> list[Monomial]:
    """All admissible degree-p monomials on n strands.

    Out-of-range p yields an empty list.  For p = n-1 these are exactly the
    top-degree products w(k_1,2)*w(k_2,3)*...*w(k_{n-1},n) with k_i <= i.
    """
    if n < 2:
        raise AlgebraError(f"need at least 2 strands, got {n}")
    if p < 0 or p > n - 1:
        return []
    if p == 0:
        return [UNIT_MONOMIAL]
    out = []
    for larger in itertools.combinations(range(2, n + 1), p):
        for smaller in itertools.product(*(range(1, l) for l in larger)):
            out.append(Monomial(tuple(Generator(s, l) for s, l in zip(smaller, larger))))
    return out


def rank(n: int, p: int) -> int:
    """Rank of the degree-p component: |basis(n, p)|."""
    return len(basis(n, p))


def w_basis_index(k: Sequence[int]) -> Monomial:
    """The top-degree basis monomial w(k_1,2)*w(k_2,3)*...*w(k_m,m+1)."""
    factors = []
    for i, ki in enumerate(k, start=1):
        if not (1 <= ki <= i):
            raise AlgebraError(f"entry {ki} at position {i} violates 1 <= k_i <= i")
        factors.append(Generator(ki, i + 1))
    return Monomial(tuple(factors))


def monomial_to_k(mono: Monomial) -> tuple[int, ...]:
    """Inverse of w_basis_index on top-degree admissible monomials."""
    expected = tuple(range(2, mono.degree + 2))
    if tuple(f.j for f in mono.factors) != expected:
        raise AlgebraError(f"{mono} is not a top-degree basis monomial")
    return tuple(f.i for f in mono.factors)


_TOKEN = re.compile(r"\s*(?:(\d+)|(w)|([()*,+])|(-|−))")
# The most digits of an integer in an expression, zero padding read past.  A
# printed coefficient sums, per term, one integer below 10^MAX_INT_DIGITS times
# a straightening coefficient of +-1 (tested on up to 5 strands), so it passes
# Python's 4,300-digit int-string limit only past 10^300 terms.
MAX_INT_DIGITS = 4000


def parse_expression(text: str, n: int) -> CohomologyClass:
    """Parse `TERM ((+|-) TERM)*` where TERM is `[INT *] w(I,J) (* w(I,J))*`.

    A leading sign on the first term is accepted.  The ASCII hyphen and the
    unicode minus sign are interchangeable.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or not m.group(0).strip():
            if text[pos:].strip():
                raise AlgebraError(f"unexpected character {text[pos:].strip()[0]!r} in expression")
            break
        tokens.append("-" if m.group(4) else m.group(0).strip())
        pos = m.end()
    tokens.reverse()  # pop from the end

    def peek() -> str | None:
        return tokens[-1] if tokens else None

    def expect(tok: str) -> None:
        if not tokens or tokens.pop() != tok:
            raise AlgebraError(f"expected {tok!r} in expression")

    def parse_factor() -> Generator:
        expect("w")
        expect("(")
        i = parse_int()
        expect(",")
        j = parse_int()
        expect(")")
        return Generator(i, j)

    def parse_int() -> int:
        tok = tokens.pop() if tokens else None
        if tok is None or not tok.isdigit():
            raise AlgebraError("expected an integer in expression")
        if len(tok := tok.lstrip("0") or "0") > MAX_INT_DIGITS:
            raise AlgebraError(
                f"integers in expressions must have at most {MAX_INT_DIGITS} digits")
        return int(tok)

    def parse_term() -> CohomologyClass:
        coeff = 1
        if peek() is not None and peek().isdigit():
            coeff = parse_int()
            expect("*")
        factors = [parse_factor()]
        while peek() == "*":
            tokens.pop()
            factors.append(parse_factor())
        return straighten(n, factors).scale(coeff)

    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if tokens.pop() == "-" else 1
    result = parse_term().scale(sign)
    while peek() in ("+", "-"):
        sign = -1 if tokens.pop() == "-" else 1
        result = result + parse_term().scale(sign)
    if tokens:
        raise AlgebraError("trailing tokens in expression")
    return result


def format_class(c: CohomologyClass) -> str:
    """Render as a signed sum of admissible monomials, e.g. `w(1,2)*w(2,3) - 2*w(1,3)`."""
    if c.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in c.terms:
        mag = abs(coeff)
        if mono.degree == 0:
            body = str(mag)
        elif mag == 1:
            body = str(mono)
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)
