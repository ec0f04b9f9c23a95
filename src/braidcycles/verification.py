"""Runnable desk-scale certificates for the library's structural claims.

Each suite checks one family of identities by enumeration (exhaustively at
small genus, by seeded sampling above) and returns a SuiteReport whose
failures, if any, carry a minimal witness replayable through the CLI.
Sampling uses random.Random (the stdlib Mersenne Twister), so reports are
bit-for-bit reproducible for a given (parameter, sample, seed).  The
relations suite runs on canonical mask families: it rotates as the rewriting
engine does, signs each canonical coordinate by the rotation's ordering
parity, and builds trees only for failure witnesses.  Cases run serially:
every check holds the GIL, so worker threads only slowed suites down.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .arnold import perm_sign_of, rank, straighten, w
from .decomposition import (
    CycleDecomposition,
    KSequence,
    _coordinates,
    _support,
    build_balanced_tree,
    decompose,
    det,
    duality_table,
    epsilon,
    incidence_matrix,
    k_sequences,
    unit_triangular_certificate,
)
from .errors import DomainError
from .rewrite import CyclicTriple, _cyclic_blocks, _reduce, _rotated
from .trees import _CACHE_CAP, Masks, _build, _listing, _tree_count, _tree_lists

MAX_SAMPLE = 1_000_000  # the most cases a sampling suite draws: arnold at n=6 takes ~50 s


@dataclass
class SuiteReport:
    """Outcome of one verification suite run."""

    suite: str
    param: int
    cases: int
    failures: list[dict] = field(default_factory=list)
    millis: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "param": self.param,
            "cases": self.cases,
            "failures": self.failures,
            "millis": self.millis,
        }


def verify_counts(g: int) -> SuiteReport:
    """Tree and balanced-tree counts against the closed formulas."""
    if not 3 <= g <= 8:
        raise DomainError(f"genus {g} outside configured range 3..8")
    start = time.perf_counter()
    failures = []
    checks = (("trees", False), ("balanced", True))
    for name, balanced in checks:
        got, expected = len(_tree_lists(g, balanced)[1]), _tree_count(g, balanced)
        if got != expected:
            failures.append({"check": name, "g": g, "got": got, "expected": expected})
    return SuiteReport("counts", g, len(checks), failures,
                       int((time.perf_counter() - start) * 1000))


def verify_duality(g: int) -> SuiteReport:
    """Balanced-basis duality: diagonal +-1 table in canonical ordering and
    lower-unitriangular incidence matrices in construction ordering."""
    if not 3 <= g <= 7:
        raise DomainError(f"genus {g} outside configured range 3..7")
    start = time.perf_counter()
    ks = k_sequences(g)
    table = duality_table(g)
    size = g - 2
    failures = []
    for col, k in enumerate(ks):
        eps = epsilon(k)
        for row, line in zip(ks, table):
            expected = eps if row == k else 0
            if line[col] != expected:
                failures.append({"check": "canonical-table", "k": list(row),
                                 "tree": build_balanced_tree(k).render(), "got": line[col],
                                 "expected": expected})
        cert = unit_triangular_certificate(k)
        for i in range(size):
            if cert[i][i] != 1 or any(cert[i][j] != 0 for j in range(i + 1, size)):
                failures.append({"check": "construction-unitriangular", "k": list(k),
                                 "matrix": [list(r) for r in cert]})
                break
    failures.sort(key=lambda f: (f["check"], str(f.get("k"))))
    return SuiteReport("duality", g, len(ks) * len(ks) + len(ks), failures,
                       int((time.perf_counter() - start) * 1000))


def relation_cases(g: int) -> list[tuple[Masks, int]]:
    """Every (canonical family, node) pair eligible for rotation at genus g."""
    return [(family, pos) for _, family in _listing(g, False)
            for pos, s in enumerate(family, start=1) if s.bit_count() >= 3]


def verify_relations(g: int, sample: int = 10000, seed: int = 0) -> SuiteReport:
    """Cyclic-triple relation: every rotation triple matches the pattern and
    its three aligned determinant vectors sum to zero.

    Exhaustive for g <= 5; above that, `sample` cases are drawn with
    replacement by random.Random(seed).  Each check is a pure function of its
    case, so a case drawn more than once is checked once and its failures are
    repeated per draw: the report is the same as checking every draw.
    """
    if g < 3:
        raise DomainError(f"genus must be at least 3, got {g}")
    if g == 3:  # the suite would pass vacuously
        raise DomainError("genus 3 trees have no node to rotate; relations needs genus >= 4")
    _check_sample(sample)
    start = time.perf_counter()
    pool = relation_cases(g)
    draws = range(len(pool)) if g <= 5 else _sample_indices(len(pool), sample, seed)

    # an aligned determinant is the sign _rotated returns times the canonical
    # one; each family's support, not its expansion, is kept in a bounded cache
    support = functools.lru_cache(maxsize=_CACHE_CAP)(_support)

    def check_case(family: Masks, pos: int) -> list[dict]:
        entries = ((family, 1), *_rotated(family, pos)[1:])

        def witness(check: str) -> dict:
            return {"check": check, "tree": _build(family).render(), "node": pos,
                    "triple": [_build(f).render() for f, _ in entries]}

        bad = []
        if _cyclic_blocks(*(f for f, _ in entries)) is None:
            bad.append(witness("pattern"))
        total: dict[KSequence, int] = {}
        for f, sign in entries:
            c, choices = support(f)
            for k in itertools.product(*choices):
                total[k] = total.get(k, 0) + sign * c
        failing = min((k for k, c in total.items() if c), default=None)
        if failing is not None:
            dets = []  # each read from the support the check summed
            for f, sign in entries:
                c, choices = support(f)
                dets.append(sign * c if all(map(tuple.__contains__, choices, failing)) else 0)
            bad.append({**witness("determinant-sum"), "k": list(failing), "dets": dets})
        return bad

    # one check per distinct draw, in order of first draw; bounded by the pool
    checked = {i: check_case(*pool[i]) for i in dict.fromkeys(draws)}
    failures = [f for i in draws for f in checked[i]]
    failures.sort(key=lambda f: (f["check"], f["tree"], f["node"]))
    return SuiteReport("relations", g, len(draws), failures,
                       int((time.perf_counter() - start) * 1000))


def _check_sample(sample: int) -> None:
    if sample < 1:
        raise DomainError(f"sample must be at least 1, got {sample}")
    if sample > MAX_SAMPLE:
        raise DomainError(f"sample is over the sampling budget of {MAX_SAMPLE}")


def _sample_indices(size: int, sample: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(size) for _ in range(sample)]


def verify_cyclic_determinant_identity(triple: CyclicTriple) -> bool:
    """Check that the three aligned incidence determinants sum to zero for
    every index sequence."""
    g = triple.trees[0].tree.genus
    for k in k_sequences(g):
        total = sum(det(incidence_matrix(k, ot.tree, ordering=ot.ordering))
                    for ot in triple.trees)
        if total != 0:
            return False
    return True


def verify_crosspath(g: int) -> SuiteReport:
    """Determinant route against the rewriting route, family by family, in
    split order, where trees that share subtrees are neighbours for the memo.
    A Tree is built only for a failure witness; failures are sorted by text."""
    start = time.perf_counter()
    families, texts = _tree_lists(g, False)
    failures = []
    for family, text in zip(families, texts):
        via_rewrite = _reduce(family)[0]
        if _coordinates(family) != via_rewrite:
            failures.append({"check": "crosspath", "tree": text,
                             "determinant": decompose(_build(family)).to_json(),
                             "rewrite": CycleDecomposition.from_dict(g, via_rewrite).to_json()})
    failures.sort(key=lambda f: f["tree"])
    return SuiteReport("crosspath", g, len(families), failures,
                       int((time.perf_counter() - start) * 1000))


def verify_arnold(n: int, sample: int = 1000, seed: int = 0) -> SuiteReport:
    """Ring checks: graded ranks against the generating polynomial, all
    relation instances straightening to zero, and seeded confluence samples."""
    if not 2 <= n <= 6:
        raise DomainError(f"strand count {n} outside supported range 2..6")
    _check_sample(sample)
    start = time.perf_counter()
    failures = []

    poly = [1]
    for i in range(1, n):
        poly = [a + i * b for a, b in zip(poly + [0], [0] + poly)]
    for p in range(n + 1):
        expected = poly[p] if p < len(poly) else 0
        got = rank(n, p)
        if got != expected:
            failures.append({"check": "rank", "p": p, "got": got, "expected": expected})

    triples = [(k, l, m)
               for k in range(1, n + 1)
               for l in range(k + 1, n + 1)
               for m in range(l + 1, n + 1)]
    for k, l, m in triples:
        total = (straighten(n, [w(k, l), w(l, m)])
                 + straighten(n, [w(l, m), w(m, k)])
                 + straighten(n, [w(m, k), w(k, l)]))
        if not total.is_zero():
            failures.append({"check": "relation", "triple": [k, l, m],
                             "result": str(total)})

    gens = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    rng = random.Random(seed)
    for case in range(sample):
        p = rng.randint(1, min(4, len(gens)))
        chosen = rng.sample(gens, p)
        perm = list(range(p))
        rng.shuffle(perm)
        sign = perm_sign_of(perm)
        lhs = straighten(n, [w(*chosen[i]) for i in perm])
        rhs = straighten(n, [w(*f) for f in chosen]).scale(sign)
        if lhs != rhs:
            failures.append({"check": "confluence", "case": case,
                             "factors": chosen, "perm": perm})

    cases = (n + 1) + len(triples) + sample
    return SuiteReport("arnold", n, cases, failures,
                       int((time.perf_counter() - start) * 1000))


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "counts": lambda param, seed, sample: verify_counts(param),
    "duality": lambda param, seed, sample: verify_duality(param),
    "relations": lambda param, seed, sample: verify_relations(param, sample=sample, seed=seed),
    "crosspath": lambda param, seed, sample: verify_crosspath(param),
    "arnold": lambda param, seed, sample: verify_arnold(param, sample=sample, seed=seed),
}
