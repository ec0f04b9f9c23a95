"""Runnable desk-scale certificates for the library's structural claims.

Each suite checks one family of identities by enumeration (exhaustively at
small genus, by seeded sampling above) and returns a SuiteReport whose
failures, if any, carry a minimal witness replayable through the CLI.
Sampling uses random.Random (the stdlib Mersenne Twister), so reports are
bit-for-bit reproducible for a given (parameter, sample, seed).
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from .arnold import rank, straighten, w
from .decomposition import (
    _coordinates,
    build_balanced_tree,
    decompose,
    epsilon,
    k_sequences,
    perm_sign_of,
    unit_triangular_certificate,
)
from .errors import DomainError
from .rewrite import is_cyclic_triple, reduce_to_balanced, rotation_triple
from .trees import Tree, descendant_sets, enumerate_balanced, enumerate_trees

T = TypeVar("T")
U = TypeVar("U")


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


def _map_cases(fn: Callable[[T], U], cases: Sequence[T], threads: int) -> list[U]:
    if threads <= 1:
        return [fn(c) for c in cases]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cases))


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def verify_counts(g: int, ceiling: int = 8) -> SuiteReport:
    """Tree and balanced-tree counts against the closed formulas."""
    if not 3 <= g <= ceiling:
        raise DomainError(f"genus {g} outside configured range 3..{ceiling}")
    start = time.perf_counter()
    failures = []
    checks = (
        ("trees", len(enumerate_trees(g)), _double_factorial(2 * g - 5)),
        ("balanced", len(enumerate_balanced(g)), math.factorial(g - 2)),
    )
    for name, got, expected in checks:
        if got != expected:
            failures.append({"check": name, "g": g, "got": got, "expected": expected})
    return SuiteReport("counts", g, len(checks), failures,
                       int((time.perf_counter() - start) * 1000))


def verify_duality(g: int, ceiling: int = 7, threads: int = 1) -> SuiteReport:
    """Balanced-basis duality: diagonal +-1 table in canonical ordering and
    lower-unitriangular incidence matrices in construction ordering."""
    if not 3 <= g <= ceiling:
        raise DomainError(f"genus {g} outside configured range 3..{ceiling}")
    start = time.perf_counter()
    ks = k_sequences(g)
    trees = [build_balanced_tree(k) for k in ks]
    size = g - 2

    def check_column(col: int) -> list[dict]:
        k = ks[col]
        tree = trees[col]
        bad = []
        coords = _coordinates(tree)
        eps = epsilon(k)
        for row in sorted(coords.keys() | {k}):
            expected = eps if row == k else 0
            if coords.get(row, 0) != expected:
                bad.append({"check": "canonical-table", "k": list(row),
                            "tree": tree.render(), "got": coords.get(row, 0),
                            "expected": expected})
        cert = unit_triangular_certificate(k)
        for i in range(size):
            if cert[i][i] != 1 or any(cert[i][j] != 0 for j in range(i + 1, size)):
                bad.append({"check": "construction-unitriangular", "k": list(k),
                            "matrix": [list(r) for r in cert]})
                break
        return bad

    failures = [f for sub in _map_cases(check_column, range(len(ks)), threads) for f in sub]
    failures.sort(key=lambda f: (f["check"], str(f.get("k"))))
    return SuiteReport("duality", g, len(ks) * len(ks) + len(ks), failures,
                       int((time.perf_counter() - start) * 1000))


def relation_cases(g: int) -> list[tuple[Tree, int]]:
    """Every (tree, node) pair eligible for rotation at genus g."""
    return [(t, pos)
            for t in enumerate_trees(g)
            for pos, s in enumerate(descendant_sets(t), start=1)
            if len(s) >= 3]


def verify_relations(g: int, sample: int = 10000, seed: int = 0,
                     threads: int = 1) -> SuiteReport:
    """Cyclic-triple relation: every rotation triple matches the pattern and
    its three aligned determinant vectors sum to zero.

    Exhaustive for g <= 5; above that, `sample` cases are drawn with
    replacement by random.Random(seed).
    """
    if g < 3:
        raise DomainError(f"genus must be at least 3, got {g}")
    _check_sample(sample)
    start = time.perf_counter()
    pool = relation_cases(g)
    if g <= 5:
        cases = pool
    else:
        cases = [pool[i] for i in _sample_indices(len(pool), sample, seed)]

    def check_case(case: tuple[Tree, int]) -> list[dict]:
        tree, pos = case
        triple = rotation_triple(tree, pos)
        trees = [ot.tree for ot in triple.trees]

        def witness(check: str) -> dict:
            return {"check": check, "tree": tree.render(), "node": pos,
                    "triple": [t.render() for t in trees]}

        bad = []
        if is_cyclic_triple(*trees) is None:
            bad.append(witness("pattern"))
        coords = [_coordinates(ot.tree, ot.ordering) for ot in triple.trees]
        failing = [k for k in sorted(coords[0].keys() | coords[1].keys() | coords[2].keys())
                   if sum(c.get(k, 0) for c in coords)]
        if failing:
            bad.append({**witness("determinant-sum"), "k": list(failing[0]),
                        "dets": [c.get(failing[0], 0) for c in coords]})
        return bad

    failures = [f for sub in _map_cases(check_case, cases, threads) for f in sub]
    failures.sort(key=lambda f: (f["check"], f["tree"], f["node"]))
    return SuiteReport("relations", g, len(cases), failures,
                       int((time.perf_counter() - start) * 1000))


def _check_sample(sample: int) -> None:
    if sample < 1:
        raise DomainError(f"sample must be at least 1, got {sample}")


def _sample_indices(size: int, sample: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(size) for _ in range(sample)]


def verify_crosspath(g: int, threads: int = 1) -> SuiteReport:
    """Determinant route against the rewriting route, tree by tree."""
    if g < 3:
        raise DomainError(f"genus must be at least 3, got {g}")
    start = time.perf_counter()
    trees = enumerate_trees(g)

    def check_tree(t: Tree) -> list[dict]:
        via_det = decompose(t)
        via_rewrite = reduce_to_balanced(t).to_decomposition()
        if via_det == via_rewrite:
            return []
        return [{"check": "crosspath", "tree": t.render(),
                 "determinant": via_det.to_json(), "rewrite": via_rewrite.to_json()}]

    failures = [f for sub in _map_cases(check_tree, trees, threads) for f in sub]
    failures.sort(key=lambda f: f["tree"])
    return SuiteReport("crosspath", g, len(trees), failures,
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
    "counts": lambda param, seed, sample, threads: verify_counts(param),
    "duality": lambda param, seed, sample, threads: verify_duality(param, threads=threads),
    "relations": lambda param, seed, sample, threads: verify_relations(
        param, sample=sample, seed=seed, threads=threads),
    "crosspath": lambda param, seed, sample, threads: verify_crosspath(param, threads=threads),
    "arnold": lambda param, seed, sample, threads: verify_arnold(param, sample=sample, seed=seed),
}
