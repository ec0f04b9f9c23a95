"""One benchmark process: set up, then run a query workload for a fixed time
or, on query-rewrite, for one episode of a fixed number of ops.

Started by run.py with the library's `src` directory on PYTHONPATH.  It
prints `ready` once the library is imported and the input stream is built,
then one JSON line with the run's raw measurements.  Library calls go through
a call hook, which is a straight call in an untraced run and a span recorder
in a traced one.

    PYTHONPATH=src python3 perfbench/worker.py --workload query-det --seed 1 --seconds 30
    PYTHONPATH=src python3 perfbench/worker.py --workload query-rewrite --seed 1 --episode 2
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import platform
import random
import resource
import sys
import time

from remy import GENUS, query_inputs
from spans import Tracer, untraced

# Peak RSS and cache sizes are read after this many ops, so that a faster
# program, which gets through more trees in the time box, is not charged for
# the extra trees it holds.
PREFIX_OPS = {"query-det": 300, "query-rewrite": 600}
# query-rewrite runs in episodes of this many ops, each in a fresh process.
# Its caches warm over thousands of trees (the same op is twice as fast
# after 2,000 trees as at the start), so in one long process a slower
# machine state would also mean colder caches.  Whole episodes keep every
# op at the same place in that curve from run to run.
EPISODE_OPS = {"query-rewrite": 600}
# query-rewrite outputs per episode checked against the determinant route
# (about 0.2 s each)
REWRITE_CHECKS = 4


def det_op(bc, call, text, k):
    tree = call("trees.parse_tree", bc.parse_tree, text)
    decomposition = call("decomposition.decompose", bc.decompose, tree)
    return decomposition, call("decomposition.pair", bc.pair, k, tree)


def rewrite_op(bc, call, text, k):
    tree = call("trees.parse_tree", bc.parse_tree, text)
    signed = call("rewrite.reduce_to_balanced", bc.reduce_to_balanced, tree)
    return call("rewrite.to_decomposition", signed.to_decomposition), len(signed.terms)


OPS = {"query-det": det_op, "query-rewrite": rewrite_op}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_entries() -> int:
    """Summed currsize of the library's public lru-cached functions."""
    seen: dict[int, object] = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("braidcycles.") and module is not None:
            for attr, value in vars(module).items():
                if not attr.startswith("_") and hasattr(value, "cache_info"):
                    seen[id(value)] = value
    return sum(fn.cache_info().currsize for fn in seen.values())


def run_ops(bc, workload: str, inputs, seconds: float, call) -> dict:
    """Closed loop, one op at a time, until `seconds` have passed (at least one op).

    Input generation sits outside the per-op timing; the summed per-op
    latencies are the run's timed wall time.
    """
    op = OPS[workload]
    records, latencies = [], []
    errors = 0
    probe = None
    deadline = time.perf_counter() + seconds
    for text, k in inputs:
        start = time.perf_counter()
        if records and start >= deadline:
            break
        try:
            out = call("op", op, bc, call, text, k)
        except Exception as exc:  # a failing op is counted and the run goes on
            out = None
            errors += 1
            if errors == 1:
                print(f"op failed on {text}: {exc!r}", file=sys.stderr)
        latencies.append(time.perf_counter() - start)
        records.append((text, k, out))
        if len(records) == PREFIX_OPS[workload]:
            probe = (peak_rss_mb(), cache_entries())
    rss_mb, entries = probe or (peak_rss_mb(), cache_entries())
    outputs = [out for _, _, out in records if out is not None]
    det = workload == "query-det"
    return {"records": records, "latencies": latencies, "errors": errors,
            "rss_mb": rss_mb, "cache_entries": entries,
            "support": sum(len(dec.coefficients) for dec, _ in outputs) if det else 0,
            "terms": 0 if det else sum(terms for _, terms in outputs)}


def check_det(bc, records) -> int:
    """Mismatches of each op against the rewriting route: the decomposition,
    and the pairing, which is (-1)^C(g-2,2) times the k-th coordinate."""
    bad = 0
    for text, k, out in records:
        if out is None:
            continue
        decomposition, value = out
        sign = -1 if math.comb(decomposition.g - 2, 2) % 2 else 1
        try:
            expected = bc.reduce_to_balanced(bc.parse_tree(text)).to_decomposition()
        except Exception as exc:
            print(f"check failed on {text}: {exc!r}", file=sys.stderr)
            bad += 1
            continue
        if decomposition != expected or value != sign * expected.as_dict().get(k, 0):
            bad += 1
    return bad


def check_rewrite(bc, records, seed: int, episode: int) -> tuple[int, int]:
    """(mismatches, ops checked): a seeded subset against the determinant route."""
    rng = random.Random(f"check:{seed}:{episode}")
    chosen = rng.sample(range(len(records)), min(REWRITE_CHECKS, len(records)))
    bad = 0
    for i in chosen:
        text, _, out = records[i]
        if out is None:
            continue
        try:
            if bc.decompose(bc.parse_tree(text)) != out[0]:
                bad += 1
        except Exception as exc:
            print(f"check failed on {text}: {exc!r}", file=sys.stderr)
            bad += 1
    return bad, len(chosen)


def episode_inputs(workload: str, seed: int, episode: int):
    """The inputs of one worker run: a whole episode, or an endless stream."""
    stream = query_inputs(workload, seed, episode)
    if workload in EPISODE_OPS:
        return itertools.islice(stream, EPISODE_OPS[workload])
    return stream


def run(bc, workload: str, seed: int, seconds: float, trace: bool, check: bool,
        inputs=None, episode: int = 0) -> dict:
    """Run the workload, check it, and return the raw measurements.

    An episode workload runs its whole episode and ignores `seconds`.
    """
    if inputs is None:
        inputs = episode_inputs(workload, seed, episode)
    if workload in EPISODE_OPS:
        seconds = math.inf
    tracer = Tracer() if trace else None
    if tracer:
        with tracer:
            result = run_ops(bc, workload, inputs, seconds, tracer)
    else:
        result = run_ops(bc, workload, inputs, seconds, untraced)
    records = result.pop("records")
    mismatches, checked = 0, 0
    if check and workload == "query-det":
        mismatches, checked = check_det(bc, records), len(records)
    elif check:
        mismatches, checked = check_rewrite(bc, records, seed, episode)
    result.update(attempted=len(records), failed=result["errors"] + mismatches,
                  checked=checked, genus=GENUS[workload])
    if tracer:
        result.update(layers=tracer.self_times(), spans=tracer.spans,
                      gc_pause_s=tracer.gc_pause_s, gc_collections=tracer.gc_collections)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", *GENUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--episode", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up; certify has nothing else to run")
    args = parser.parse_args()

    start = time.perf_counter()
    bc = importlib.import_module("braidcycles")
    numpy = sys.modules.get("numpy")
    info = {"import_s": time.perf_counter() - start,
            "python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", None)}
    inputs = None
    if args.workload in GENUS:
        stream = episode_inputs(args.workload, args.seed, args.episode)
        inputs = itertools.chain([next(stream)], stream)
    print("ready", flush=True)
    if not args.setup_only:
        info.update(run(bc, args.workload, args.seed, args.seconds,
                        bool(args.trace), bool(args.check), inputs, args.episode))
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
