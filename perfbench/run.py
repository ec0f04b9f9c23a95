"""braidcycles benchmark: certify, query-det and query-rewrite.

Run from the repository root:

    python3 perfbench/run.py --workload query-det --seed 1 --seconds 30 --trace 0

It prints a stamp line, one line per metric with its unit, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced run gives the per-layer ones, writes its spans under .perfbench_out/,
and reports the tracing overhead against an untraced run of the same inputs.
Each workload is a closed loop with one client.  The library is imported
from src/ in fresh processes; this script only starts them and reads them.
See perfbench/README.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, untraced, write_spans
from worker import EPISODE_OPS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "query-det", "query-rewrite")
# Cold starts per run, half before and half after the measurement, so that
# their median spans the machine's state over the whole run.
SETUP_PROBES = 6
# The whole run must end within 180 s; children still running then are killed.
DEADLINE_S = 170.0
# Query latency percentiles are taken in each window of this many
# consecutive ops and averaged over the windows.  The machine switches
# between two speeds about 1.5x apart for minutes at a time.  Op costs on
# query-det are so even that the latencies of one run form one narrow peak
# per speed, and a percentile of them all jumps from one peak to the other
# as the share of the run spent at each speed crosses it; the mean of the
# windows' percentiles moves in proportion to that share instead.  On
# query-rewrite a window is one stratified block of trees.
WINDOW_OPS = 200

# The acceptance-size CLI invocations: (name, arguments, exact case count).
CERTIFY = (
    ("counts", "verify --suite counts --g 8", 2),
    ("duality", "verify --suite duality --g 7", 14520),
    ("relations", "verify --suite relations --g 7 --sample 10000 --seed {seed}", 10000),
    ("relations_t2", "verify --suite relations --g 7 --sample 10000 --seed {seed} --threads 2",
     10000),
    ("crosspath", "verify --suite crosspath --g 7", 945),
    ("arnold", "verify --suite arnold --n 6 --sample 1000 --seed {seed}", 1027),
    ("trees", "trees --g 9 --count", 135135),
)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    calls = (("calls", "count"), ("self_s", "s"), ("self_ms_per_call", "ms"))
    names = [(f"{span}.{field}", unit)
             for span in ("trees.parse_tree", "decomposition.decompose", "decomposition.pair",
                          "rewrite.reduce_to_balanced", "rewrite.to_decomposition")
             for field, unit in calls]
    names += [("decomposition.coords", "count"), ("decomposition.support", "count"),
              ("decomposition.support_ratio", "ratio"), ("rewrite.terms", "count"),
              ("trees.cache_entries", "count"), ("runtime.gc_pause_s", "s"),
              ("runtime.gc_collections", "count"), ("trace.overhead_pct", "%"),
              ("cli.import_s", "s")]
    for inv, args, _ in CERTIFY:
        names += [(f"cli.{inv}.wall_s", "s"), (f"cli.{inv}.rss_mb", "MB")]
        if args.startswith("verify"):
            names += [(f"cli.{inv}.overhead_s", "s"), (f"verification.{inv}.millis", "ms"),
                      (f"verification.{inv}.cases_per_s", "1/s")]
    return tuple(names)


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    ready_s: float | None


def run_child(argv: list[str], deadline: float, wait_ready: bool = False) -> Child:
    """Run one process to its end; peak RSS comes from os.wait4 for this child only.

    With wait_ready, ready_s is the time until the child printed `ready`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    errors: list[str] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    try:
        killer.start()
        reader.start()
        ready_s = None
        if wait_ready and proc.stdout.readline() == "ready\n":
            ready_s = time.perf_counter() - start
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode < 0 and time.perf_counter() >= deadline:
        raise BenchError(f"{' '.join(argv)} was stopped at the {DEADLINE_S:.0f} s deadline")
    return Child(proc.returncode, out, "".join(errors), wall_s,
                 usage.ru_maxrss / 1024, ready_s)


def worker_argv(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]


def last_json(child: Child, what: str) -> dict:
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        raise BenchError(f"{what} exited with {child.returncode}")
    return json.loads(lines[-1])


def setup(workload: str, seed: int, deadline: float) -> tuple[list[float], list[dict]]:
    """SETUP_PROBES // 2 cold starts of a worker that imports the library and
    builds the inputs."""
    times, infos = [], []
    for _ in range(SETUP_PROBES // 2):
        child = run_child(worker_argv(workload, seed, "--setup-only"), deadline, True)
        infos.append(last_json(child, "set-up probe"))
        times.append(child.ready_s)
    return times, infos


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def windows(latencies: list[float]) -> list[list[float]]:
    """Whole windows of WINDOW_OPS consecutive ops; all ops when there are fewer."""
    whole = [latencies[i:i + WINDOW_OPS]
             for i in range(0, len(latencies) - WINDOW_OPS + 1, WINDOW_OPS)]
    return whole or [latencies]


def windowed_quantile(latencies: list[float], q: int) -> float:
    """The q-th percentile of each window, averaged over the windows."""
    return statistics.fmean(quantile(window, q) for window in windows(latencies))


# --- certify -------------------------------------------------------------------

def check_invocation(expected: int, returncode: int, report: dict | None) -> str | None:
    """None when an invocation's exit code and JSON report are right, else what is wrong."""
    if returncode != 0:
        return f"exit code {returncode}"
    if not isinstance(report, dict):
        return "output is not a JSON object"
    if "suite" in report:
        if report.get("failures") != []:
            return f"failures: {report.get('failures')!r:.200}"
        got = report.get("cases")
    else:
        got = report.get("count")
    if got != expected:
        return f"{got!r} cases, expected {expected}"
    return None


def run_invocation(inv: str, args: str, expected: int, seed: int, deadline: float) -> dict:
    argv = [sys.executable, "-m", "braidcycles", *args.format(seed=seed).split(),
            "--format", "json"]
    child = run_child(argv, deadline)
    try:
        report = json.loads(child.stdout)
    except ValueError:
        report = None
    problem = check_invocation(expected, child.returncode, report)
    if problem:
        print(f"certify {inv}: {problem}", file=sys.stderr)
        sys.stderr.write(child.stderr[-2000:])
    millis = report.get("millis") if isinstance(report, dict) else None
    return {"inv": inv, "wall_s": child.wall_s, "rss_mb": child.rss_mb,
            "ok": problem is None, "millis": millis,
            "cases": report.get("cases") if millis is not None else None}


def certify_pass(seed: int, deadline: float, call) -> list[dict]:
    return [call(f"cli.{inv}", run_invocation, inv, args, expected, seed, deadline)
            for inv, args, expected in CERTIFY]


def run_certify(seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Whole passes over CERTIFY, at least one, while the last pass still fits."""
    if trace:
        start = time.perf_counter()
        reference = certify_pass(seed, deadline, untraced)
        middle = time.perf_counter()
        tracer = Tracer()
        traced = tracer("pass", certify_pass, seed, deadline, tracer)
        passes = [middle - start, time.perf_counter() - middle]
        return {"records": reference + traced, "passes": passes, "tracer": tracer,
                "overhead_pct": 100 * (passes[1] / passes[0] - 1)}
    records: list[dict] = []
    passes: list[float] = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        records += certify_pass(seed, deadline, untraced)
        now = time.perf_counter()
        passes.append(now - start)
        if end - now < now - start:
            return {"records": records, "passes": passes}


def certify_metrics(run: dict) -> tuple[dict, dict]:
    """An op is one invocation; a latency sample is one whole pass, the wait
    of a user who certifies the paper."""
    records = run["records"]
    passes = run["passes"]
    end_to_end = {"ops_per_s": len(records) / sum(r["wall_s"] for r in records),
                  "latency_p50_ms": 1000 * quantile(passes, 50),
                  "latency_p90_ms": 1000 * quantile(passes, 90),
                  "peak_rss_mb": max(r["rss_mb"] for r in records)}
    layers = {}
    for r in records:  # in a traced run the traced pass comes last and wins
        inv = r["inv"]
        layers[f"cli.{inv}.wall_s"] = r["wall_s"]
        layers[f"cli.{inv}.rss_mb"] = r["rss_mb"]
        if r["millis"] is not None and r["cases"] is not None:
            layers[f"cli.{inv}.overhead_s"] = r["wall_s"] - r["millis"] / 1000
            layers[f"verification.{inv}.millis"] = r["millis"]
            layers[f"verification.{inv}.cases_per_s"] = r["cases"] * 1000 / max(r["millis"], 1)
    if "overhead_pct" in run:
        layers["trace.overhead_pct"] = run["overhead_pct"]
    return end_to_end, layers


# --- query workloads -----------------------------------------------------------

def run_episodes(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Whole untraced episodes, at least one, while the time left is at least
    half an episode, so that the run ends as close to `seconds` as it can."""
    results = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        child = run_child(worker_argv(workload, seed, "--episode", str(len(results))),
                          deadline, True)
        results.append(dict(last_json(child, f"episode {len(results)}"),
                            ready_s=child.ready_s))
        now = time.perf_counter()
        if end - now < (now - start) / 2:
            return results


def merge_episodes(results: list[dict]) -> dict:
    """One result for a run's episodes: ops and counts add up, and peak RSS
    and cache entries are the largest of any episode."""
    merged = dict(results[0])
    merged["latencies"] = [lat for r in results for lat in r["latencies"]]
    for key in ("attempted", "failed", "errors", "checked", "terms", "support"):
        merged[key] = sum(r[key] for r in results)
    for key in ("rss_mb", "cache_entries"):
        merged[key] = max(r[key] for r in results)
    return merged


def run_query(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """The measured worker runs; with trace, an untraced reference run first.

    query-det is one worker for `seconds`.  query-rewrite is whole episodes
    of EPISODE_OPS ops, each in its own worker; a traced run makes one
    episode, the same one as its untraced reference.
    """
    episodes = workload in EPISODE_OPS
    argv = worker_argv(workload, seed, "--seconds", str(seconds))
    if not trace:
        if episodes:
            results = run_episodes(workload, seed, seconds, deadline)
            return {"result": merge_episodes(results),
                    "ready_s": [r["ready_s"] for r in results]}
        child = run_child(argv + ["--trace", "0"], deadline, True)
        return {"result": last_json(child, "worker"), "ready_s": [child.ready_s]}
    reference = last_json(run_child(argv + ["--trace", "0", "--check", "0"], deadline, True),
                          "untraced reference worker")
    child = run_child(argv + ["--trace", "1"], deadline, True)
    result = last_json(child, "traced worker")
    n = min(len(result["latencies"]), len(reference["latencies"]))
    overhead = sum(result["latencies"][:n]) / sum(reference["latencies"][:n]) - 1
    return {"result": result, "ready_s": [child.ready_s], "overhead_pct": 100 * overhead}


def query_metrics(run: dict) -> tuple[dict, dict]:
    result = run["result"]
    latencies = result["latencies"]
    completed = result["attempted"] - result["errors"]
    end_to_end = {"ops_per_s": completed / sum(latencies),
                  "latency_p50_ms": 1000 * windowed_quantile(latencies, 50),
                  "latency_p90_ms": 1000 * windowed_quantile(latencies, 90),
                  "peak_rss_mb": result["rss_mb"]}
    layers = {"trees.cache_entries": result["cache_entries"],
              "rewrite.terms": result["terms"],
              "decomposition.support": result["support"]}
    for name, (calls, self_s) in result.get("layers", {}).items():
        if name != "op":
            layers.update({f"{name}.calls": calls, f"{name}.self_s": self_s,
                           f"{name}.self_ms_per_call": 1000 * self_s / calls})
    coords = layers.get("decomposition.decompose.calls", 0) * math.factorial(result["genus"] - 2)
    layers["decomposition.coords"] = coords
    layers["decomposition.support_ratio"] = result["support"] / coords if coords else 0
    if "overhead_pct" in run:
        layers.update({"trace.overhead_pct": run["overhead_pct"],
                       "runtime.gc_pause_s": result["gc_pause_s"],
                       "runtime.gc_collections": result["gc_collections"]})
    return end_to_end, layers


# --- stamp and output ------------------------------------------------------------

def commit() -> str | None:
    """HEAD of the checkout's git repository, when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args, info: dict) -> dict:
    return {"commit": commit(), "src_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": info["python"], "numpy": info["numpy"],
            "platform": platform.platform(), "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidcycles" / "__init__.py").is_file():
        print(f"error: no braidcycles package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup_times, infos = setup(args.workload, args.seed, deadline)
        if args.workload == "certify":
            run = run_certify(args.seed, args.seconds, bool(args.trace), deadline)
            end_to_end, layers = certify_metrics(run)
            attempted = len(run["records"])
            failed = sum(not r["ok"] for r in run["records"])
            tracer = run.get("tracer")
            spans = tracer.spans if tracer else None
            print(f"certify: {attempted} invocations, latency over "
                  f"{len(run['passes'])} passes")
        else:
            run = run_query(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
            setup_times += run["ready_s"]
            end_to_end, layers = query_metrics(run)
            result = run["result"]
            attempted, failed = result["attempted"], result["failed"]
            spans = result.get("spans")
            print(f"{args.workload}: {attempted} ops, latency over {attempted} samples "
                  f"in {len(windows(result['latencies']))} windows, "
                  f"{result['checked']} checked against the other route"
                  + (f", {len(run['ready_s'])} episodes" if args.workload in EPISODE_OPS else ""))
        more_times, more_infos = setup(args.workload, args.seed, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_times += more_times
    infos += more_infos

    the_stamp = stamp(args, infos[0])
    print("stamp:", json.dumps(the_stamp, sort_keys=True))
    end_to_end["setup_s"] = statistics.median(setup_times)
    layers["cli.import_s"] = statistics.median(info["import_s"] for info in infos)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(path, the_stamp, spans)
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
        chosen = PER_LAYER
        values = {name: layers.get(name, 0) for name, _ in PER_LAYER}
    else:
        chosen = END_TO_END
        values = end_to_end
    for name, unit in chosen:
        print(f"  {name} {values[name]:.6g} {unit}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in chosen}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
