"""Tests of the benchmark's own code: input generation, checks and metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import array
import collections
import itertools
import json
import random
import sys
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import braidcycles as bc  # noqa: E402
import remy  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


def leaf_sets(node) -> frozenset:
    """The descendant leaf sets of a generated tree's internal nodes."""
    if isinstance(node, int):
        return frozenset()
    below = leaf_sets(node[0]) | leaf_sets(node[1])
    return below | {frozenset(leaves(node))}


def leaves(node):
    return [node] if isinstance(node, int) else leaves(node[0]) + leaves(node[1])


def all_choices(genus):
    """Every Rémy choice sequence; they map one to one onto the trees."""
    return itertools.product(*(range(2 * m - 3) for m in range(3, genus)))


def library_families(genus):
    return {frozenset(bc.descendant_sets(t)) for t in bc.enumerate_trees(genus)}


def test_remy_reaches_all_105_trees_at_genus_6():
    rng = random.Random(0)
    seen = collections.Counter(leaf_sets(remy.remy_tree(6, rng)) for _ in range(10500))
    assert set(seen) == library_families(6)
    assert len(seen) == 105
    # 100 expected draws per tree; a fixed seed keeps this deterministic
    assert 50 < min(seen.values()) and max(seen.values()) < 150


def test_remy_choices_biject_onto_all_trees():
    families = [leaf_sets(remy.tree_from_choices(6, c)) for c in all_choices(6)]
    assert len(families) == len(set(families)) == 105


def test_streams_repeat_exactly_for_a_seed():
    for workload in ("query-det", "query-rewrite"):
        first = list(itertools.islice(remy.query_inputs(workload, 7), 300))
        again = list(itertools.islice(remy.query_inputs(workload, 7), 300))
        other = list(itertools.islice(remy.query_inputs(workload, 8), 300))
        assert first == again
        assert first != other


def test_texts_parse_to_the_generated_tree_and_are_not_canonical():
    rng = random.Random(1)
    non_canonical = 0
    for _ in range(200):
        tree = remy.remy_tree(8, rng)
        text = remy.shuffled_text(tree, rng)
        parsed = bc.parse_tree(text)
        assert frozenset(parsed.descendant_sets()) == leaf_sets(tree)
        non_canonical += text != parsed.render()
    assert non_canonical > 150


def test_choice_indices_enumerate_choices_in_order():
    assert [remy.choices_at(7, i) for i in range(945)] == [list(c) for c in all_choices(7)]


def test_stratified_blocks_cover_the_cost_order_evenly():
    ordered = list(range(105))[::-1]  # every genus-6 tree, in some order
    stream = remy.stratified_trees(6, ordered, random.Random(3), block=105)
    trees = [leaf_sets(t) for t in itertools.islice(stream, 105 * 5)]
    # with one point per tree, each block is every tree once, shuffled
    blocks = [trees[start:start + 105] for start in range(0, len(trees), 105)]
    assert all(set(block) == library_families(6) for block in blocks)
    assert blocks[0] != blocks[1]


def test_support_table_orders_every_genus_9_tree():
    table = array.array("I", zlib.decompress(remy.SUPPORT_TABLE.read_bytes()))
    if sys.byteorder == "big":
        table.byteswap()
    assert list(table) == sorted(table)
    assert sorted(remy.load_support_table()) == list(range(remy.GENUS9_TREES))
    rng = random.Random(5)
    indices = remy.load_support_table()
    for place in [0, len(table) - 1] + rng.sample(range(len(table)), 4):
        tree = remy.tree_from_choices(9, remy.choices_at(9, indices[place]))
        parsed = bc.parse_tree(remy.shuffled_text(tree, rng))
        assert len(bc.decompose(parsed).coefficients) == table[place] >> remy.INDEX_BITS


def test_query_runs_pass_their_checks():
    for workload in ("query-det", "query-rewrite"):
        inputs = itertools.islice(worker.episode_inputs(workload, 1, 0), 40)
        result = worker.run(bc, workload, seed=1, seconds=0.2, trace=True, check=True,
                            inputs=inputs)
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert result["checked"] >= 1
        assert result["layers"]["trees.parse_tree"][0] == result["attempted"]


def test_a_wrong_determinant_answer_shows_as_failed(monkeypatch):
    decompose = bc.decompose

    def wrong(tree):
        right = decompose(tree)
        return bc.CycleDecomposition(right.g, right.coefficients[1:])

    monkeypatch.setattr(bc, "decompose", wrong)
    result = worker.run(bc, "query-det", seed=1, seconds=0.2, trace=False, check=True)
    assert result["failed"] / result["attempted"] > 0


def test_a_wrong_rewriting_answer_shows_as_failed(monkeypatch):
    reduce_to_balanced = bc.reduce_to_balanced

    def wrong(tree):
        right = reduce_to_balanced(tree)
        return bc.SignedTreeSum(right.g, tuple((t, -c) for t, c in right.terms))

    monkeypatch.setattr(bc, "reduce_to_balanced", wrong)
    inputs = itertools.islice(worker.episode_inputs("query-rewrite", 1, 0), 1)
    result = worker.run(bc, "query-rewrite", seed=1, seconds=0, trace=False, check=True,
                        inputs=inputs)
    assert result["attempted"] == result["checked"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_certify_checks_exit_code_failures_and_exact_counts():
    ok = {"suite": "duality", "cases": 14520, "failures": [], "millis": 30}
    assert run.check_invocation(14520, 0, ok) is None
    assert run.check_invocation(14520, 2, ok) == "exit code 2"
    assert run.check_invocation(14521, 0, ok) is not None
    failing = dict(ok, failures=[{"check": "canonical-table"}])
    assert run.check_invocation(14520, 0, failing) is not None
    assert run.check_invocation(135135, 0, {"count": 135135, "g": 9}) is None
    assert run.check_invocation(135135, 0, {"count": 135134, "g": 9}) is not None
    assert run.check_invocation(2, 0, None) is not None


def test_a_wrong_cli_answer_shows_as_failed(monkeypatch):
    wrong = run.Child(0, '{"suite": "counts", "cases": 3, "failures": []}', "", 1.0, 50.0, None)
    monkeypatch.setattr(run, "run_child", lambda argv, deadline: wrong)
    records = run.certify_pass(0, deadline=0.0, call=lambda name, fn, *a: fn(*a))
    assert sum(not r["ok"] for r in records) / len(records) > 0


def test_a_rewrite_episode_is_a_fixed_number_of_ops():
    texts = [text for text, _ in worker.episode_inputs("query-rewrite", 1, 2)]
    assert len(texts) == worker.EPISODE_OPS["query-rewrite"]
    assert texts != [text for text, _ in worker.episode_inputs("query-rewrite", 1, 3)]


def test_episodes_merge_into_one_run():
    def episode(latencies, rss):
        n = len(latencies)
        return {"latencies": latencies, "attempted": n, "failed": 0, "errors": 0,
                "checked": 1, "terms": 2 * n, "support": 0, "rss_mb": rss,
                "cache_entries": 10 * n, "genus": 9}

    merged = run.merge_episodes([episode([0.1, 0.2], 50.0), episode([0.3], 60.0)])
    assert merged["latencies"] == [0.1, 0.2, 0.3]
    assert (merged["attempted"], merged["checked"], merged["terms"]) == (3, 2, 6)
    assert (merged["rss_mb"], merged["cache_entries"]) == (60.0, 20)


def test_latency_percentiles_average_over_whole_windows():
    fast, slow = [1.0] * run.WINDOW_OPS, [2.0] * run.WINDOW_OPS
    # a pooled median would read 2.0 here, whichever speed held just over half
    assert run.windowed_quantile(fast + slow + slow + [9.0], 50) == 5 / 3
    assert run.windowed_quantile([1.0, 3.0], 50) == 2.0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer("outer", lambda: [tracer("inner", sum, range(10000)) for _ in range(3)])
    times = tracer.self_times()
    outer, inner = tracer.spans[0], tracer.spans[1:]
    assert times["inner"][0] == 3 and times["outer"][0] == 1
    covered = sum(end - start for _, start, end, _ in inner)
    assert abs(times["outer"][1] - (outer[2] - outer[1] - covered)) < 1e-9
    assert all(parent == 0 for *_, parent in inner)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
