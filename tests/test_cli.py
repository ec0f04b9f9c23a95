import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import braidcycles.cli as cli_module
import braidcycles.trees as trees_module
from braidcycles import decomposition, rewrite, verification
from braidcycles.cli import main
from braidcycles.decomposition import CycleDecomposition
from braidcycles.trees import descendant_sets, enumerate_balanced, enumerate_trees, tree_to_json
from braidcycles.verification import SuiteReport
from test_verification import plant_crosspath_disagreement

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


class TestTrees:
    def test_listing_text(self, run):
        code, out, _ = run("trees", "--g", "4")
        assert code == 0
        assert out == "((1,2),3)\n((1,3),2)\n((2,3),1)\n"

    def test_listing_json_golden(self, run):
        code, out, _ = run("trees", "--g", "4", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "trees_g4.json").read_text()

    def test_balanced_count(self, run):
        code, out, _ = run("trees", "--g", "5", "--balanced", "--count")
        assert code == 0
        assert out == "6\n"

    def test_count_json(self, run):
        code, out, _ = run("trees", "--g", "6", "--count", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"g": 6, "balanced": False, "count": 105}

    def test_small_genus_exits_1(self, run):
        code, _, err = run("trees", "--g", "2")
        assert code == 1
        assert "genus" in err

    @pytest.mark.parametrize("g", range(3, 9))
    @pytest.mark.parametrize("balanced", (False, True))
    def test_output_equals_library_trees(self, run, g, balanced):
        trees = enumerate_balanced(g) if balanced else enumerate_trees(g)

        def dump(payload):
            return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

        expected = {
            ("text", False): "".join(f"{t.render()}\n" for t in trees),
            ("json", False): dump([tree_to_json(t) for t in trees]),
            ("text", True): f"{len(trees)}\n",
            ("json", True): dump({"g": g, "balanced": balanced, "count": len(trees)}),
        }
        for (fmt, count), out in expected.items():
            flags = ["--balanced"] * balanced + ["--count"] * count
            assert run("trees", "--g", str(g), "--format", fmt, *flags) == (0, out, "")

    @pytest.mark.parametrize("flags, digest", (
        ((), "7c754a0c176c2a4b85515768e8b1839e05a259ff3f0edf50c3be3a1ac801890f"),
        (("--balanced",), "8a6a1161cdd81373bbaad62604d995c7599f0f31557268b986f73fb102375c46"),
        (("--balanced", "--format", "json"),
         "60a2c02901a1e128de9b31239f4f4ca5581697727efda971e2f8b2ed33b027f7"),
    ))
    def test_genus_9_listing_bytes(self, run, flags, digest):
        code, out, err = run("trees", "--g", "9", *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_count_and_text_listing_build_no_tree(self, run, monkeypatch):
        def tree_built(*args, **kwargs):
            raise AssertionError("a Tree was built")

        monkeypatch.setattr(trees_module, "_build", tree_built)
        assert run("trees", "--g", "7", "--count") == (0, "945\n", "")
        assert run("trees", "--g", "7", "--balanced", "--count", "--format", "json") == (
            0, '{"balanced":true,"count":120,"g":7}\n', "")
        assert run("trees", "--g", "4") == (0, "((1,2),3)\n((1,3),2)\n((2,3),1)\n", "")
        assert run("trees", "--g", "5", "--balanced")[:2] == (0, "".join(
            f"{text}\n" for text in sorted(trees_module._tree_lists(5, True)[1])))
        assert run("verify", "--suite", "counts", "--g", "6")[0] == 0

    @pytest.mark.parametrize("g", range(3, 11))
    def test_count_builds_no_list(self, run, monkeypatch, g):
        def lists(*args):
            raise AssertionError("a list was built")

        monkeypatch.setattr(cli_module, "_tree_lists", lists)
        monkeypatch.setattr(trees_module, "_splits", lists)
        for balanced in (False, True):
            count = trees_module._tree_count(g, balanced)
            flags = ["--balanced"] * balanced
            assert run("trees", "--g", str(g), "--count", *flags) == (0, f"{count}\n", "")
            assert run("trees", "--g", str(g), "--count", "--format", "json", *flags) == (
                0, f'{{"balanced":{str(balanced).lower()},"count":{count},"g":{g}}}\n', "")

    @pytest.mark.parametrize("g", range(3, 9))
    @pytest.mark.parametrize("balanced", (False, True))
    def test_json_listing_is_one_dump_of_all_trees(self, run, g, balanced):
        # the listing as one json.dumps over a list of every tree's entry
        trees = enumerate_balanced(g) if balanced else enumerate_trees(g)
        entries = [{"g": t.genus, "newick": t.render(),
                    "nodes": [sorted(s) for s in descendant_sets(t)]} for t in trees]
        expected = json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n"
        flags = ["--balanced"] * balanced
        assert run("trees", "--g", str(g), "--format", "json", *flags) == (0, expected, "")

    def test_json_listing_builds_no_tree(self, run, monkeypatch):
        listings = [("trees", "--g", "6", "--format", "json", *flags)
                    for flags in ((), ("--balanced",))]
        expected = [run(*argv) for argv in listings]

        def tree_built(*args, **kwargs):
            raise AssertionError("a Tree was built")

        monkeypatch.setattr(trees_module, "_build", tree_built)
        assert [run(*argv) for argv in listings] == expected

    @pytest.mark.parametrize("command, g, flags", (
        ("trees", 11, ("--count",)),
        ("trees", 11, ("--format", "json")),
        ("trees", 12, ("--balanced",)),
        ("verify", 11, ("--suite", "crosspath")),
        ("verify", 11, ("--suite", "relations")),
    ))
    def test_over_budget_exits_1_before_any_work(self, run, monkeypatch, command, g, flags):
        def parts(*args):
            raise AssertionError("the enumeration started")

        # the one split rule behind both the lists and the count
        monkeypatch.setattr(trees_module, "_parts", parts)
        code, out, err = run(command, "--g", str(g), *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: genus {g} has ")
        assert err.endswith(" trees, over the enumeration budget of 2027025\n")

    @pytest.mark.parametrize("argv, count", (
        (("trees", "--g", "3000", "--count"), "5995!! trees"),
        (("trees", "--g", "3000", "--balanced", "--count"), "2998! balanced trees"),
        (("verify", "--suite", "crosspath", "--g", "3000"), "5995!! trees"),
        (("verify", "--suite", "relations", "--g", "3000", "--sample", "10"), "5995!! trees"),
    ))
    def test_huge_genus_exits_1_with_message(self, run, monkeypatch, argv, count):
        # the count has over 9,000 digits: it is written as its formula
        def parts(*args):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(trees_module, "_parts", parts)
        assert run(*argv) == (1, "", f"error: genus 3000 has {count}, "
                                     f"over the enumeration budget of 2027025\n")


class TestDecompose:
    def test_both_json_golden(self, run):
        code, out, _ = run("decompose", "--tree", "((1,2),3)",
                           "--method", "both", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "decompose_g4_both.json").read_text()
        assert json.loads(out)["agree"] is True

    def test_byte_identical_across_runs(self, run):
        first = run("decompose", "--tree", "((1,2),3)", "--method", "both", "--format", "json")
        second = run("decompose", "--tree", "((1,2),3)", "--method", "both", "--format", "json")
        assert first == second

    def test_default_method_text(self, run):
        code, out, _ = run("decompose", "--tree", "(1,2)")
        assert code == 0
        assert out == "1 -> 1\n"

    def test_duplicate_label_exits_1(self, run):
        code, _, err = run("decompose", "--tree", "((1,1),2)")
        assert code == 1
        assert "duplicate" in err

    def test_rewrite_trace_golden(self, run):
        code, out, _ = run("decompose", "--tree", "(((1,2),3),4)",
                           "--method", "rewrite", "--trace", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "decompose_g5_rewrite_trace.json").read_text()
        payload = json.loads(out)
        assert payload["trace"][0]["triple"][0] == "(((1,2),3),4)"

    def test_trace_requires_rewrite(self, run):
        code, _, err = run("decompose", "--tree", "((1,2),3)", "--trace")
        assert code == 1
        assert "--trace" in err

    @pytest.mark.parametrize("method", ("det", "rewrite", "both"))
    def test_over_support_budget_exits_1_before_any_work(self, run, monkeypatch, method):
        def started(*args, **kwargs):
            raise AssertionError("the work started")

        monkeypatch.setattr(decomposition, "_coordinates", started)
        monkeypatch.setattr(decomposition, "_support", started)
        monkeypatch.setattr(rewrite, "_reduce", started)
        genus_12 = "(" * 10 + "1" + "".join(f",{i})" for i in range(2, 12))
        assert run("decompose", "--tree", genus_12, "--method", method) == (
            1, "", "error: genus 12 trees decompose into up to 10! terms, "
                   "over the decomposition budget of 2027025\n")

    def test_huge_label_exits_1(self, run):
        assert run("decompose", "--tree", "(1,100000000000000000000)") == (
            1, "", "error: leaf labels must be exactly 1..2, got [1, 100000000000000000000]\n")

    def test_label_over_the_digit_limit_exits_1(self, run):
        # past Python's int-string limit: refused before int() reads it
        assert run("decompose", "--tree", "(1," + "9" * 5000 + ")") == (
            1, "", "error: leaf labels must have at most 4300 digits\n")

    def test_rewrite_budget_exits_1(self, run, monkeypatch):
        # an injected divergence: every rotation gives back its input family,
        # so the genus-4 budget of (4-2)! = 2 rotations runs out
        monkeypatch.setattr(rewrite, "_replaced", lambda masks, i, new: (masks, 1))
        monkeypatch.setattr(rewrite, "_SHARED_MEMO", {})
        code, out, err = run("decompose", "--tree", "((1,2),3)", "--method", "rewrite")
        assert code == 1
        assert out == ""
        assert err == "error: rotation budget 2 exceeded; rewriting diverged\n"

    def test_deep_tree_exits_1_without_traceback(self):
        caterpillar = "(" * 1499 + "1" + "".join(f",{i})" for i in range(2, 1501))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "braidcycles", "decompose", "--tree", caterpillar],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: tree nested deeper than 100 levels\n"

    def test_disagreement_exits_2(self, run, monkeypatch):
        monkeypatch.setattr(
            "braidcycles.cli.decompose",
            lambda t: CycleDecomposition.from_dict(t.genus, {(1, 1): 7}))
        code, out, _ = run("decompose", "--tree", "((1,2),3)", "--method", "both")
        assert code == 2
        assert "agree: false" in out


class TestPair:
    def test_text(self, run):
        assert run("pair", "--k", "1,1", "--tree", "((1,3),2)") == (0, "-1\n", "")

    def test_g3(self, run):
        assert run("pair", "--k", "1", "--tree", "(1,2)") == (0, "1\n", "")

    def test_json(self, run):
        code, out, _ = run("pair", "--k", "1,2", "--tree", "((1,3),2)", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"g": 4, "k": [1, 2], "tree": "((1,3),2)", "pair": 0}

    def test_length_mismatch_exits_1(self, run):
        code, _, _ = run("pair", "--k", "1,2,1", "--tree", "(1,2)")
        assert code == 1

    def test_invalid_sequence_exits_1(self, run):
        code, _, err = run("pair", "--k", "2,1", "--tree", "((1,2),3)")
        assert code == 1
        assert "k_i" in err

    def test_unparseable_sequence_exits_1(self, run):
        code, _, _ = run("pair", "--k", "1,x", "--tree", "((1,2),3)")
        assert code == 1


class TestArnold:
    def test_relation_rewrite_golden(self, run):
        code, out, _ = run("arnold", "--n", "3", "--expr", "w(1,3)*w(2,3)",
                           "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "arnold_relation.json").read_text()

    def test_square_zero_text(self, run):
        assert run("arnold", "--n", "3", "--expr", "w(1,2)*w(1,2)") == (0, "0\n", "")

    def test_full_relation_zero(self, run):
        expr = "w(1,2)*w(2,3)+w(2,3)*w(1,3)+w(1,3)*w(1,2)"
        assert run("arnold", "--n", "3", "--expr", expr) == (0, "0\n", "")

    def test_parse_error_exits_1(self, run):
        code, _, _ = run("arnold", "--n", "3", "--expr", "w(1,2)+")
        assert code == 1

    def test_index_out_of_range_exits_1(self, run):
        code, _, _ = run("arnold", "--n", "3", "--expr", "w(1,4)")
        assert code == 1


class TestVerify:
    def test_counts_pass(self, run):
        code, out, _ = run("verify", "--suite", "counts", "--g", "5")
        assert code == 0
        assert "PASS" in out

    def test_crosspath_json_report(self, run):
        code, out, _ = run("verify", "--suite", "crosspath", "--g", "5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "crosspath"
        assert report["param"] == 5
        assert report["cases"] == 15
        assert report["failures"] == []
        assert set(report) == {"suite", "param", "cases", "failures", "millis"}

    def test_crosspath_failure_exits_2(self, run, monkeypatch):
        tree = enumerate_trees(5)[3]
        plant_crosspath_disagreement(monkeypatch, {tree._masks})
        code, out, _ = run("verify", "--suite", "crosspath", "--g", "5")
        assert code == 2
        header, witness = out.splitlines()
        assert re.fullmatch(r"crosspath param=5 cases=15 failures=1 millis=\d+ FAIL", header)
        assert json.loads(witness)["tree"] == tree.render()
        code, out, _ = run("verify", "--suite", "crosspath", "--g", "5", "--format", "json")
        assert code == 2
        assert [f["tree"] for f in json.loads(out)["failures"]] == [tree.render()]

    def test_relations_small_sample(self, run):
        code, out, _ = run("verify", "--suite", "relations", "--g", "6",
                           "--sample", "50", "--seed", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["cases"] == 50

    @pytest.mark.parametrize("suite, param, sample", [
        ("relations", "6", "0"), ("relations", "6", "-3"),
        ("arnold", "4", "0"), ("arnold", "4", "-3"),
    ])
    def test_sample_below_one_exits_1(self, run, suite, param, sample):
        code, out, err = run("verify", "--suite", suite, "--g", param, "--sample", sample)
        assert code == 1
        assert out == ""
        assert "sample must be at least 1" in err

    @pytest.mark.parametrize("suite, param, sample", [
        ("relations", "7", "99999999999999999999999"), ("arnold", "6", "99999999999999999"),
        ("relations", "7", "1000001"),
    ])
    def test_sample_over_budget_exits_1(self, run, monkeypatch, suite, param, sample):
        def drawn(*args):
            raise AssertionError("the draws started")

        monkeypatch.setattr(verification, "_sample_indices", drawn)
        assert run("verify", "--suite", suite, "--g", param, "--sample", sample) == (
            1, "", "error: sample is over the sampling budget of 1000000\n")

    def test_seeded_json_stable_modulo_millis(self, run):
        argv = ("verify", "--suite", "relations", "--g", "6",
                "--sample", "40", "--seed", "9", "--format", "json")
        a = json.loads(run(*argv)[1])
        b = json.loads(run(*argv)[1])
        a.pop("millis")
        b.pop("millis")
        assert a == b

    def test_arnold_suite_via_n_alias(self, run):
        code, out, _ = run("verify", "--suite", "arnold", "--n", "4",
                           "--sample", "100", "--format", "json")
        assert code == 0
        assert json.loads(out)["param"] == 4

    def test_unknown_suite_exits_1(self, run):
        code, _, _ = run("verify", "--suite", "bogus", "--g", "4")
        assert code == 1

    def test_out_of_range_param_exits_1(self, run):
        code, _, _ = run("verify", "--suite", "counts", "--g", "99")
        assert code == 1

    def test_relations_at_genus_3_exits_1(self, run):
        # no node to rotate: refused rather than passing on 0 cases
        code, out, err = run("verify", "--suite", "relations", "--g", "3")
        assert (code, out) == (1, "")
        assert err == ("error: genus 3 trees have no node to rotate; "
                       "relations needs genus >= 4\n")

    def test_bad_threads_exits_1(self, run):
        code, _, _ = run("verify", "--suite", "counts", "--g", "4", "--threads", "0")
        assert code == 1

    def test_threads_give_same_report(self, run):
        base = json.loads(run("verify", "--suite", "duality", "--g", "5",
                              "--format", "json")[1])
        threaded = json.loads(run("verify", "--suite", "duality", "--g", "5",
                                  "--threads", "4", "--format", "json")[1])
        base.pop("millis")
        threaded.pop("millis")
        assert base == threaded

    def test_threads_deprecated_on_stderr(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "braidcycles", "verify", "--suite", "duality", "--g", "4"]
        plain = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        threaded = subprocess.run(argv + ["--threads", "2"], capture_output=True, text=True,
                                  env=env, timeout=120)
        assert (plain.returncode, threaded.returncode) == (0, 0)
        assert plain.stderr == ""
        assert threaded.stderr == "warning: --threads is deprecated and has no effect\n"
        assert threaded.stdout.split()[:4] == plain.stdout.split()[:4]  # millis may differ

    def test_threads_warn_once_with_python_warnings_shown(self):
        # the CLI warns itself, so the library must not add a DeprecationWarning
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-W", "default", "-m", "braidcycles", "verify",
                "--suite", "duality", "--g", "4", "--threads", "2"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == "warning: --threads is deprecated and has no effect\n"

    def test_failing_suite_exits_2(self, run, monkeypatch):
        def broken(param, seed, sample):
            return SuiteReport("counts", param, 1,
                               [{"check": "trees", "got": 0, "expected": 1}], 0)
        monkeypatch.setitem(verification.SUITES, "counts", broken)
        code, out, _ = run("verify", "--suite", "counts", "--g", "4")
        assert code == 2
        assert "FAIL" in out


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "braidcycles", "pair", "--k", "1,1", "--tree", "((1,3),2)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-1\n"


def test_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from braidcycles import decompose, parse_tree\n"
        "from braidcycles.cli import main\n"
        "assert decompose(parse_tree('((1,2),3)')).as_dict() == {(1, 1): -1, (1, 2): -1}\n"
        "sys.exit(main(['verify', '--suite', 'relations', '--g', '5']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("relations param=5 ")
    assert proc.stdout.rstrip().endswith("PASS")
