import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidcycles import verification
from braidcycles.cli import main
from braidcycles.decomposition import CycleDecomposition
from braidcycles.verification import SuiteReport

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

    def test_failing_suite_exits_2(self, run, monkeypatch):
        def broken(param, seed, sample, threads):
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
