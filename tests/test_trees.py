import functools
import gc
import importlib
import itertools
import pkgutil
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidcycles
import braidcycles.trees as trees_module
import rotation_oracle
import tree_oracle
from braidcycles.decomposition import (balanced_tree_to_k, build_balanced_tree, decompose,
                                       k_sequences, pair)
from braidcycles.errors import TreeError
from braidcycles.rewrite import find_unbalanced, reduce_to_balanced, rotate
from braidcycles.trees import (
    MAX_DEPTH,
    Tree,
    _build,
    balance_report,
    descendant_sets,
    enumerate_balanced,
    enumerate_trees,
    is_balanced,
    node_depths,
    parse_tree,
    render_tree,
    tree_from_sets,
    tree_to_json,
)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def random_node(rng, n):
    """Random nested pairs on leaves 1..n, built by random cluster merges."""
    clusters = list(range(1, n + 1))
    while len(clusters) > 1:
        i, j = rng.sample(range(len(clusters)), 2)
        a, b = clusters[i], clusters[j]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
        clusters.append((a, b))
    return clusters[0]


def random_tree(rng, n):
    """Random tree on leaves 1..n, built by random cluster merges."""
    return Tree.from_node(random_node(rng, n))


# Texts the one-descent parser must refuse with exactly these messages; the
# syntax faults name the position where the descent stopped.
MALFORMED_TEXTS = {
    "": "unexpected end of input",
    "(": "unexpected end of input",
    "(1": "expected ',' at position 2",
    "(1,": "unexpected end of input",
    "(1,2": "expected ')' at position 4",
    "(1,2))": "trailing input at position 5",
    "(,1)": "expected a leaf label at position 1",
    "(1;2)": "expected ',' at position 2",
    "(1,\u00b2)": "expected a leaf label at position 3",
    "((1,2),3": "expected ')' at position 8",
    "(1,2,3)": "expected ')' at position 4",
    "((1,2)3)": "expected ',' at position 6",
    "( (1,2) ,x)": "expected a leaf label at position 7",
    "(1,+2)": "expected a leaf label at position 3",
    "1,2": "trailing input at position 1",
    "(" * 101 + "1" + ",2)" * 101: f"tree nested deeper than {MAX_DEPTH} levels",
    "(" * 100 + "1" + ",2)" * 99: "expected ',' at position 398",
    "(1,100000000000000000000)": "leaf labels must be exactly 1..2, got [1, 100000000000000000000]",
    "((1,1),3)": "duplicate leaf label 1",
    "(0,1)": "leaf labels must be positive, got 0",
    "1": "a tree needs at least 2 leaves (genus >= 3)",
    # past MAX_LABEL_DIGITS, Python's int-string limit: refused before int() reads it
    "(1," + "9" * 5000 + ")": "leaf labels must have at most 4300 digits",
    "(" + "0" * 4300 + "1" * 4301 + ",2)": "leaf labels must have at most 4300 digits",
    "(0," + "9" * 4301 + ")": "leaf labels must have at most 4300 digits",
}


class TestParse:
    def test_smallest(self):
        t = parse_tree("(1,2)")
        assert t.genus == 3
        assert len(descendant_sets(t)) == 1

    def test_g4_structure(self):
        t = parse_tree("((1,2),3)")
        assert t.genus == 4
        assert descendant_sets(t) == (frozenset({1, 2, 3}), frozenset({1, 2}))

    def test_whitespace_ignored(self):
        assert parse_tree(" ( (1, 2) ,\n3 )") == parse_tree("((1,2),3)")

    def test_duplicate_label(self):
        with pytest.raises(TreeError, match="duplicate"):
            parse_tree("(1,1)")

    def test_labels_not_contiguous(self):
        with pytest.raises(TreeError):
            parse_tree("(1,3)")

    def test_single_leaf(self):
        with pytest.raises(TreeError):
            parse_tree("1")

    def test_depth_limit(self):
        def caterpillar(leaves):
            return "(" * (leaves - 1) + "1" + "".join(f",{i})" for i in range(2, leaves + 1))

        deepest = parse_tree(caterpillar(MAX_DEPTH + 1))  # nested exactly MAX_DEPTH deep
        assert deepest.genus == MAX_DEPTH + 2
        with pytest.raises(TreeError, match="deeper"):
            parse_tree(caterpillar(MAX_DEPTH + 2))
        with pytest.raises(TreeError, match="deeper"):
            parse_tree("(" * 100_000)  # refused before any recursion
        wide = [str(i) for i in range(1, 3 * MAX_DEPTH)]
        while len(wide) > 1:  # about log2 deep, with more than MAX_DEPTH pairs
            wide = [f"({a},{b})" for a, b in zip(wide[::2], wide[1::2])] + wide[len(wide) & ~1:]
        assert parse_tree(wide[0]).genus == 3 * MAX_DEPTH

    @pytest.mark.parametrize("bad", ["", "(1,2", "(1,2))", "(1 2)", "(,2)", "((1,2),x)"])
    def test_malformed(self, bad):
        with pytest.raises(TreeError):
            parse_tree(bad)

    @pytest.mark.parametrize("text, message", MALFORMED_TEXTS.items(),
                             ids=[repr(t) if len(t) < 30 else f"nested {t.count('(')}"
                                  if t.count("(") > 1 else f"{len(t)} characters"
                                  for t in MALFORMED_TEXTS])
    def test_malformed_messages(self, text, message):
        with pytest.raises(TreeError) as got:
            parse_tree(text)
        assert str(got.value) == message

    def test_digits_int_rejects_are_not_labels(self):
        # "²" is a digit to str.isdigit, but int() refuses it
        with pytest.raises(TreeError, match="^expected a leaf label at position 3$"):
            parse_tree("(1,²)")
        assert parse_tree("(\u0661,2)") == parse_tree("(1,2)")  # ARABIC-INDIC DIGIT ONE

    def test_zero_padding_read_past(self):
        # however long: only the digits after the padding count toward MAX_LABEL_DIGITS
        assert parse_tree("(" + "0" * 5000 + "2,(1,3))") == parse_tree("((1,3),2)")


def nested_caterpillar(leaves):
    """(((1,2),3),...,leaves) as nested pairs, nested leaves-1 deep."""
    node = 1
    for label in range(2, leaves + 1):
        node = (node, label)
    return node


class TestNodeInput:
    @pytest.mark.parametrize("build", (
        lambda node, genus: Tree(root=node, genus=genus),
        lambda node, genus: Tree.from_node(node),
    ), ids=("Tree", "from_node"))
    def test_depth_limit(self, build):
        deepest = build(nested_caterpillar(MAX_DEPTH + 1), MAX_DEPTH + 2)  # MAX_DEPTH deep
        assert deepest.render() == render_tree(parse_tree(deepest.render()))
        for leaves in (MAX_DEPTH + 2, 1501):
            with pytest.raises(TreeError, match="deeper"):
                build(nested_caterpillar(leaves), leaves + 1)
        with pytest.raises(TreeError, match="deeper"):
            build(functools.reduce(lambda node, label: [node, label], range(2, 1502), 1), 1502)

    @pytest.mark.parametrize("node", (((True, 2), 3), ((1, 2), False), (1, True)))
    def test_bool_leaves_rejected(self, node):
        with pytest.raises(TreeError, match="integers"):
            Tree.from_node(node)
        with pytest.raises(TreeError, match="integers"):
            Tree(root=node, genus=4)

    @pytest.mark.parametrize("node", (
        ("a", 2), ((1, 2), "3"), ((1, 2), 3.0), ((1, 2), None), ((1, 2), (3,)),
    ))
    def test_malformed_nodes_raise_tree_error(self, node):
        with pytest.raises(TreeError, match="two children"):
            Tree.from_node(node)
        with pytest.raises(TreeError, match="two children"):
            Tree(root=node, genus=4)

    def test_nested_lists_accepted(self):
        assert Tree.from_node([[2, 1], 3]) == parse_tree("((1,2),3)")


@st.composite
def tuple_or_list_nodes(draw):
    """Nested pairs, each a tuple or a list, over 1..7 leaves labelled 0..5,
    so labels may repeat, fall below 1 or leave gaps."""
    nodes = [draw(st.integers(0, 5)) for _ in range(draw(st.integers(1, 7)))]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        pair = (nodes[i], nodes[i + 1])
        nodes[i:i + 2] = [list(pair) if draw(st.booleans()) else pair]
    return nodes[0]


def node_text(node):
    return str(node) if isinstance(node, int) else f"({node_text(node[0])},{node_text(node[1])})"


def outcome(build):
    """The canonical text of the tree built, or the TreeError message."""
    try:
        return build().render()
    except TreeError as exc:
        return str(exc)


# name: (node, genus given to Tree(...), the node as text or None when text
# cannot express it, outcome of Tree(...), outcome of Tree.from_node and of
# parse_tree).  One entry per single fault, then inputs with two faults, where
# the earlier fault in the order bool, below 1, repeated label, too few
# leaves, not 1..n, genus wins, and Tree(...) checks the child order last.
INPUT_FAULTS = {
    "bool": (((True, 2), 3), 4, None, "leaf labels must be integers, got True"),
    "zero": (((0, 2), 3), 4, "((0,2),3)", "leaf labels must be positive, got 0"),
    "negative": (((-1, 2), 3), 4, None, "leaf labels must be positive, got -1"),
    "duplicate": (((1, 2), 2), 4, "((1,2),2)", "duplicate leaf label 2"),
    "one leaf": (1, 2, "1", "a tree needs at least 2 leaves (genus >= 3)"),
    "range": (((1, 2), 4), 4, "((1,2),4)", "leaf labels must be exactly 1..3, got [1, 2, 4]"),
    "not a pair": (((1, 2, 3), 4), 5, None, "internal nodes must have exactly two children"),
    "genus": (((1, 2), 3), 5, "((1,2),3)", "genus 5 does not match 3 leaves (expected 4)",
              "((1,2),3)"),
    "order": ((3, (1, 2)), 4, "(3,(1,2))", "children are not in canonical order", "((1,2),3)"),
    # Tree(...) needs the canonical tuple form, so a list node reads as out of order
    "list": ([[1, 2], 3], 4, "((1,2),3)", "children are not in canonical order", "((1,2),3)"),
    "bool, zero": (((True, 0), 3), 4, None, "leaf labels must be integers, got True"),
    "zero, duplicate": (((0, 0), 3), 4, "((0,0),3)", "leaf labels must be positive, got 0"),
    "zero, one leaf": (0, 2, "0", "leaf labels must be positive, got 0"),
    "two duplicates": (((3, 3), (1, 1)), 5, "((3,3),(1,1))", "duplicate leaf label 1"),
    "range, genus": (((1, 2), 5), 5, "((1,2),5)",
                     "leaf labels must be exactly 1..3, got [1, 2, 5]"),
    "genus, order": ((3, (1, 2)), 5, "(3,(1,2))", "genus 5 does not match 3 leaves (expected 4)",
                     "((1,2),3)"),
    "not a pair, bool": (((True, 2), (1, 2, 3)), 6, None,
                         "internal nodes must have exactly two children"),
    # labels far outside 1..n get no bit, so nothing shifts by them
    "huge": ((1, 10**20), 3, "(1,100000000000000000000)",
             "leaf labels must be exactly 1..2, got [1, 100000000000000000000]"),
    "huge negative": ((-10**20, 2), 3, None,
                      "leaf labels must be positive, got -100000000000000000000"),
    # past MAX_LABEL_DIGITS, a label is refused before any message writes it
    "long": ((1, 10**5000), 3, "(1,1" + "0" * 5000 + ")",
             "leaf labels must have at most 4300 digits"),
    "long negative": ((-10**5000, 2), 3, None, "leaf labels must have at most 4300 digits"),
    "zero, long": ((0, 10**4300), 3, "(0,1" + "0" * 4300 + ")",
                   "leaf labels must have at most 4300 digits"),
    "longest": ((1, 10**4300 - 1), 3, "(1," + "9" * 4300 + ")",
                "leaf labels must be exactly 1..2, got [1, " + "9" * 4300 + "]"),
}


class TestInputFaults:
    @pytest.mark.parametrize("name", INPUT_FAULTS)
    def test_tree_constructor(self, name):
        node, genus, _, expected, *_ = INPUT_FAULTS[name]
        assert outcome(lambda: Tree(root=node, genus=genus)) == expected

    @pytest.mark.parametrize("name", INPUT_FAULTS)
    def test_from_node(self, name):
        node, _, _, message, *accepted = INPUT_FAULTS[name]
        assert outcome(lambda: Tree.from_node(node)) == (accepted or [message])[0]

    @pytest.mark.parametrize("name", [name for name, row in INPUT_FAULTS.items() if row[2]])
    def test_parse_tree(self, name):
        _, _, text, message, *accepted = INPUT_FAULTS[name]
        assert outcome(lambda: parse_tree(text)) == (accepted or [message])[0]

    @given(tuple_or_list_nodes())
    @example(((3, 3), (1, 1)))
    @settings(max_examples=300)
    def test_parse_tree_agrees_with_from_node(self, node):
        assert outcome(lambda: parse_tree(node_text(node))) == outcome(lambda: Tree.from_node(node))


class TestRender:
    def test_canonical_child_order(self):
        assert render_tree(parse_tree("(2,1)")) == "(1,2)"

    def test_canonicalization(self):
        assert render_tree(parse_tree("(3,(2,1))")) == "((1,2),3)"

    def test_subtree_before_leaf(self):
        # larger descendant set first, matching the node ordering key
        assert render_tree(parse_tree("(1,(2,3))")) == "((2,3),1)"

    @pytest.mark.parametrize("g", range(3, 7))
    def test_round_trip_exhaustive(self, g):
        for t in enumerate_trees(g):
            assert parse_tree(render_tree(t)) == t

    @given(st.integers(0, 2**32), st.integers(2, 8))
    @settings(max_examples=60)
    def test_round_trip_random(self, seed, n):
        t = random_tree(random.Random(seed), n)
        assert parse_tree(render_tree(t)) == t

    @given(st.integers(0, 2**32), st.integers(2, 8))
    @settings(max_examples=60)
    def test_canonical_invariant_under_input_order(self, seed, n):
        rng = random.Random(seed)
        t = random_tree(rng, n)

        def scramble(node):
            if isinstance(node, int):
                return str(node)
            a, b = scramble(node[0]), scramble(node[1])
            if rng.random() < 0.5:
                a, b = b, a
            return f"({a},{b})"

        assert parse_tree(scramble(t.root)) == t


class TestEnumeration:
    def test_g3_single(self):
        assert [t.render() for t in enumerate_trees(3)] == ["(1,2)"]

    def test_g4_listing(self):
        assert [t.render() for t in enumerate_trees(4)] == [
            "((1,2),3)",
            "((1,3),2)",
            "((2,3),1)",
        ]

    @pytest.mark.parametrize("g", range(3, 9))
    def test_count_double_factorial(self, g):
        trees = enumerate_trees(g)
        assert len(trees) == double_factorial(2 * g - 5)
        assert len(set(trees)) == len(trees)

    def test_sorted_by_string(self):
        strings = [t.render() for t in enumerate_trees(5)]
        assert strings == sorted(strings)

    def test_g_too_small(self):
        with pytest.raises(TreeError):
            enumerate_trees(2)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_balanced_count_factorial(self, g):
        assert len(enumerate_balanced(g)) == factorial(g - 2)

    def test_balanced_g4(self):
        assert {t.render() for t in enumerate_balanced(4)} == {"((1,3),2)", "((2,3),1)"}


class TestBalance:
    def test_g3_balanced(self):
        assert is_balanced(parse_tree("(1,2)"))

    def test_balanced_example(self):
        assert is_balanced(parse_tree("((1,3),2)"))

    def test_unbalanced_at_root(self):
        t = parse_tree("((1,2),3)")
        assert not is_balanced(t)
        report = balance_report(t)
        assert report[0] is False  # root holds both 1 and 2 in one child
        assert report[1] is True

    def test_report_positions(self):
        t = parse_tree("(((1,2),3),4)")
        # canonical order: {1,2,3,4}, {1,2,3}, {1,2}
        assert balance_report(t) == (False, False, True)
        assert node_depths(t) == (0, 1, 2)


class TestDescendantSets:
    def test_example_g4(self):
        t = parse_tree("((1,2),3)")
        assert [sorted(s) for s in descendant_sets(t)] == [[1, 2, 3], [1, 2]]

    def test_size_then_lex(self):
        t = parse_tree("((1,2),(3,4))")
        assert [sorted(s) for s in descendant_sets(t)] == [[1, 2, 3, 4], [1, 2], [3, 4]]

    @pytest.mark.parametrize("g", range(3, 7))
    def test_laminar_and_reconstruct(self, g):
        for t in enumerate_trees(g):
            sets = descendant_sets(t)
            assert len(sets) == g - 2
            assert sets[0] == frozenset(range(1, g))
            assert sum(1 for s in sets if len(s) == g - 1) == 1
            for a in sets:
                assert len(a) >= 2
                for b in sets:
                    assert a <= b or b <= a or not (a & b)
            assert tree_from_sets(sets) == t

    def test_reconstruct_rejects_non_laminar(self):
        with pytest.raises(TreeError):
            tree_from_sets([frozenset({1, 2, 3, 4}), frozenset({1, 2}), frozenset({2, 3})])

    @pytest.mark.parametrize("sets, message", (
        ([], "empty set family"),
        ([{1, 2, 3}, {1, 2, 3}], "pairwise distinct"),
        ([{1, 2, 4}, {1, 2}], "the largest set must be"),
        ([{1, 2, 3, 4}, {1, 2}], "expected 3 sets for 4 leaves"),
        ([{1, 2, 3, 4}, {1, 2}, {1}], "full binary tree"),
        ([{1, 2, 3, 4}, {1, 2}, set()], "full binary tree"),
        ([{1, 2, 3, 4}, {1, 2}, {2, 9}], "full binary tree"),
        ([{1, 2, 3, 4}, {1, 2, 3}, {3, 4}], "not laminar"),
    ))
    def test_reconstruct_messages(self, sets, message):
        with pytest.raises(TreeError, match=message):
            tree_from_sets([frozenset(s) for s in sets])

    def test_cache_is_bounded(self):
        # descendant_sets keeps no tree alive; the label cache it reads is capped
        first = parse_tree("((1,2),3)")
        descendant_sets(first)
        freed = weakref.ref(first)
        del first
        gc.collect()
        assert freed() is None
        trees_module._bits.cache_clear()
        for t in itertools.islice(enumerate_trees(9), 200):
            descendant_sets(t)
        for m in range(1, trees_module._CACHE_CAP + 100):
            trees_module._bits(m)
        assert trees_module._bits.cache_info().currsize == trees_module._CACHE_CAP == 1 << 15

    def test_json_form(self):
        assert tree_to_json(parse_tree("((1,2),3)")) == {
            "g": 4,
            "newick": "((1,2),3)",
            "nodes": [[1, 2, 3], [1, 2]],
        }


def shuffled(rng, node):
    """The node with the children of each pair swapped at random."""
    if isinstance(node, int):
        return node
    a, b = shuffled(rng, node[0]), shuffled(rng, node[1])
    return (a, b) if rng.random() < 0.5 else (b, a)


def labels_of(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


class TestCarriedFamily:
    """A Tree carries only its canonical mask family.  Every way of making one
    gives what tree_oracle reads from the canonical nested root: the family,
    the root, the text and the repr, with one hash per tree."""

    @staticmethod
    def check(t, root, g):
        assert vars(t).keys() == {"_masks", "genus"}
        assert (t._masks, t.root, t.render(), repr(t)) == tree_oracle.facts(root, g)
        reference = Tree(root=root, genus=g)
        assert t == reference and hash(t) == hash(reference) and t.genus == g

    @staticmethod
    def checked(rng, root, g):
        """The Trees of the checked inputs: text, Tree(...) and from_node."""
        return (parse_tree(node_text(shuffled(rng, root))), Tree(root, g),
                Tree(root=root, genus=g), Tree.from_node(shuffled(rng, root)))

    def check_built(self, rng, root, g):
        """tree_from_sets, _build and rotate at one seeded node."""
        family = tree_oracle.root_family(root)
        self.check(tree_from_sets(labels_of(m) for m in rng.sample(family, len(family))),
                   root, g)
        self.check(_build(family), root, g)
        if nodes := [v for v, m in enumerate(family, start=1) if bin(m).count("1") >= 3]:
            v = rng.choice(nodes)
            rotated = rotation_oracle.rotated_roots(root, labels_of(family[v - 1]))[1]
            for t, expected in zip(rotate(Tree(root, g), v), rotated):
                self.check(t, expected, g)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_checked_inputs_carry_the_walked_family(self, g):
        rng = random.Random(g)
        for root in tree_oracle.roots(g):
            for t in self.checked(rng, root, g):
                self.check(t, root, g)

    @pytest.mark.parametrize("g", range(3, 9))
    def test_built_and_enumerated_trees_carry_their_family(self, g):
        rng = random.Random(g)
        roots = tree_oracle.roots(g)
        enumerated = enumerate_trees(g)
        assert len(enumerated) == len(roots)
        for t, root in zip(enumerated, roots):
            self.check(t, root, g)
            self.check_built(rng, root, g)
        ks = k_sequences(g)
        balanced_roots = [tree_oracle.balanced_root(k) for k in ks]
        for k, root in zip(ks, balanced_roots):
            self.check(build_balanced_tree(k), root, g)
        balanced = enumerate_balanced(g)
        assert len(balanced) == len(ks)
        for t, root in zip(balanced, sorted(balanced_roots, key=tree_oracle.text)):
            self.check(t, root, g)

    @pytest.mark.parametrize("g", (9, 10))
    def test_random_trees_every_way(self, g):
        rng = random.Random(g)
        for _ in range(200):
            root = tree_oracle.canonicalize(random_node(rng, g - 1))[0]
            for t in self.checked(rng, root, g):
                self.check(t, root, g)
            self.check_built(rng, root, g)
            k = tuple(rng.randint(1, i) for i in range(1, g - 1))
            self.check(build_balanced_tree(k), tree_oracle.balanced_root(k), g)

    def test_parsed_trees_skip_the_walk(self, monkeypatch):
        # the queries read the held family and fold nothing back to nested
        # pairs or text (the balanced terms' texts are cached by the first call)
        t = parse_tree("(((1,4),3),(2,5))")
        expected = (decompose(t), pair((1, 1, 2, 1), t), reduce_to_balanced(t),
                    find_unbalanced(t))

        def folded(*args):
            raise AssertionError("the family was folded")

        monkeypatch.setattr(trees_module, "_fold", folded)
        assert (decompose(t), pair((1, 1, 2, 1), t), reduce_to_balanced(t),
                find_unbalanced(t)) == expected


def test_query_path_leaves_no_reference_cycle():
    """Parsing, building, the folds to root and text, the determinant queries
    and the rewriting route free everything they make by reference counting; the
    collector finds nothing."""
    rng = random.Random(9)
    trees, balanced = enumerate_trees(6), enumerate_balanced(6)
    texts = [node_text(shuffled(rng, t.root)) for t in trees]
    texts += [node_text(shuffled(rng, random_tree(rng, 8).root)) for _ in range(200)]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            t = parse_tree(text)
            Tree.from_node(t.root)
            decompose(t)
            pair(tuple(rng.randint(1, i) for i in range(1, t.genus - 1)), t)
            reduce_to_balanced(t).to_decomposition()
        for t in trees:
            assert Tree(t.root, t.genus) == parse_tree(t.render())
        for t in balanced:
            balanced_tree_to_k(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_cache_is_bounded():
    """Every module-level functools cache in the package holds at most
    _CACHE_CAP entries, and the two that remain are the ones its traffic
    uses: label tuples per mask and the arnold ring's sorted products."""
    bounds = {}
    for info in pkgutil.iter_modules(braidcycles.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"braidcycles.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                bounds[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert trees_module._CACHE_CAP == 1 << 15
    assert bounds == dict.fromkeys(
        ("arnold._reduce_sorted", "trees._bits"),
        trees_module._CACHE_CAP)
