import json
import random

import pytest
from conftest import data_text, validate_dot
from test_symexec import copy_source, only_verdict, walk_source

from heapcheck import entail, formula as fm, symexec, termir
from heapcheck.parser import parse_program
from heapcheck.prooftree import (
    DotOptions,
    FAILED,
    OK,
    PRUNED,
    ProofBuilder,
    ProofNode,
    ProofTree,
    read_structured,
    to_dot,
    to_structured,
)
from heapcheck.symexec import VERIFIED, verify_program_term
from heapcheck.termir import lower_program


def test_single_node_tree():
    b = ProofBuilder()
    tree = ProofTree(b.node("Reflexivity", "P |- P"))
    dot = to_dot(tree, DotOptions(verbosity="rule"))
    nodes, edges = validate_dot(dot)
    assert (nodes, edges) == (1, 0)
    assert '"Reflexivity"' in dot


def test_failed_nodes_visually_distinct():
    b = ProofBuilder()
    ok = b.node("match", "fine")
    bad = b.node("leak-check", "lost", FAILED)
    tree = ProofTree(b.node("root", "", OK, [ok, bad]))
    dot = to_dot(tree)
    ok_line = [l for l in dot.splitlines() if l.strip().startswith(f"n{ok.id} ")][0]
    bad_line = [l for l in dot.splitlines() if l.strip().startswith(f"n{bad.id} ")][0]
    assert ok_line != bad_line.replace("leak-check\\nlost", "match\\nfine")
    assert "fillcolor" in bad_line and "fillcolor" not in ok_line


def test_quote_escaping():
    b = ProofBuilder()
    tree = ProofTree(b.node("frame", 'heap "x"->5 \\ rest'))
    dot = to_dot(tree)
    validate_dot(dot)
    assert '\\"x\\"' in dot


def test_example1_tree_contains_failed_leak_check():
    term = lower_program(parse_program(data_text("ex1.oc")))
    verdict = verify_program_term(term)[0]
    nodes = list(verdict.proof.root.walk())
    assert any(n.rule == "leak-check" and n.outcome == FAILED for n in nodes)
    dot = to_dot(verdict.proof)
    n, e = validate_dot(dot)
    assert n == sum(1 for _ in verdict.proof.root.walk())
    assert e == n - 1  # a tree


def rand_tree(rng: random.Random, b: ProofBuilder, depth: int = 3) -> ProofNode:
    children = []
    if depth > 0:
        children = [rand_tree(rng, b, depth - 1) for _ in range(rng.randint(0, 3))]
    rule = rng.choice(("match", "fold", "unfold", "leak-check", 'we"ird'))
    summary = rng.choice(("x->5 * y->nil", "", 'say "hi"', "emp |- emp", "a\nb"))
    outcome = rng.choice(("ok", "failed", "pruned"))
    return b.node(rule, summary, outcome, children)


def test_structured_roundtrip_property():
    rng = random.Random(99)
    for _ in range(100):
        tree = ProofTree(rand_tree(rng, ProofBuilder()))
        text = to_structured(tree)
        assert read_structured(text) == tree


def test_dot_validates_for_generated_trees():
    rng = random.Random(4)
    for _ in range(100):
        tree = ProofTree(rand_tree(rng, ProofBuilder()))
        for opts in (DotOptions(), DotOptions(verbosity="rule")):
            n, _ = validate_dot(to_dot(tree, opts))
            assert n == sum(1 for _ in tree.root.walk())


# -- the exporters as they were written before the one-pass writers: a
# recursive walk, DOT from two walks, and json.dumps over a dict copy.  The
# writers must keep their bytes.


def reference_walk(n: ProofNode):
    yield n
    for c in n.children:
        yield from reference_walk(c)


def reference_dot(tree: ProofTree, opts: DotOptions = DotOptions()) -> str:
    lines = [f"digraph {opts.graph_name} {{", "  node [shape=box];"]
    for n in reference_walk(tree.root):
        text = "" if opts.verbosity == "rule" else n.input
        label = f"{n.rule}\n{text}" if text else n.rule
        esc = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        attrs = f'label="{esc}"'
        if n.outcome == FAILED:
            attrs += ', style=filled, fillcolor="#f8d0d0"'
        elif n.outcome == PRUNED:
            attrs += ', style=dashed'
        lines.append(f"  n{n.id} [{attrs}];")
    for n in reference_walk(tree.root):
        for c in n.children:
            lines.append(f"  n{n.id} -> n{c.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_dict(n: ProofNode) -> dict:
    return {
        "id": n.id,
        "rule": n.rule,
        "input": n.input,
        "outcome": n.outcome,
        "children": [reference_dict(c) for c in n.children],
    }


def reference_structured(tree: ProofTree) -> str:
    return json.dumps(reference_dict(tree.root), indent=1) + "\n"


PIECES = ('"', "\\", "\n", "\t", "\x00", "\x1f", "é", "→", "𝑥", "\u2028", "", "x->5", " ")


def adversarial_tree(rng: random.Random, b: ProofBuilder, depth: int) -> ProofNode:
    """A random tree whose rules and inputs mix quotes, backslashes, control
    characters, non-ASCII and astral characters, U+2028 and empty strings;
    some inputs are callable labels, rendered on first read."""
    children = []
    if depth > 0:
        children = [adversarial_tree(rng, b, depth - 1) for _ in range(rng.randint(0, 3))]
    rule, text = ("".join(rng.choices(PIECES, k=rng.randint(0, 4))) for _ in range(2))
    label = (lambda: text) if rng.random() < 0.3 else text
    return b.node(rule, label, rng.choice((OK, FAILED, PRUNED, "other")), children)


@pytest.mark.parametrize("seed", range(4))
def test_writers_match_the_reference_exporters(seed):
    rng = random.Random(seed)
    options = (DotOptions(), DotOptions(verbosity="rule"), DotOptions(graph_name="g_2"),
               DotOptions(verbosity="rule", graph_name="proof_of_f"))
    for _ in range(80):
        tree = ProofTree(adversarial_tree(rng, ProofBuilder(), rng.randint(0, 5)))
        assert [n.id for n in tree.root.walk()] == [n.id for n in reference_walk(tree.root)]
        for opts in options:
            assert to_dot(tree, opts) == reference_dot(tree, opts)
        assert to_structured(tree) == reference_structured(tree)


def test_rule_only_dot_reads_no_label():
    b = ProofBuilder()

    def unreadable() -> str:
        raise AssertionError("a rule-only graph rendered a label")

    tree = ProofTree(b.node("function", unreadable, OK, [b.node("stmt", unreadable)]))
    assert to_dot(tree, DotOptions(verbosity="rule")) == reference_dot(tree, DotOptions(verbosity="rule"))


def test_deep_chain_exports_and_walks():
    depth = 5000
    b = ProofBuilder()
    node = b.node("leaf", 'x"\n')
    for i in range(depth - 1):
        node = b.node("step", f"s{i}", OK, [node])
    tree = ProofTree(node)
    assert [n.id for n in tree.root.walk()] == list(range(depth - 1, -1, -1))
    assert validate_dot(to_dot(tree)) == (depth, depth - 1)
    text = to_structured(tree)
    assert text.count('"id": ') == depth and text.count('"children": []') == 1
    assert f'\n{" " * (2 * depth - 1)}"input": "x\\"\\n",\n' in text
    assert text.endswith('\n  }\n ]\n}\n')


def test_node_ids_in_application_order():
    b = ProofBuilder()
    first = b.node("a", "")
    second = b.node("b", "")
    assert (first.id, second.id) == (0, 1)


def test_structured_export_shape():
    b = ProofBuilder()
    tree = ProofTree(b.node("function", "f", OK, []))
    text = to_structured(tree)
    assert '"children": []' in text
    assert text.endswith("\n")


@pytest.fixture
def renders(monkeypatch):
    """Counts the outermost calls of the functions that print labels:
    ``fm.pretty``, ``fm.pretty_expr``, ``SymHeap.pretty`` and ``emit_text``.
    Calls inside ``fm.star_key``, the prover's sort key, are not label text."""
    state = {"depth": 0, "count": 0}

    def counted(orig, is_render=True):
        def wrapper(*args, **kwargs):
            if is_render and state["depth"] == 0:
                state["count"] += 1
            state["depth"] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                state["depth"] -= 1

        return wrapper

    for name in ("pretty", "pretty_expr", "star_key"):
        monkeypatch.setattr(fm, name, counted(getattr(fm, name), name != "star_key"))
    monkeypatch.setattr(entail.SymHeap, "pretty", counted(entail.SymHeap.pretty))
    for mod in (termir, symexec):  # symexec binds emit_text by name
        monkeypatch.setattr(mod, "emit_text", counted(termir.emit_text))
    return lambda: state["count"]


@pytest.mark.parametrize("source", [walk_source(12), copy_source(6)], ids=["walk12", "copy6"])
def test_labels_render_only_on_export_and_once(renders, source):
    verdict = only_verdict(source)
    assert verdict.status == VERIFIED
    assert renders() == 0  # verifying prints no label
    tree = verdict.proof
    # the same tree again, each label read once
    fresh = only_verdict(source)
    assert renders() == 0
    for n in fresh.proof.root.walk():
        assert isinstance(n.input, str)
    once = renders()
    assert once > 0
    # both exports together cost exactly one read of each label
    to_dot(tree)
    text = to_structured(tree)
    assert renders() == 2 * once
    assert read_structured(text) == tree == fresh.proof
    assert renders() == 2 * once
