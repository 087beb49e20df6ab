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
