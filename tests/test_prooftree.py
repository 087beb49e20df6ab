import random

from conftest import data_text, validate_dot

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
from heapcheck.symexec import verify_program_term
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
    assert n == verdict.proof.node_count()
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
            assert n == tree.node_count()


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
