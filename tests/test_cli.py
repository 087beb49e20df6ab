import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import DATA, data_path, data_text, validate_dot

from heapcheck import arith, cli, entail, formula as fm, termir
from heapcheck.cli import main
from heapcheck.parser import parse_program


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_verify_refuted_exit_1():
    code, out, _ = run_cli("verify", str(data_path("ex1.oc")))
    assert code == 1
    assert "MemoryLeak" in out
    assert ":4:" in out  # second new is on line 4


def test_verify_clean_exit_0(tmp_path):
    f = tmp_path / "ok.oc"
    f.write_text("int f() { new(x); delete(x); }")
    code, out, _ = run_cli("verify", str(f))
    assert code == 0
    assert "verified 1" in out


def test_verify_inconclusive_exit_3():
    code, out, _ = run_cli("verify", str(data_path("ex4.oc")))
    assert code == 3


def test_verify_empty_file_exit_0(tmp_path):
    f = tmp_path / "empty.oc"
    f.write_text("")
    code, out, _ = run_cli("verify", str(f))
    assert code == 0
    assert "verified 0" in out


def test_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.oc"
    f.write_text("int f() { a = ; }")
    code, _, err = run_cli("verify", str(f))
    assert code == 2
    assert "error:" in err


# each check of a predicate definition reports the definition's `pred` keyword
@pytest.mark.parametrize("src, error", [
    ("pred list(a) := a->1;", "1:1: predicate 'list' is already defined"),
    ("pred p(a, a) := a->1;", "1:1: predicate 'p' repeats a parameter name"),
    ("int g() { }\npred p(a) := b->1;",
     "2:1: predicate 'p' body uses variables outside its parameters: b"),
    ("pred one(a) := a->1; pred two(a) := one(a, a);",
     "1:22: predicate 'one' used with 2 arguments in 'two' but defined with 1"),
    ("pred p(a) := a->1 || nosuch(a);", "1:1: unknown predicate 'nosuch'"),
], ids=["builtin-name", "repeated-param", "free-vars", "body-arity", "unknown-name"])
def test_predicate_definition_errors_carry_a_span(tmp_path, src, error):
    f = tmp_path / "pred.oc"
    f.write_text(src + " int f() { }\n")
    code, out, err = run_cli("verify", str(f))
    assert (code, out, err) == (2, "", f"error: {error}\n")


# An annotation naming no predicate is rejected at load, in source and in
# term input alike; term input carries no spans yet.
@pytest.mark.parametrize("name, text, error", [
    ("f.oc", "void f(node x) @ x->1 @ { @ x->1 || nosuch(x) @; } @ x->1 @\n",
     "1:28: unknown predicate 'nosuch'"),
    ("f.plt", "function(f, void, [param(x, node)], "
     "[assert(x->1), assert(x->1 || pred(nosuch, [x])), assert(x->1)]).\n",
     "?:?: unknown predicate 'nosuch'"),
], ids=["source", "term"])
def test_unknown_predicate_in_an_annotation_is_a_load_error(tmp_path, name, text, error):
    f = tmp_path / name
    f.write_text(text)
    command = "verify-term" if name.endswith(".plt") else "verify"
    assert run_cli(command, str(f)) == (2, "", f"error: {error}\n")


def test_run_checks_the_predicates_of_a_term_file(tmp_path):
    f = tmp_path / "f.plt"
    f.write_text("function(f, void, [param(x, node)], "
                 "[assert(x->1), assert(x->1 || pred(nosuch, [x])), assert(x->1)]).\n")
    assert run_cli("run", str(f)) == (2, "", "error: ?:?: unknown predicate 'nosuch'\n")


def _count_calls(monkeypatch, name: str, owner=termir) -> list:
    """The argument tuples of the outermost calls of ``<owner>.<name>`` made
    through any package module that binds the name; a call it makes of
    itself is not counted."""
    orig = getattr(owner, name)
    calls: list = []
    depth = [0]

    def counted(*args, **kwargs):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return orig(*args, **kwargs)
        finally:
            depth[0] -= 1

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("heapcheck") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


CORPUS = sorted(p.name for p in DATA.glob("*.oc"))


# the loader of each input kind checks a program's predicates, and nothing
# after it checks them again
@pytest.mark.parametrize("name", CORPUS)
def test_each_command_checks_a_program_once(tmp_path, monkeypatch, name):
    src, plt = data_path(name), tmp_path / "p.plt"
    assert run_cli("emit-term", str(src), "-o", str(plt))[0] == 0
    checks = _count_calls(monkeypatch, "check_predicates")
    for command, path, *extra in (
        ("verify", src),
        ("emit-term", src, "-o", str(tmp_path / "again.plt")),
        ("verify-term", plt),
        ("run", plt),
    ):
        checks.clear()
        run_cli(command, str(path), *extra)
        assert len(checks) == 1, command


@pytest.mark.parametrize("name", CORPUS)
def test_verify_splits_each_function_once(monkeypatch, name):
    term = termir.lower_program(parse_program(data_text(name)))
    functions = [fn.args[0].name for fn in termir.term_functions(term)]
    splits = _count_calls(monkeypatch, "split_contracts")
    run_cli("verify", str(data_path(name)))
    assert sorted(args[0].args[0].name for args in splits) == sorted(functions)


def test_verify_converts_each_annotation_once(tmp_path, monkeypatch):
    # ten independent branches make 1,024 paths through the body assert
    params = "".join(f", int y{i}" for i in range(10))
    ifs = " ".join(f"if (y{i} == 0) {{ z = {i}; }}" for i in range(10))
    src = tmp_path / "branches.oc"
    src.write_text(f"void f(node x{params}) @ x->1 @ {{ {ifs} @ exists v. x->v @; }} @ x->1 * emp @\n")
    conversions = _count_calls(monkeypatch, "term_to_formula")
    code, out, _ = run_cli("verify", str(src), "--format", "structured")
    assert code == 0
    assert json.loads(out.splitlines()[0])["branches"] == 1023
    assert len(conversions) == 3


def test_prover_converts_each_side_and_definition_once(monkeypatch):
    # a predicate's cases are converted once, on first use, and kept on its
    # definition; folds and unfolds substitute into them
    list_def = fm.builtin_preds()["list"]
    monkeypatch.delitem(vars(list_def), "_cases", raising=False)
    conversions = _count_calls(monkeypatch, "formula_to_symheaps", entail)

    def bodies():  # the conversions of a case split of `list`
        return [f for f, *_ in conversions if " || exists t, v. " in fm.pretty(f)]

    assert run_cli("entail", str(data_path("queries.q")))[0] == 1  # the third query fails
    assert len(conversions) == 2 * data_text("queries.q").count("entail.") + 1
    assert bodies() == [list_def.body]
    conversions.clear()
    code, out, _ = run_cli("verify", str(data_path("list_ops.oc")))
    assert "seg_walk: Verified" in out and "seg_nil: Verified" in out
    assert conversions and bodies() == []


def test_consistency_tests_build_no_witness(monkeypatch):
    # the prover's first check, that the antecedent is not UNSAT, and
    # SymHeap.consistent never reach the witness search; consequent ==
    # side conditions are decided without one too
    checking = [0]
    real_prove, real_match = entail._Prover._prove, entail._Prover.match
    real_consistent, real_witness = entail.SymHeap.consistent, arith._Solver._witness

    def prove_(self, *args):
        checking[0] += 1  # until the first match step starts
        try:
            return real_prove(self, *args)
        finally:
            checking[0] = 0

    def match_(self, *args):
        checking[0] = 0
        return real_match(self, *args)

    def consistent_(self):
        checking[0] += 1
        try:
            return real_consistent(self)
        finally:
            checking[0] -= 1

    def witness_(self, graph):
        assert not checking[0], "a consistency test searched for a witness"
        witnesses.append(self)
        return real_witness(self, graph)

    witnesses: list = []
    monkeypatch.setattr(entail._Prover, "_prove", prove_)
    monkeypatch.setattr(entail._Prover, "match", match_)
    monkeypatch.setattr(entail.SymHeap, "consistent", consistent_)
    monkeypatch.setattr(arith._Solver, "_witness", witness_)
    assert run_cli("entail", str(data_path("queries.q")))[0] == 1
    assert witnesses == []
    assert run_cli("verify", str(data_path("list_ops.oc")))[0] == 1
    assert witnesses  # the counterexamples still read a witness


# Each malformed formula is rejected when a term file loads, by run and
# verify-term alike; term_to_formula is the one check of a formula term.
_PARAM = "[param(x, node)]"
MALFORMED_TERMS = [
    ("record-mix", f"function(f, void, {_PARAM}, [assert(x->object(_, 1, v: 2)), assign(y, 1), assert(x->1)])",
     "record mixes positional and named components"),
    ("name-not-atom", f"function(f, void, {_PARAM}, [assert(x->object(_, ':'(f(y), 1)))])",
     "assertion expression expected, found f(y): 1"),
    ("node-arity", f"function(f, void, {_PARAM}, [assert(x->1), assign(y, 1), assert(x->object(node, 1))])",
     "'node' records take 2 components"),
    ("class-arity", "program([function(f, void, [param(x, k)], [assign(y, 1), assert(x->object(k, 1))]), "
     "class(k, [field(a, int), field(b, int)], [])])",
     "class 'k' declares 2 fields, record has 1"),
    ("exists-binder", f"function(f, void, {_PARAM}, [assert(exists(f(y), x->1))])",
     "exists binder must be an atom"),
    ("pred-name", f"program([pred(p, [a], a->1), function(f, void, {_PARAM}, [assert(pred(f(y), [x]))])])",
     "pred name must be an atom"),
    ("offset-base", f"function(f, void, {_PARAM}, [while(lt(x, 1), assert(offset(add(x, 1), 1)->1), [])])",
     "location must be name or oa(o.f): add(x, 1)"),
    ("displacement-negative", "pred(p, [x], offset(x, -3)->1)",
     "offset displacement must be int or minus(0, int)"),
    ("displacement-minus", f"function(f, void, {_PARAM}, [assign(y, mem(offset(x, minus(5, 3))))])",
     "offset displacement must be int or minus(0, int)"),
]


@pytest.mark.parametrize("text, error", [row[1:] for row in MALFORMED_TERMS],
                         ids=[row[0] for row in MALFORMED_TERMS])
def test_malformed_term_file_is_a_load_error(tmp_path, text, error):
    f = tmp_path / "bad.plt"
    f.write_text(text + ".\n")
    for command in ("run", "verify-term"):
        assert run_cli(command, str(f)) == (2, "", f"error: ?:?: {error}\n"), command


def test_term_annotations_get_the_arity_check(tmp_path):
    f = tmp_path / "arity.plt"
    f.write_text(
        "program([pred(one, [a], a->1), function(f, void, [param(x, node)], "
        "[assert(pred(one, [x, x])), assign(y, 1), assert(pred(one, [x, x]))])]).\n"
    )
    error = "?:?: predicate 'one' used with 2 arguments in 'annotation' but defined with 1"
    assert run_cli("verify-term", str(f)) == (2, "", f"error: {error}\n")


def test_usage_error_exit_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_missing_file_exit_2():
    code, _, err = run_cli("verify", "no_such_file.oc")
    assert code == 2


def test_emit_term_then_verify_term_matches_direct_verify(tmp_path):
    src = data_path("append_destructive.oc")
    plt = tmp_path / "ap.plt"
    code, _, _ = run_cli("emit-term", str(src), "-o", str(plt))
    assert code == 0
    direct_code, direct_out, _ = run_cli("verify", str(src), "--format", "structured")
    term_code, term_out, _ = run_cli("verify-term", str(plt), "--format", "structured")
    assert direct_code == term_code == 0

    def verdicts(text):
        return [
            (r["function"], r["status"])
            for r in map(json.loads, text.splitlines())
            if r["type"] == "verdict"
        ]

    assert verdicts(direct_out) == verdicts(term_out)


def test_pipeline_commutes_on_refuted_input(tmp_path):
    plt = tmp_path / "ex1.plt"
    run_cli("emit-term", str(data_path("ex1.oc")), "-o", str(plt))
    code, out, _ = run_cli("verify-term", str(plt))
    assert code == 1
    assert "MemoryLeak" in out


def test_pipeline_commutes_across_whole_corpus(tmp_path):
    corpus = sorted(data_path("").glob("*.oc"))
    assert corpus

    def verdicts(text):
        return [
            (r["function"], r["status"])
            for r in map(json.loads, text.splitlines())
            if r["type"] == "verdict"
        ]

    for src in corpus:
        plt = tmp_path / (src.stem + ".plt")
        assert run_cli("emit-term", str(src), "-o", str(plt))[0] == 0
        code_a, out_a, _ = run_cli("verify", str(src), "--format", "structured")
        code_b, out_b, _ = run_cli("verify-term", str(plt), "--format", "structured")
        assert code_a == code_b, src.name
        assert verdicts(out_a) == verdicts(out_b), src.name


def test_run_reports_out_of_fuel():
    code, out, _ = run_cli("run", str(data_path("ex4.oc")), "--fuel", "1000")
    assert code == 1
    assert "OutOfFuel" in out


def test_run_completes_simple_program(tmp_path):
    f = tmp_path / "go.oc"
    f.write_text("int main() { new(x); [x] = 7; delete(x); }")
    code, out, _ = run_cli("run", str(f))
    assert code == 0
    assert "completed" in out


def test_run_accepts_term_files(tmp_path):
    src = tmp_path / "go.oc"
    src.write_text("int main() { new(x); delete(x); }")
    plt = tmp_path / "go.plt"
    run_cli("emit-term", str(src), "-o", str(plt))
    code, out, _ = run_cli("run", str(plt))
    assert code == 0
    assert "completed" in out


def test_run_prefers_main(tmp_path):
    f = tmp_path / "two.oc"
    f.write_text("int helper() { q = 1; } int main() { r = 2; }")
    code, out, _ = run_cli("run", str(f))
    assert code == 0
    assert "main" in out


def test_entail_queries():
    code, out, _ = run_cli("entail", str(data_path("queries.q")))
    assert code == 1  # the third query legitimately fails
    lines = out.strip().splitlines()
    assert lines[0].startswith("query 1: proved")
    assert "frame: x->3" in lines[0]
    assert lines[1].startswith("query 2: proved")
    assert lines[2].startswith("query 3: failed")


def test_emit_proof_writes_dot_and_structured(tmp_path):
    proof_dir = tmp_path / "proofs"
    code, _, _ = run_cli(
        "verify", str(data_path("ex1.oc")), "--emit-proof", str(proof_dir)
    )
    assert code == 1
    dot = (proof_dir / "f.dot").read_text()
    validate_dot(dot)
    structured = (proof_dir / "f.pt.json").read_text()
    from heapcheck.prooftree import read_structured

    tree = read_structured(structured)
    assert sum(1 for _ in tree.root.walk()) >= 3


def test_emit_proof_keeps_each_proof_of_a_shared_function_name(tmp_path):
    src = tmp_path / "get.oc"
    src.write_text(
        "class A { int v; int get() { r = 1; } }\n"
        "class B { int w; int get() { r = 2; } }\n"
        "int get() { r = 3; }\n"
    )
    proof_dir = tmp_path / "proofs"
    code, out, _ = run_cli("verify", str(src), "--emit-proof", str(proof_dir))
    assert code == 0 and out.count("get: Verified") == 3
    stems = ("get", "get-2", "get-3")  # in verdict order
    assert sorted(p.name for p in proof_dir.iterdir()) == sorted(
        f"{s}{ext}" for s in stems for ext in (".dot", ".pt.json")
    )
    from heapcheck.prooftree import read_structured

    for stem, value in zip(stems, "123"):
        assert f"assign(r, {value})" in (proof_dir / f"{stem}.dot").read_text()
        tree = read_structured((proof_dir / f"{stem}.pt.json").read_text())
        assert any(n.input == f"assign(r, {value})" for n in tree.root.walk())


def test_structured_output_deterministic_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "heapcheck.cli",
        "verify",
        str(data_path("ex2.oc")),
        "--format",
        "structured",
    ]
    a = subprocess.run(cmd, capture_output=True, cwd=Path(__file__).parent.parent)
    b = subprocess.run(cmd, capture_output=True, cwd=Path(__file__).parent.parent)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 1


def test_cli_import_leaves_out_dataclasses_inspect_and_the_interpreter():
    # every module `import heapcheck.cli` loads is paid on each cold start;
    # the concrete interpreter is imported by the `run` command alone, and
    # json by structured output and proof export alone
    absent = ("dataclasses", "inspect", "json", "heapcheck.interp", "heapcheck.astnodes")
    code = f"import sys, heapcheck.cli; print([m for m in {absent!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).parent.parent)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_run_in_a_fresh_process_matches_recorded_output():
    root = Path(__file__).parent.parent
    expected = {
        "ex2.oc": (0, "tests/data/ex2.oc: f: completed in 5 steps\n"
                      "store {object1=1, object2=2} heap {2->object(_, ref: 1)}\n"),
        "ex3.oc": (1, "tests/data/ex3.oc: f: InvalidAccess: read of unallocated address 0\n"),
    }
    for name, (code, out) in expected.items():
        cmd = [sys.executable, "-m", "heapcheck.cli", "run", f"tests/data/{name}"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, ""), name


def test_pathological_nesting_is_an_error_not_a_crash(tmp_path):
    f = tmp_path / "deep.oc"
    f.write_text("int f() { x = " + "(" * 5000 + "1" + ")" * 5000 + "; }")
    code, _, err = run_cli("verify", str(f))
    assert code == 2
    assert "nested too deeply" in err


def test_unfold_depth_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HEAPCHECK_UNFOLD_DEPTH", "8")
    from heapcheck.cli import _default_depth

    assert _default_depth() == 8
    monkeypatch.setenv("HEAPCHECK_UNFOLD_DEPTH", "junk")
    assert _default_depth() == 4


def test_unfold_depth_below_one_is_a_usage_error(tmp_path):
    f = tmp_path / "walk.oc"
    f.write_text("void f(node x) @ x->1,2,3 @ { y = x.next; } @ list(x, nil) @")
    for bad in ("0", "-1", "two"):
        code, out, err = run_cli("verify", str(f), "--unfold-depth", bad)
        assert (code, out) == (2, ""), bad
        assert "argument --unfold-depth" in err
    code, out, _ = run_cli("verify", str(f), "--unfold-depth", "4")
    assert code == 0 and "f: Verified" in out


def test_superscript_digit_is_a_lex_error(tmp_path):
    f = tmp_path / "sup.oc"
    f.write_text("int f() { x = 2²; }")
    code, out, err = run_cli("verify", str(f))
    assert (code, out) == (2, "")
    assert err == "error: 1:16: illegal character '²'\n"


def test_verify_term_on_a_long_walk_matches_verify(tmp_path):
    from test_symexec import walk_source

    from heapcheck.parser import parse_program
    from heapcheck.termir import emit_term_file, lower_program

    for n in (200, 1000):
        src = walk_source(n)
        (tmp_path / "walk.oc").write_text(src)
        (tmp_path / "walk.plt").write_text(emit_term_file(lower_program(parse_program(src))))
        direct = run_cli("verify", str(tmp_path / "walk.oc"))
        term = run_cli("verify-term", str(tmp_path / "walk.plt"))
        assert direct[0] == term[0] == 0
        assert term[1] == direct[1].replace("walk.oc", "walk.plt")
        assert f"walk{n}: Verified" in term[1]


# The whole argument-parsing surface, recorded before the parser was built
# once per process: each row is an argument list and its exact (exit code,
# stdout, stderr). argparse wraps help text to the terminal width, so the
# table runs with COLUMNS=80.
_TOP_USAGE = "usage: heapcheck [-h] {verify,emit-term,verify-term,run,entail} ...\n"
_VERIFY_USAGE = (
    "usage: heapcheck verify [-h] [--format {human,structured}] [--emit-proof DIR]\n"
    "                        [--unfold-depth UNFOLD_DEPTH]\n"
    "                        file\n"
)
_DEPTH_HELP = (
    "  --unfold-depth UNFOLD_DEPTH\n"
    "                        predicate unfold bound (default 4, env\n"
    "                        HEAPCHECK_UNFOLD_DEPTH)\n"
)
CLI_SURFACE = [
    ("help", ["--help"], (0, _TOP_USAGE + (
        "\n"
        "Static verifier for dynamically allocated memory in an annotated object-\n"
        "oriented C dialect.\n"
        "\n"
        "positional arguments:\n"
        "  {verify,emit-term,verify-term,run,entail}\n"
        "    verify              verify an annotated source file\n"
        "    emit-term           lower a source file to a .plt term file\n"
        "    verify-term         verify a .plt term file\n"
        "    run                 run a program on the concrete interpreter\n"
        "    entail              answer entailment queries from a .q file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), "")),
    ("verify-help", ["verify", "--help"], (0, _VERIFY_USAGE + (
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {human,structured}\n"
        "  --emit-proof DIR      write .dot and .pt.json proofs\n"
    ) + _DEPTH_HELP, "")),
    ("verify-term-help", ["verify-term", "--help"], (0, (
        "usage: heapcheck verify-term [-h] [--format {human,structured}]\n"
        "                             [--emit-proof DIR] [--unfold-depth UNFOLD_DEPTH]\n"
        "                             file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {human,structured}\n"
        "  --emit-proof DIR\n"
    ) + _DEPTH_HELP, "")),
    ("emit-term-help", ["emit-term", "--help"], (0, (
        "usage: heapcheck emit-term [-h] [-o OUTPUT] file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  -o OUTPUT, --output OUTPUT\n"
    ), "")),
    ("run-help", ["run", "--help"], (0, (
        "usage: heapcheck run [-h] [--fuel FUEL] file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --fuel FUEL\n"
    ), "")),
    ("entail-help", ["entail", "--help"], (0, (
        "usage: heapcheck entail [-h] [--unfold-depth UNFOLD_DEPTH] file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ) + _DEPTH_HELP, "")),
    ("no-arguments", [], (2, "", _TOP_USAGE
        + "heapcheck: error: the following arguments are required: command\n")),
    ("unknown-command", ["frobnicate"], (2, "", _TOP_USAGE
        + "heapcheck: error: argument command: invalid choice: 'frobnicate' "
          "(choose from 'verify', 'emit-term', 'verify-term', 'run', 'entail')\n")),
    ("missing-file", ["verify"], (2, "", _VERIFY_USAGE
        + "heapcheck verify: error: the following arguments are required: file\n")),
    ("format-xml", ["verify", "f.oc", "--format", "xml"], (2, "", _VERIFY_USAGE
        + "heapcheck verify: error: argument --format: invalid choice: 'xml' "
          "(choose from 'human', 'structured')\n")),
    ("depth-0", ["verify", "f.oc", "--unfold-depth", "0"], (2, "", _VERIFY_USAGE
        + "heapcheck verify: error: argument --unfold-depth: must be at least 1, got 0\n")),
    ("depth-minus-1", ["verify", "f.oc", "--unfold-depth", "-1"], (2, "", _VERIFY_USAGE
        + "heapcheck verify: error: argument --unfold-depth: must be at least 1, got -1\n")),
    ("depth-two", ["verify", "f.oc", "--unfold-depth", "two"], (2, "", _VERIFY_USAGE
        + "heapcheck verify: error: argument --unfold-depth: invalid int value: 'two'\n")),
    ("unknown-option", ["verify", "f.oc", "--frob"], (2, "", _TOP_USAGE
        + "heapcheck: error: unrecognized arguments: --frob\n")),
    ("fuel-x", ["run", "f.oc", "--fuel", "x"], (2, "", (
        "usage: heapcheck run [-h] [--fuel FUEL] file\n"
        "heapcheck run: error: argument --fuel: invalid int value: 'x'\n"))),
]


@pytest.mark.parametrize("argv, expected", [row[1:] for row in CLI_SURFACE],
                         ids=[row[0] for row in CLI_SURFACE])
def test_cli_surface(monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*argv) == expected


def test_cli_surface_twice_in_one_process(monkeypatch):
    # a parser reused across calls carries nothing from one call to the next
    monkeypatch.setenv("COLUMNS", "80")
    for _, argv, expected in CLI_SURFACE + CLI_SURFACE[::-1]:
        assert run_cli(*argv) == expected, argv


def test_format_does_not_carry_over_to_the_next_call():
    src = str(data_path("ex2.oc"))
    code, out, _ = run_cli("verify", src, "--format", "structured")
    assert code == 1 and all(line.startswith("{") for line in out.splitlines())
    code, out, _ = run_cli("verify", src)
    assert code == 1 and out.endswith(f"{src}: verified 0, refuted 1, inconclusive 0\n")


def test_unfold_depth_env_is_read_at_each_call(tmp_path, monkeypatch):
    # the depth handed to the verifier and the prover, not a verdict, since
    # which verdicts depend on the depth may change
    depths = []

    def verify(term, depth):
        depths.append(depth)
        return []

    real_prove = cli.prove

    def prove(ant, con, depth):
        depths.append(depth)
        return real_prove(ant, con, depth=depth)

    monkeypatch.setattr(cli, "verify_program_term", verify)
    monkeypatch.setattr(cli, "prove", prove)
    src = tmp_path / "f.oc"
    src.write_text("int f() { }")
    query = tmp_path / "q.q"
    query.write_text("entail. x->1 |- x->1.\n")
    for command, path in (("verify", src), ("entail", query)):
        depths.clear()
        monkeypatch.setenv("HEAPCHECK_UNFOLD_DEPTH", "8")
        assert run_cli(command, str(path))[0] == 0
        monkeypatch.delenv("HEAPCHECK_UNFOLD_DEPTH")
        assert run_cli(command, str(path))[0] == 0
        monkeypatch.setenv("HEAPCHECK_UNFOLD_DEPTH", "8")
        assert run_cli(command, str(path), "--unfold-depth", "6")[0] == 0
        assert depths == [8, 4, 6], command


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    real_build = cli.build_arg_parser

    def build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_arg_parser", build)
    cli._arg_parser.cache_clear()
    assert run_cli("verify", str(data_path("ex2.oc")))[0] == 1
    assert run_cli("emit-term", str(data_path("ex2.oc")), "-o", str(tmp_path / "ex2.plt"))[0] == 0
    assert run_cli("entail", str(data_path("queries.q")))[0] == 1
    assert built == [1]
    # the reused parser looks the verifier and the prover up at each call,
    # so the benchmark's capture hooks still see them
    seen = []
    real_verify, real_prove = cli.verify_program_term, cli.prove
    monkeypatch.setattr(cli, "verify_program_term",
                        lambda *a, **k: seen.append("verify") or real_verify(*a, **k))
    monkeypatch.setattr(cli, "prove", lambda *a, **k: seen.append("prove") or real_prove(*a, **k))
    run_cli("verify", str(data_path("ex2.oc")))
    run_cli("entail", str(data_path("queries.q")))
    assert seen[0] == "verify" and set(seen[1:]) == {"prove"}
    assert built == [1]


def test_import_builds_no_parser():
    code = "import heapcheck.cli as cli; print(cli._arg_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).parent.parent)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


# An input that cannot be read or decoded is a usage error (exit 2) with one
# error line, not a traceback and the exit code of a refutation.
UNREADABLE = [
    ("verify-directory", ["verify", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    ("verify-term-directory", ["verify-term", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    ("emit-term-directory", ["emit-term", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    ("run-directory", ["run", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    ("entail-directory", ["entail", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    ("verify-bytes", ["verify", "{bytes}"], "{decode}"),
    ("verify-term-bytes", ["verify-term", "{bytes}"], "{decode}"),
    ("emit-term-bytes", ["emit-term", "{bytes}"], "{decode}"),
    ("run-bytes", ["run", "{bytes}"], "{decode}"),
    ("entail-bytes", ["entail", "{bytes}"], "{decode}"),
    ("emit-proof-under-a-file", ["verify", "{ok}", "--emit-proof", "{ok}/x"],
     "[Errno 20] Not a directory: '{ok}/x'"),
]


@pytest.mark.parametrize("argv, error", [row[1:] for row in UNREADABLE],
                         ids=[row[0] for row in UNREADABLE])
def test_unreadable_input_is_a_usage_error(tmp_path, argv, error):
    (tmp_path / "d.oc").mkdir()
    (tmp_path / "bytes.oc").write_bytes(b"\xff\xfe int f() { }")
    (tmp_path / "ok.oc").write_text("int f() { }")
    names = {
        "dir": tmp_path / "d.oc",
        "bytes": tmp_path / "bytes.oc",
        "ok": tmp_path / "ok.oc",
        "decode": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }
    argv = [arg.format(**names) for arg in argv]
    assert run_cli(*argv) == (2, "", f"error: {error.format(**names)}\n")
