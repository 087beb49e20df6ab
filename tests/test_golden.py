"""Golden outputs: ``verify --format structured`` on every corpus file,
``entail`` on the query file, the ``--emit-proof`` DOT graph and JSON proof
tree of every corpus function and the ``emit-term`` ``.plt`` text of every
corpus file must stay byte-identical to the recorded files in ``tests/data/expected/``.

The CLI runs from the repository root with repo-relative paths, so the
``"file"`` field of each diagnostic is the same on every machine.  After a
change that means to alter output, regenerate the expectations with
``PYTHONPATH=src python tests/test_golden.py`` and say so in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from heapcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "data" / "expected"
CORPUS = sorted(p.name for p in (ROOT / "tests" / "data").glob("*.oc"))
QUERIES = "queries.q"


def _run(*args: str) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(args))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def render(name: str) -> tuple[int, str]:
    """Exit code and stdout of the CLI command that the golden file records."""
    path = f"tests/data/{name}"
    if name == QUERIES:
        return _run("entail", path)
    return _run("verify", path, "--format", "structured")


PROOF_GLOBS = ("*.dot", "*.pt.json")


def render_proofs(name: str) -> dict[str, str]:
    """The ``.dot`` graphs and ``.pt.json`` proof trees that ``verify
    --emit-proof`` writes for a corpus file, keyed by the golden file name
    ``<file>.<function>.dot`` or ``<file>.<function>.pt.json``."""
    with tempfile.TemporaryDirectory() as outdir:
        _run("verify", f"tests/data/{name}", "--emit-proof", outdir)
        proofs = sorted(p for glob in PROOF_GLOBS for p in Path(outdir).glob(glob))
        return {f"{name}.{p.name}": p.read_text(encoding="utf-8") for p in proofs}


def _golden_proofs() -> set[str]:
    return {p.name for glob in PROOF_GLOBS for p in EXPECTED.glob(glob)}


def render_term(name: str) -> str:
    """The ``.plt`` text that ``emit-term`` writes for a corpus file."""
    with tempfile.TemporaryDirectory() as outdir:
        out = Path(outdir) / f"{name}.plt"
        _run("emit-term", f"tests/data/{name}", "-o", str(out))
        return out.read_text(encoding="utf-8")


def _exit_codes() -> dict[str, int]:
    return json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CORPUS + [QUERIES])
def test_output_matches_golden(name):
    code, out = render(name)
    assert out == (EXPECTED / f"{name}.out").read_text(encoding="utf-8")
    assert code == _exit_codes()[name]


@pytest.mark.parametrize("name", CORPUS)
def test_proof_trees_match_golden(name):
    trees = render_proofs(name)
    assert trees
    for golden, text in trees.items():
        assert text == (EXPECTED / golden).read_text(encoding="utf-8"), golden


@pytest.mark.parametrize("name", CORPUS)
def test_term_files_match_golden(name):
    assert render_term(name) == (EXPECTED / f"{name}.plt").read_text(encoding="utf-8")


def test_every_golden_file_has_an_input():
    recorded = {p.name[: -len(".out")] for p in EXPECTED.glob("*.out")}
    assert recorded == set(CORPUS + [QUERIES])
    assert set(_exit_codes()) == recorded
    trees = {golden for name in CORPUS for golden in render_proofs(name)}
    assert _golden_proofs() == trees
    assert {p.name[: -len(".plt")] for p in EXPECTED.glob("*.plt")} == set(CORPUS)


def _regenerate() -> None:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name in CORPUS + [QUERIES]:
        codes[name], out = render(name)
        (EXPECTED / f"{name}.out").write_text(out, encoding="utf-8")
    for old in _golden_proofs():
        (EXPECTED / old).unlink()
    for name in CORPUS:
        for golden, text in render_proofs(name).items():
            (EXPECTED / golden).write_text(text, encoding="utf-8")
        (EXPECTED / f"{name}.plt").write_text(render_term(name), encoding="utf-8")
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (EXPECTED / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
