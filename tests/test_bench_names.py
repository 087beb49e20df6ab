"""The package names the benchmark harness (``bench/``) imports, patches or
traces must exist: ``Tracer.install`` stops a traced run with an
AttributeError on a missing one, and the worker captures proof trees only
through ``cli.verify_program_term`` and ``cli.prove``."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest
from conftest import data_path

from heapcheck import cli

BENCH = Path(__file__).parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACED = _bench_module("layers").TRACED


@pytest.mark.parametrize("layer, module, qual", TRACED, ids=lambda x: str(x))
def test_every_traced_name_resolves(layer, module, qual):
    owner = importlib.import_module(module)
    *classes, name = qual.split(".")
    for c in classes:
        owner = getattr(owner, c)
    # a method is patched in its class's own namespace
    assert callable(vars(owner)[name] if classes else getattr(owner, name)), qual


def package_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each name a bench file imports from the package,
    and for each attribute it reads or sets on a package module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: set[tuple[str, str]] = set()
    modules: dict[str, str] = {}  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heapcheck":
            for alias in node.names:
                if node.module == "heapcheck":
                    modules[alias.asname or alias.name] = f"heapcheck.{alias.name}"
                else:
                    found.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return found


BENCH_NAMES = sorted(set().union(*(package_names(p) for p in sorted(BENCH.glob("*.py")))))


def test_the_scan_finds_what_the_worker_uses():
    assert {
        ("heapcheck.cli", "verify_program_term"),
        ("heapcheck.cli", "prove"),
        ("heapcheck.cli", "main"),
        ("heapcheck.interp", "run_concrete"),
        ("heapcheck.interp", "ConcreteState"),
        ("heapcheck.interp", "Fault"),
        ("heapcheck.termir", "check_shape"),
        ("heapcheck.prooftree", "DotOptions"),
        ("heapcheck.prooftree", "to_dot"),
        ("heapcheck.prooftree", "to_structured"),
    } <= set(BENCH_NAMES)


@pytest.mark.parametrize("module, name", BENCH_NAMES, ids=lambda x: str(x))
def test_every_bench_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_the_cli_verifies_and_proves_through_its_module_names(monkeypatch, capsys):
    seen = []

    def spy(name: str) -> None:
        real = getattr(cli, name)

        def call(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, call)

    spy("verify_program_term")
    spy("prove")
    cli.main(["verify", str(data_path("ex1.oc"))])
    assert seen == ["verify_program_term"]
    cli.main(["entail", str(data_path("queries.q"))])
    assert seen[1:] and set(seen[1:]) == {"prove"}
