"""Command-line driver: verify sources, emit/import terms, run the concrete
interpreter, and answer standalone entailment queries.

Exit codes: 0 everything verified, 1 any refutation (or fault in ``run``),
2 parse or usage errors, 3 any inconclusive verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from . import formula as fm
from .entail import Failed, FreshNames, Proved, formula_to_symheaps, prove
from .errors import HeapcheckError
from .parser import parse_program
from .prooftree import DotOptions, to_dot, to_structured
from .symexec import INCONCLUSIVE, REFUTED, VERIFIED, Verdict, verify_program_term
from .termir import (
    Term,
    check_predicates,
    check_shape,
    emit_term_file,
    lower_program,
    parse_term,
    program_items,
    term_class_fields,
    term_functions,
    term_to_formula,
)

DEPTH_ENV = "HEAPCHECK_UNFOLD_DEPTH"

EXIT_OK, EXIT_REFUTED, EXIT_ERROR, EXIT_INCONCLUSIVE = 0, 1, 2, 3


def _default_depth() -> int:
    """The unfold bound when ``--unfold-depth`` is not given, read from
    ``HEAPCHECK_UNFOLD_DEPTH`` at each call."""
    raw = os.environ.get(DEPTH_ENV, "")
    try:
        return max(1, int(raw)) if raw else 4
    except ValueError:
        return 4


def _unfold_depth(text: str) -> int:
    """An ``--unfold-depth`` value: an integer of at least 1, the floor that
    ``HEAPCHECK_UNFOLD_DEPTH`` is clamped to."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {depth}")
    return depth


def _load_program_term(path: Path) -> Term:
    """The checked program term of a source or ``.plt`` file; ``parse_program``
    checks a source file, and this a term file's shape, then its predicates
    (``check_predicates`` reads the shapes that ``check_shape`` checks)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".plt":
        term = parse_term(text)
        check_shape(term)
        check_predicates(program_items(term), term_class_fields(term))
        return term
    return lower_program(parse_program(text))


def _print_verdicts(
    verdicts: list[Verdict], filename: str, structured: bool, out=None
) -> int:
    out = out or sys.stdout
    if structured:
        import json  # imported here so that text output does not load it
    counts = {VERIFIED: 0, REFUTED: 0, INCONCLUSIVE: 0}
    for v in verdicts:
        counts[v.status] += 1
        if structured:
            for d in v.diagnostics:
                print(
                    json.dumps(
                        {
                            "type": "diagnostic",
                            "kind": d.kind,
                            "file": filename,
                            "line": d.span.line,
                            "column": d.span.col,
                            "message": d.message,
                            "counterexample": d.counterexample,
                        }
                    ),
                    file=out,
                )
            print(
                json.dumps(
                    {
                        "type": "verdict",
                        "function": v.function,
                        "status": v.status,
                        "rules": v.stats.rule_applications,
                        "branches": v.stats.branches,
                        "reason": v.inconclusive_reason,
                    }
                ),
                file=out,
            )
        else:
            for d in v.diagnostics:
                print(d.format(filename), file=out)
            note = f" ({v.inconclusive_reason})" if v.status == INCONCLUSIVE else ""
            print(f"{filename}: {v.function}: {v.status}{note}", file=out)
    if structured:
        print(
            json.dumps(
                {
                    "type": "summary",
                    "verified": counts[VERIFIED],
                    "refuted": counts[REFUTED],
                    "inconclusive": counts[INCONCLUSIVE],
                }
            ),
            file=out,
        )
    else:
        print(
            f"{filename}: verified {counts[VERIFIED]}, refuted {counts[REFUTED]}, "
            f"inconclusive {counts[INCONCLUSIVE]}",
            file=out,
        )
    if counts[REFUTED]:
        return EXIT_REFUTED
    if counts[INCONCLUSIVE]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _emit_proofs(verdicts: list[Verdict], outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    seen: dict[str, int] = {}
    for v in verdicts:
        # functions of different classes may share a name: the k-th verdict
        # of a name (k > 1) writes <name>-k, which no identifier can spell
        seen[v.function] = k = seen.get(v.function, 0) + 1
        stem = v.function if k == 1 else f"{v.function}-{k}"
        tree = v.proof
        (outdir / f"{stem}.dot").write_text(to_dot(tree, DotOptions()), encoding="utf-8")
        (outdir / f"{stem}.pt.json").write_text(to_structured(tree), encoding="utf-8")


def _cmd_verify(args: argparse.Namespace) -> int:
    path = Path(args.file)
    verdicts = verify_program_term(
        _load_program_term(path), depth=args.unfold_depth or _default_depth()
    )
    if args.emit_proof:
        _emit_proofs(verdicts, Path(args.emit_proof))
    return _print_verdicts(verdicts, str(path), args.format == "structured")


def _cmd_emit_term(args: argparse.Namespace) -> int:
    path = Path(args.file)
    program = parse_program(path.read_text(encoding="utf-8"))
    term = lower_program(program)
    out = Path(args.output) if args.output else path.with_suffix(".plt")
    out.write_text(emit_term_file(term), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    # the concrete interpreter serves only this command; importing it here
    # keeps it out of every other command's start-up
    from .interp import ConcreteState, Fault, run_concrete

    path = Path(args.file)
    functions = term_functions(_load_program_term(path))
    if not functions:
        print(f"{path}: no functions to run", file=sys.stderr)
        return EXIT_ERROR
    chosen = None
    for fn in functions:
        if fn.args[0].name == "main":  # type: ignore[union-attr]
            chosen = fn
            break
    chosen = chosen or functions[0]
    table = {fn.args[0].name: fn for fn in functions}  # type: ignore[union-attr]
    result = run_concrete(chosen, ConcreteState(), fuel=args.fuel, functions=table)
    name = chosen.args[0].name  # type: ignore[union-attr]
    if isinstance(result, Fault):
        print(f"{path}: {name}: {result}")
        return EXIT_REFUTED
    print(f"{path}: {name}: completed in {result.steps} steps")
    print(result.snapshot())
    return EXIT_OK


def _cmd_entail(args: argparse.Namespace) -> int:
    path = Path(args.file)
    text = path.read_text(encoding="utf-8")
    queries = _parse_queries(text)
    if not queries:
        print(f"{path}: no entailment queries found", file=sys.stderr)
        return EXIT_ERROR
    fresh = FreshNames()
    depth = args.unfold_depth or _default_depth()
    any_failed = False
    for i, (ant_text, con_text) in enumerate(queries, 1):
        ant_f = term_to_formula(parse_term(ant_text))
        con_f = term_to_formula(parse_term(con_text))
        ants = formula_to_symheaps(ant_f, fresh, skolemize=True)
        cons = formula_to_symheaps(con_f, fresh, skolemize=False)
        proved = None
        for ant in ants:
            for con in cons:
                res = prove(ant, con, depth=depth)
                if isinstance(res, Proved):
                    proved = res
                    break
            if proved:
                break
        if proved is not None:
            print(f"query {i}: proved, frame: {proved.frame.pretty()}")
        else:
            any_failed = True
            assert isinstance(res, Failed)
            residue = ", ".join(fm.pretty(a) for a in res.residue_consequent)
            print(f"query {i}: failed near rule '{res.nearest_rule}'"
                  + (f", unmatched: {residue}" if residue else ""))
    return EXIT_REFUTED if any_failed else EXIT_OK


def _parse_queries(text: str) -> list[tuple[str, str]]:
    out = []
    for chunk in text.split("entail."):
        body = chunk.strip()
        if not body:
            continue
        if "|-" not in body:
            raise HeapcheckError("entailment query must contain '|-'")
        left, right = body.split("|-", 1)
        right = right.strip()
        if right.endswith("."):
            right = right[:-1]
        out.append((left.strip(), right.strip()))
    return out


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heapcheck",
        description="Static verifier for dynamically allocated memory in an "
        "annotated object-oriented C dialect.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_depth(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--unfold-depth",
            type=_unfold_depth,
            help=f"predicate unfold bound (default 4, env {DEPTH_ENV})",
        )

    p = sub.add_parser("verify", help="verify an annotated source file")
    p.add_argument("file")
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.add_argument("--emit-proof", metavar="DIR", help="write .dot and .pt.json proofs")
    add_depth(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("emit-term", help="lower a source file to a .plt term file")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_emit_term)

    p = sub.add_parser("verify-term", help="verify a .plt term file")
    p.add_argument("file")
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.add_argument("--emit-proof", metavar="DIR")
    add_depth(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="run a program on the concrete interpreter")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=10_000)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("entail", help="answer entailment queries from a .q file")
    p.add_argument("file")
    add_depth(p)
    p.set_defaults(func=_cmd_entail)
    return ap


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first ``main`` call; parsing
    leaves it unchanged, so every later call reuses it."""
    return build_arg_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, HeapcheckError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input is nested too deeply to process", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
