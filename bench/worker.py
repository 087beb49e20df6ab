"""Benchmark worker: generate one round of a workload, check the generator's
output, run every input through ``heapcheck.cli.main`` one after another and
print one JSON line with the per-input results.

Usage (``bench/run.py`` starts it with ``PYTHONPATH`` at the checkout's
``src``)::

    python3 bench/worker.py WORKLOAD SEED ROUND RUNDIR LIMIT_S TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import FAILED, PROVED, REFUTED, VERIFIED, Input  # noqa: E402

UNFOLD_DEPTH = "4"
EMIT_REPEATS = 3


class SelfCheckError(Exception):
    """The generator produced an input that does not mean what it claims."""


class TimeLimit(BaseException):
    """Raised by SIGALRM; a BaseException so no handler inside heapcheck eats it."""


def _on_alarm(signum, frame):
    raise TimeLimit()


# --------------------------------------------------------------------------
# generator self-check (untimed)
# --------------------------------------------------------------------------


def self_check(inputs: list[Input]) -> None:
    from heapcheck.interp import ConcreteState, Fault, run_concrete
    from heapcheck.parser import parse_program
    from heapcheck.termir import check_shape, emit_term_file, lower_program, parse_term, term_functions

    seen = set()
    for inp in inputs:
        if inp.source in seen:
            raise SelfCheckError(f"{inp.name}: duplicate input")
        seen.add(inp.source)
        if inp.suffix == "q":
            body = inp.source.strip()[len("entail."):].rstrip(".")
            for side in body.split("|-"):
                t = parse_term(side.strip())
                if parse_term(emit_term_file(t).rstrip().rstrip(".")) != t:
                    raise SelfCheckError(f"{inp.name}: term text does not round-trip")
            continue
        term = parse_term(inp.source) if inp.suffix == "plt" else lower_program(parse_program(inp.source))
        check_shape(term)
        if parse_term(emit_term_file(term)) != term:
            raise SelfCheckError(f"{inp.name}: term text does not round-trip")
        table = {fn.args[0].name: fn for fn in term_functions(term)}
        if set(table) != set(inp.expect):
            raise SelfCheckError(f"{inp.name}: functions {sorted(table)} != {sorted(inp.expect)}")
        for fname, fault in inp.concrete:
            res = run_concrete(table[fname], ConcreteState(), fuel=10_000, functions=table)
            got = res.kind if isinstance(res, Fault) else None
            if got != fault:
                raise SelfCheckError(f"{inp.name}: {fname} runs concretely to {got}, expected {fault}")


# --------------------------------------------------------------------------
# grading against the known answer
# --------------------------------------------------------------------------


def grade(inp: Input, rc, text: str) -> tuple[bool, bool, bool]:
    """(answer given, verdict contradicts the answer, defect reported sound)."""
    if inp.suffix == "q":
        want = inp.expect["query"][0]
        got = PROVED if rc == 0 and ": proved" in text else FAILED if rc == 1 else None
        wrong = got is not None and got != want
        return got == want, wrong, want == FAILED and got == PROVED
    verdicts: dict[str, tuple[str, frozenset]] = {}
    kinds: set[str] = set()
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["type"] == "diagnostic":
            kinds.add(rec["kind"])
        elif rec["type"] == "verdict":
            verdicts[rec["function"]] = (rec["status"], frozenset(kinds))
            kinds = set()
    want_rc = 1 if any(s == REFUTED for s, _ in inp.expect.values()) else 0
    ok = rc == want_rc and verdicts == inp.expect
    wrong = unsound = False
    for fname, (status, _) in inp.expect.items():
        got = verdicts.get(fname, ("", None))[0]
        if {status, got} == {VERIFIED, REFUTED}:
            wrong = True
            unsound = unsound or got == VERIFIED
    return ok, wrong, unsound


# --------------------------------------------------------------------------
# the timed loop
# --------------------------------------------------------------------------


def _argv(inp: Input, path: Path) -> list[str]:
    if inp.suffix == "q":
        return ["entail", str(path), "--unfold-depth", UNFOLD_DEPTH]
    cmd = "verify-term" if inp.suffix == "plt" else "verify"
    return [cmd, str(path), "--format", "structured", "--unfold-depth", UNFOLD_DEPTH]


def _proof_trees(captured: list) -> list:
    from heapcheck.prooftree import ProofTree

    trees = []
    for item in captured:
        if isinstance(item, list):  # verdicts of one verify_program_term call
            trees += [v.proof for v in item]
        else:  # one entailment result
            trees.append(ProofTree(item.tree))
    return trees


def _render_seconds(trees: list, to_dot, to_structured, options) -> float:
    start = perf_counter()
    for tree in trees:
        to_dot(tree, options)
        to_structured(tree)
    return perf_counter() - start


def run(workload: str, seed: int, round_index: int, rundir: Path, limit: float, traced: bool) -> dict:
    from heapcheck import arith, cli
    from heapcheck.prooftree import DotOptions, to_dot, to_structured

    inputs = workloads.ROUNDS[workload](seed, round_index)
    self_check(inputs)
    rundir.mkdir(parents=True, exist_ok=True)
    paths = []
    for inp in inputs:
        path = rundir / f"{inp.name}.{inp.suffix}"
        path.write_text(inp.source, encoding="utf-8")
        paths.append(path)

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    # keep what verify_program_term and prove return, for the proof export
    captured: list = []
    real_verify, real_prove = cli.verify_program_term, cli.prove

    def capture_verify(*a, **k):
        out = real_verify(*a, **k)
        captured.append(out)
        return out

    def capture_prove(*a, **k):
        out = real_prove(*a, **k)
        captured.append(out)
        return out

    cli.verify_program_term, cli.prove = capture_verify, capture_prove

    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    totals: dict = {"self": {}, "counts": {}, "atoms": {}, "export_s": 0.0,
                    "rules": 0, "branches": 0, "diagnostics": 0, "nodes": 0, "text_bytes": 0}
    for inp, path in zip(inputs, paths):
        # each input starts with the empty solver cache of a fresh `heapcheck`
        # process; within the input it carries over between the file's functions
        getattr(arith, "_solver_cache", {}).clear()
        captured.clear()
        out, err = io.StringIO(), io.StringIO()
        rc, cause = None, ""
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(_argv(inp, path))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except TimeLimit:
            cause = "time limit"
        except Exception as e:  # a crash is a graded failure, not a benchmark error
            cause = f"crash: {type(e).__name__}"
        seconds = perf_counter() - start
        if rc == 2:
            cause = "exit 2: " + err.getvalue().strip()[:80]
        if cause:
            ok, wrong, unsound = False, False, False
        else:
            try:
                ok, wrong, unsound = grade(inp, rc, out.getvalue())
            except (ValueError, KeyError) as e:
                ok, wrong, unsound, cause = False, False, False, f"bad output: {e}"
        if not ok and not cause:
            cause = "wrong verdict" if wrong else "wrong diagnostics"

        trees = _proof_trees(captured)
        emit_s = None
        if trees and not cause.startswith(("time", "crash")):
            # rendering is deterministic and keeps no state, so the fastest of
            # a few renders is its cost without interference from other work
            emit_s = min(_render_seconds(trees, to_dot, to_structured, DotOptions())
                         for _ in range(EMIT_REPEATS))
        records.append({"label": inp.label, "s": seconds, "ok": ok, "wrong": wrong,
                        "unsound": unsound, "cause": cause, "emit_s": emit_s})
        if tracer is not None:
            _accumulate(totals, tracer, captured, trees, emit_s)

    cli.verify_program_term, cli.prove = real_verify, real_prove
    if tracer is not None:
        tracer.uninstall()
    for path in paths:
        path.unlink()
    return {
        "records": records,
        "hashes": [hashlib.sha256(i.source.encode()).hexdigest()[:16] for i in inputs],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": totals if traced else None,
    }


def _accumulate(totals: dict, tracer, captured: list, trees: list, emit_s) -> None:
    self_time, counts, atoms = tracer.take()
    for k, v in self_time.items():
        totals["self"][k] = totals["self"].get(k, 0.0) + v
    for k, v in counts.items():
        totals["counts"][k] = totals["counts"].get(k, 0) + v
    for k, v in atoms.items():
        totals["atoms"][k] = totals["atoms"].get(k, 0) + v
    totals["export_s"] += emit_s or 0.0
    for item in captured:
        if isinstance(item, list):
            for v in item:
                totals["rules"] += v.stats.rule_applications
                totals["branches"] += v.stats.branches
                totals["diagnostics"] += len(v.diagnostics)
    for tree in trees:
        for node in tree.root.walk():
            totals["nodes"] += 1
            totals["text_bytes"] += len(node.input.encode("utf-8"))


def main(argv: list[str]) -> int:
    workload, seed, round_index, rundir, limit, traced = argv
    try:
        result = run(workload, int(seed), int(round_index), Path(rundir), float(limit), traced == "1")
    except SelfCheckError as e:
        print(f"generator self-check failed: {e}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
