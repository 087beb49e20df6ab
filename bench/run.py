"""heapcheck benchmark: time to a verdict on seeded, generated workloads.

    python3 bench/run.py --workload {lists,corpus,entail} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. Load is a closed loop with one client:
one worker process at a time runs one round of the workload's fixed input
mix, input after input, through ``heapcheck.cli.main``. Rounds are repeated
with fresh inputs; their number is fixed per workload and ``--seconds``, so
that every run attempts the same inputs, and is chosen so that a run measures
about ``--seconds`` of verdict time.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` the same rounds run traced twice, the layer counts of the two
runs must match exactly, and the last line holds per-layer metrics (per
input, averaged over the traced run). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# per-input time limit; the tail percentile reported, fixed per workload so
# that one round already leaves ten samples beyond it; and the verdict time of
# one round at the seed on a shared 2-core x86-64 machine, which sets the
# number of rounds for a given --seconds
WORKLOADS = {
    "lists": {"limit_s": 8.0, "tail": 85, "round_s": 19.0},
    "corpus": {"limit_s": 2.0, "tail": 90, "round_s": 2.6},
    "entail": {"limit_s": 2.0, "tail": 95, "round_s": 4.2},
}
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170

SETUP_CODE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from heapcheck import cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify", sys.argv[1]])
print(json.dumps({"import_s": t1 - t0, "rc": rc}))
"""
TINY_PROGRAM = "int f() { new(x); [x] = 1; delete(x); }\n"

class BenchError(Exception):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("HEAPCHECK_UNFOLD_DEPTH", None)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, rundir: Path) -> tuple[list[float], list[float]]:
    """Cold start: a fresh interpreter imports heapcheck.cli and verifies a
    tiny program. Returns wall times and in-process import times."""
    tiny = rundir / "tiny.oc"
    tiny.write_text(TINY_PROGRAM, encoding="utf-8")
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(tiny)], env=env,
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.strip()[-300:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if out["rc"] != 0:
            raise BenchError(f"tiny program did not verify (exit {out['rc']})")
        imports.append(out["import_s"])
    return walls, imports


def run_worker(bench_dir: Path, env: dict, rundir: Path, workload: str, seed: int,
               round_index: int, traced: bool) -> dict:
    cmd = [sys.executable, str(bench_dir / "worker.py"), workload, str(seed), str(round_index),
           str(rundir), str(WORKLOADS[workload]["limit_s"]), "1" if traced else "0"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker for round {round_index} failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds that measure about ``seconds``, at least one. The count
    depends on nothing measured, so a run's inputs, and with them the numbers
    attempted and failed, are the same on every run of the same arguments."""
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    idx = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


def end_to_end(workload: str, results: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    cfg = WORKLOADS[workload]
    records = [rec for res in results for rec in res["records"]]
    # a failed input counts as missing the limit
    latencies = sorted(cfg["limit_s"] if not rec["ok"] else rec["s"] for rec in records)
    tail, beyond = percentile(latencies, cfg["tail"])
    if beyond < 10:
        raise BenchError(f"only {beyond} samples beyond p{cfg['tail']}")
    worker_s = sum(rec["s"] for rec in records)
    ok = sum(rec["ok"] for rec in records)
    emits = [rec["emit_s"] for rec in records if rec["emit_s"] is not None]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "verdict_s_p50": metric(statistics.median(latencies), "s"),
        "verdict_s_tail": metric(tail, "s"),
        "decided_per_s": metric(ok / worker_s, "1/s"),
        "emit_proof_s_p50": metric(statistics.median(emits), "s"),
        "peak_rss_mb": metric(max(res["maxrss_kb"] for res in results) / 1024, "MB"),
    }
    failed = len(records) - ok
    notes = [f"verdict_s_tail is p{cfg['tail']} of {len(records)} samples, {beyond} beyond it",
             f"rounds {len(results)}, worker time {worker_s:.3f} s",
             f"failed_share {failed / len(records):.4f} share ({failed} of {len(records)}), "
             f"wrong_verdicts {sum(rec['wrong'] for rec in records)} count, "
             f"unsound_verdicts {sum(rec['unsound'] for rec in records)} count"]
    causes = Counter((rec["label"], rec["cause"]) for rec in records if not rec["ok"])
    notes += [f"  failed {n}x {label}: {cause}" for (label, cause), n in sorted(causes.items())]
    if workload == "lists":
        notes += size_table(records)
    return metrics, notes


def size_table(records: list[dict]) -> list[str]:
    """Median time per lists size for the correct forms (the Baseline table)."""
    by: dict[str, list[dict]] = {}
    for rec in records:
        family_size, variant = rec["label"].split("/")
        if variant == "ok":
            by.setdefault(family_size, []).append(rec)
    out = ["  size     median_s  answered"]
    for key in sorted(by, key=lambda k: (k.split("-")[0], int(k.split("-")[1]))):
        recs = by[key]
        median = statistics.median(r["s"] for r in recs)
        out.append(f"  {key:<8} {median:8.3f}  {sum(r['ok'] for r in recs)}/{len(recs)}")
    return out


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def sum_traces(results: list[dict]) -> tuple[Counter, Counter, Counter, Counter]:
    """Self time per layer, call and result counts, the arith atom-size
    histogram and the remaining totals, summed over workers."""
    self_s, counts, atoms, tot = Counter(), Counter(), Counter(), Counter()
    for res in results:
        t = res["trace"]
        self_s.update(t["self"])
        counts.update(t["counts"])
        atoms.update({int(k): v for k, v in t["atoms"].items()})
        tot.update({k: v for k, v in t.items() if k not in ("self", "counts", "atoms")})
    counts["arith.calls"] = (sum(v for k, v in counts.items() if k.startswith("PureSet."))
                             + counts["simplify_expr"])
    return self_s, counts, atoms, tot


def deterministic_counts(results: list[dict]) -> dict:
    """The counts that two traced runs of the same inputs must reproduce exactly."""
    _, counts, _, tot = sum_traces(results)
    return {
        "lexer.tokens": counts["tokens"],
        "arith.calls": counts["arith.calls"],
        "symexec.rules": tot["rules"],
        "entail.prove_calls": counts["prove"],
        "prooftree.nodes": tot["nodes"],
    }


def layer_metrics(results: list[dict], untraced: list[dict], import_s: list[float]) -> dict:
    records = [rec for res in results for rec in res["records"]]
    n = len(records)
    self_s, counts, atoms, tot = sum_traces(results)
    prove_calls = counts["prove"]
    symheap_calls = counts["formula_to_symheaps"]
    traced_s = sum(rec["s"] for rec in records)
    untraced_s = sum(rec["s"] for res in untraced for rec in res["records"])
    ok = sum(rec["ok"] for rec in records)

    def per(x: float) -> float:
        return x / n

    return {
        "cli.import_s": metric(statistics.median(import_s), "s"),
        "cli.self_s": metric(per(self_s["cli"]), "s"),
        "lexer.tokens": metric(per(counts["tokens"]), "count"),
        "lexer.self_s": metric(per(self_s["lexer"]), "s"),
        "parser.self_s": metric(per(self_s["parser"]), "s"),
        "termir.lower_s": metric(per(self_s["termir.lower"]), "s"),
        "termir.parse_term_s": metric(per(self_s["termir.parse_term"]), "s"),
        "termir.convert_s": metric(per(self_s["termir"]), "s"),
        "termir.nodes": metric(per(counts["term_nodes"]), "count"),
        "symexec.self_s": metric(per(self_s["symexec"]), "s"),
        "symexec.rules": metric(per(tot["rules"]), "count"),
        "symexec.branches": metric(per(tot["branches"]), "count"),
        "symexec.diagnostics": metric(per(tot["diagnostics"]), "count"),
        "entail.self_s": metric(per(self_s["entail"]), "s"),
        "entail.prove_calls": metric(per(prove_calls), "count"),
        "entail.proved_ratio": metric(counts["proved"] / prove_calls if prove_calls else 0.0, "share"),
        "entail.symheaps": metric(counts["symheaps"] / symheap_calls if symheap_calls else 0.0,
                                  "count"),
        "arith.self_s": metric(per(self_s["arith"]), "s"),
        "arith.calls": metric(per(counts["arith.calls"]), "count"),
        "arith.atoms_p50": metric(histogram_median(atoms), "count"),
        "arith.atoms_max": metric(max(atoms) if atoms else 0, "count"),
        "formula.pretty_s": metric(per(self_s["formula"]), "s"),
        "formula.pretty_calls": metric(per(counts["pretty"] + counts["SymHeap.pretty"]), "count"),
        "prooftree.nodes": metric(per(tot["nodes"]), "count"),
        "prooftree.text_bytes": metric(per(tot["text_bytes"]), "bytes"),
        "prooftree.export_s": metric(per(tot["export_s"]), "s"),
        "trace.overhead_s": metric(per(traced_s - untraced_s), "s"),
        "verdict.traced_s": metric(per(traced_s), "s"),
        "verdict.failed_share": metric((n - ok) / n, "share"),
        "verdict.wrong_verdicts": metric(sum(rec["wrong"] for rec in records), "count"),
    }


def histogram_median(hist: Counter) -> int:
    """Lower median of a {value: count} histogram; 0 when it is empty."""
    half, seen = (sum(hist.values()) + 1) // 2, 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= half:
            return value
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "heapcheck" / "cli.py").is_file():
        print(f"error: no heapcheck sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench_dir = Path(__file__).resolve().parent
    rundir = root / ".bench_run" / str(os.getpid())
    rundir.mkdir(parents=True, exist_ok=True)
    env = worker_env(src)
    try:
        walls, imports = measure_setup(env, rundir)

        def run_one(traced: bool):
            return lambda r: run_worker(bench_dir, env, rundir, args.workload, args.seed, r, traced)

        if args.trace:
            rounds = range(round_count(args.workload, args.seconds / 2))
            first = [run_one(True)(r) for r in rounds]
            second = [run_one(True)(r) for r in rounds]
            a, b = deterministic_counts(first), deterministic_counts(second)
            if a != b:
                raise BenchError(f"traced runs of the same inputs differ: {a} != {b}")
            untraced = [run_one(False)(r) for r in rounds]
            metrics = layer_metrics(first, untraced, imports)
            results = first
            print(f"determinism check passed: {json.dumps(a)}")
        else:
            results = [run_one(False)(r) for r in range(round_count(args.workload, args.seconds))]
            metrics, notes = end_to_end(args.workload, results, walls)
            print("\n".join(notes))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass

    hashes = [h for res in results for h in res["hashes"]]
    records = [rec for res in results for rec in res["records"]]
    unsound = sum(rec["unsound"] for rec in records)
    distinct = len(set(hashes)) == len(hashes)
    if not distinct:
        print("error: an input repeats within the run", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": distinct and unsound == 0,
        "attempted": len(records),
        "failed": sum(not rec["ok"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
