"""Seeded input generators with answers known by construction.

Every generator takes ``(seed, round_index)`` and returns the same inputs for
the same arguments. A round is the workload's fixed input mix: the sizes,
templates and defect kinds are fixed, while names, constants, defect
positions and order come from the seed. Each input carries the verdict and
the set of diagnostic kinds that a correct verifier must report for each
function (or, on ``entail``, whether the query is valid).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VERIFIED, REFUTED = "Verified", "Refuted"
PROVED, FAILED = "Proved", "Failed"

ACCESS, FREE, LEAK = "InvalidAccess", "InvalidFree", "MemoryLeak"
CONTRACT, INVARIANT = "ContractViolation", "InvariantViolation"


@dataclass
class Input:
    name: str  # file stem, unique within a run
    suffix: str  # "oc", "plt" or "q"
    label: str  # mix cell, e.g. "walk-24/leak"
    source: str  # dialect source for oc/plt inputs, the query file for q
    # function name -> (status, kinds); for "q" inputs a single "query" entry
    expect: dict[str, tuple[str, frozenset]]
    # functions with an emp precondition: (name, expected concrete fault or None)
    concrete: list[tuple[str, str | None]] = field(default_factory=list)


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


# --------------------------------------------------------------------------
# lists: straight-line list walks and copies
# --------------------------------------------------------------------------

# (family, N, variant); "ok" is the correct form. The ladder spans the sizes of
# the ROADMAP Baseline: correct walk-8..40 and copy-4..15, where copy-15 is the
# smallest copy that fails at the seed, each size also with seeded defects.
LISTS_LADDER: tuple[tuple[str, int, str], ...] = (
    *(("walk", n, "ok") for n in (8, 10, 12, 16, 18, 20, 24, 26, 28, 32, 40)),
    *(("walk", n, "access") for n in (8, 10, 12, 16, 20, 24, 26, 30, 32, 36, 40)),
    *(("walk", n, "free") for n in (8, 16, 24)),
    *(("walk", n, "leak") for n in (8, 16, 20, 24)),
    *(("copy", n, "ok") for n in (4, 6, 7, 8, 10, 12, 15)),
    *(("copy", n, "access") for n in (4, 5, 6, 8, 10, 12, 14, 16)),
    *(("copy", n, "free") for n in (4, 5, 6, 7, 8, 10)),
    *(("copy", n, "leak") for n in (4, 6)),
)

# Inputs of 0.04 to 0.2 s each, around the ladder's median. One input's time
# varies by 15% within a run, and the ladder alone has only a few inputs near
# its median, so the median jumped from input to input and spread by up to 24%
# over ten runs. With this band the median falls among about 40 inputs of
# neighbouring cost. All of them are answered correctly at the seed, so they
# leave the failures of the ladder as they are.
LISTS_BAND: tuple[tuple[str, int, str], ...] = (
    *(("walk", n, "ok") for n in (13, 14, 15, 16, 17, 18, 19)),
    *(("walk", n, "access") for n in (20, 21, 22, 23, 24, 25, 26, 27, 28, 29)),
    *(("walk", n, "leak") for n in (10, 12, 13, 14)),
    *(("copy", n, "ok") for n in (5, 5, 6, 7)),
    *(("copy", n, "free") for n in (6, 7, 7, 8, 8, 9)),
    *(("copy", n, "leak") for n in (5, 5)),
)

LISTS_MIX = LISTS_LADDER + LISTS_BAND

_LIST_EXPECT = {"ok": (VERIFIED, frozenset()), "access": (REFUTED, frozenset({ACCESS})),
                "free": (REFUTED, frozenset({FREE})), "leak": (REFUTED, frozenset({LEAK}))}

# The seed picks the node a defect involves. A free or leak defect sits after
# the last read or copy, and a walk reads past nil only at its last read, so
# the work before the defect, and with it the input's cost, is the same for
# every seed: a defect placed earlier ends the path earlier, and moving it by
# one node changed walk-24's time by 40%. Only copy's read past nil moves with
# the seed; it comes before any copying, so it stays cheap wherever it lands.


def _defect_tail(v: str, variant: str, target: str) -> list[str]:
    if variant == "free":
        return [f"delete({target});", f"delete({target});"]
    if variant == "leak":  # the fresh cell's only pointer is overwritten
        return [f"new({v}t);", f"{v}t = {target};"]
    return []


def _walk(name: str, v: str, n: int, variant: str, k: int) -> str:
    """Read ``.next`` n times over an n-node list.

    access: the precondition holds n - 1 nodes, so the last read is past nil.
    free:   node k is deleted twice after the walk.
    leak:   after the walk a fresh cell's only pointer is overwritten.
    """
    pre = ",".join(f"{v}a{i}" for i in range(n - 1 if variant == "access" else n))
    post = ",".join(f"{v}a{i}" for i in range(n))
    body, prev = [], "x"
    for i in range(1, n + 1):
        body.append(f"{v}{i} = {prev}.next;")
        prev = f"{v}{i}"
    body += _defect_tail(v, variant, f"{v}{k}")
    return _function(name, ["x"], f"x->{pre}", body, f"x->{post}")


def _copy(name: str, v: str, n: int, variant: str, k: int) -> str:
    """Copy an n-node list into n fresh cells, last node first.

    access: the precondition holds only k < n nodes, so read k+1 is past nil.
    free:   the copy of node k is deleted twice after the copy.
    leak:   after the copy a fresh cell's only pointer is overwritten.
    """
    pre = ",".join(f"{v}a{i}" for i in range(k if variant == "access" else n))
    post = ",".join(f"{v}a{i}" for i in range(n))
    body = [f"{v}0 = x;"] + [f"{v}{i} = {v}{i - 1}.next;" for i in range(1, n)]
    for i in reversed(range(n)):
        body.append(f"new({v}n{i});")
        body.append(f"{v}n{i}.value = {v}{i}.value;")
        body.append(f"{v}n{i}.next = " + (f"{v}n{i + 1};" if i + 1 < n else "null;"))
    body.append(f"z = {v}n0;")
    body += _defect_tail(v, variant, f"{v}n{k}")
    return _function(name, ["x", "z"], f"x->{pre}", body, f"x->{post} * z->{post}")


def lists_round(seed: int, round_index: int) -> list[Input]:
    rng = _rng("lists", seed, round_index)
    out = []
    for i, (family, n, variant) in enumerate(LISTS_MIX):
        v = rng.choice("pqrsuw") + rng.choice("bcdfghjk")
        k = rng.randint(n // 2, n - 1)
        name = f"{family}{n}_{variant}_{round_index}_{i}"
        src = (_walk if family == "walk" else _copy)(name, v, n, variant, k)
        out.append(Input(f"r{round_index}_{i:03d}_{family}{n}_{variant}", "oc",
                         f"{family}-{n}/{variant}", src, {name: _LIST_EXPECT[variant]}))
    rng.shuffle(out)
    return out


def _function(name: str, params: list[str], pre: str, body: list[str], post: str) -> str:
    ps = ", ".join(f"int {p}" for p in params)
    lines = "\n".join(f"  {s}" for s in body)
    return f"int {name}({ps})\n@ {pre} @\n{{\n{lines}\n}}\n@ {post} @\n"


# --------------------------------------------------------------------------
# corpus: small files of small functions, half of them with one defect
# --------------------------------------------------------------------------


@dataclass
class _Fn:
    sources: list[str]  # one or more function definitions (callees first)
    expect: dict[str, tuple[str, frozenset]]
    concrete: list[tuple[str, str | None]]


def _kinds(*ks: str) -> frozenset:
    return frozenset(ks)


def _t_cells(rng: random.Random, name: str, defect: str | None) -> _Fn:
    a, b = rng.sample(("a", "b", "o1", "o2", "left", "right", "src", "dst"), 2)
    k1, k2 = rng.randint(1, 9), rng.randint(1, 9)
    body = [f"new({a});", f"new({b});", f"{a}.val = {k1};", f"{b}.val = {a}.val + {k2};",
            f"t = {b}.val;", f"u = {a}.val - t;", f"delete({b});", f"delete({a});"]
    expect = (VERIFIED, _kinds())
    fault = None
    if defect == ACCESS:  # free one cell before its last read
        read = rng.choice((4, 5))
        victim = b if read == 4 else a
        body.remove(f"delete({victim});")
        body.insert(read, f"delete({victim});")
        expect, fault = (REFUTED, _kinds(ACCESS)), ACCESS
    elif defect == FREE:
        victim = rng.choice((a, b))
        i = body.index(f"delete({victim});")
        body.insert(i, f"delete({victim});")
        expect, fault = (REFUTED, _kinds(FREE)), FREE
    elif defect == LEAK:
        i = rng.choice((0, 1))
        body.insert(i, body[i])
        expect = (REFUTED, _kinds(LEAK))
    return _Fn([_function(name, [], "emp", body, "emp")], {name: expect}, [(name, fault)])


def _t_offset(rng: random.Random, name: str, defect: str | None) -> _Fn:
    p = rng.choice(("p", "cell", "buf", "slot"))
    k = rng.randint(1, 9)
    body = [f"new({p});", f"[{p}] = n;", f"q = [{p} + 0];", f"[{p} - 0] = q + {k};",
            f"r = [{p}];", f"delete({p});"]
    expect, fault = (VERIFIED, _kinds()), None
    if defect == ACCESS:  # one cell only, so any nonzero offset is outside it
        i = rng.choice((2, 3, 4))
        off = f"{p} + {rng.randint(1, 3)}"
        body[i] = body[i].replace(f"{p} + 0", off).replace(f"{p} - 0", off).replace(f"[{p}]", f"[{off}]")
        expect, fault = (REFUTED, _kinds(ACCESS)), ACCESS
    elif defect == FREE:
        body.append(f"delete({p});")
        expect, fault = (REFUTED, _kinds(FREE)), FREE
    elif defect == LEAK:
        body.insert(0, f"new({p});")
        expect = (REFUTED, _kinds(LEAK))
    return _Fn([_function(name, ["n"], "emp", body, "emp")], {name: expect}, [(name, fault)])


def _t_branch(rng: random.Random, name: str, defect: str | None) -> _Fn:
    a = rng.choice(("a", "obj", "nd", "h"))
    k = rng.randint(1, 9)  # n starts at 0 when run concretely, so "then" runs
    then = [f"[{a}] = n;"]
    other = [f"[{a}] = {k};"]
    tail = [f"t = [{a}];", f"delete({a});"]
    expect, fault = (VERIFIED, _kinds()), None
    if defect == ACCESS:
        then.append(f"delete({a});")
        expect, fault = (REFUTED, _kinds(ACCESS)), ACCESS
    elif defect == FREE:
        then.append(f"delete({a});")
        tail = [f"delete({a});"]
        expect, fault = (REFUTED, _kinds(FREE)), FREE
    elif defect == LEAK:
        other.insert(0, f"new({a});")
        expect = (REFUTED, _kinds(LEAK))
    body = [f"new({a});", f"if (n < {k}) {{ " + " ".join(then) + " } else { "
            + " ".join(other) + " }"] + tail
    return _Fn([_function(name, ["n"], "emp", body, "emp")], {name: expect}, [(name, fault)])


def _t_loop_cell(rng: random.Random, name: str, defect: str | None) -> _Fn:
    x = rng.choice(("x", "acc", "cnt", "box"))
    inv = f"exists v. {x}->v"
    body = [f"new({x});", f"[{x}] = 0;",
            f"while (n > 0) @ {inv} @ {{ [{x}] = [{x}] + n; n = n - 1; }}", f"delete({x});"]
    expect, fault = (VERIFIED, _kinds()), None
    if defect == FREE:
        body.append(f"delete({x});")
        expect, fault = (REFUTED, _kinds(FREE)), FREE
    elif defect == INVARIANT:  # the cell the invariant names is gone on entry
        body = [f"new({x});", f"[{x}] = 0;", f"delete({x});",
                f"while (n > 0) @ {inv} @ {{ [{x}] = n; n = n - 1; }}"]
        expect = (REFUTED, _kinds(INVARIANT))
    return _Fn([_function(name, ["n"], "emp", body, "emp")], {name: expect}, [(name, fault)])


def _t_call(rng: random.Random, name: str, defect: str | None) -> _Fn:
    callee = f"{name}_set"
    a = rng.choice(("a", "dst", "tgt", "c"))
    k = rng.randint(1, 9)
    callee_src = _function(callee, ["p", "k"], "exists v. p->v", ["[p] = k;"], "p->k")
    body = [f"new({a});", f"{callee}({a}, {k});", f"t = [{a}];", f"delete({a});"]
    expect = (VERIFIED, _kinds())
    if defect == CONTRACT:  # the callee needs a cell the caller already freed
        body = [f"new({a});", f"delete({a});", f"{callee}({a}, {k});"]
        expect = (REFUTED, _kinds(CONTRACT))
    elif defect == LEAK:
        body.insert(0, f"new({a});")
        expect = (REFUTED, _kinds(LEAK))
    concrete = [] if defect == CONTRACT else [(name, None)]
    return _Fn([callee_src, _function(name, [], "emp", body, "emp")],
               {callee: (VERIFIED, _kinds()), name: expect}, concrete)


def _t_checkpoint(rng: random.Random, name: str, defect: str | None) -> _Fn:
    a = rng.choice(("a", "m", "rec", "w"))
    k = rng.randint(1, 9)
    claim = k
    expect = (VERIFIED, _kinds())
    if defect == CONTRACT:
        claim = k + rng.randint(1, 5)
        expect = (REFUTED, _kinds(CONTRACT))
    body = [f"new({a});", f"[{a}] = {k};", f"@ {a}->{claim} @;", f"delete({a});", "@ emp @;"]
    return _Fn([_function(name, [], "emp", body, "emp")], {name: expect}, [(name, None)])


def _t_list_walk(rng: random.Random, name: str, defect: str | None) -> _Fn:
    p = rng.choice(("p", "cur", "it"))
    body = [f"{p} = x;",
            f"while ({p} != null) @ list(x, {p}) * list({p}, nil) @ {{ {p} = {p}.next; }}"]
    expect = (VERIFIED, _kinds())
    if defect == ACCESS:  # the loop exits with the cursor at nil
        body.append(f"v = {p}.value;")
        expect = (REFUTED, _kinds(ACCESS))
    return _Fn([_function(name, ["x"], "list(x, nil)", body, "list(x, nil)")], {name: expect}, [])


def _t_list_free(rng: random.Random, name: str, defect: str | None) -> _Fn:
    t = rng.choice(("t", "nx", "rest"))
    step = [f"{t} = x.next;", "delete(x);", f"x = {t};"]
    expect = (VERIFIED, _kinds())
    if defect == LEAK:  # advance without freeing: the head's last pointer is lost
        step.remove("delete(x);")
        expect = (REFUTED, _kinds(LEAK))
    body = ["while (x != null) @ list(x, nil) @ { " + " ".join(step) + " }"]
    return _Fn([_function(name, ["x"], "list(x, nil)", body, "emp")], {name: expect}, [])


# template -> defect kinds it can carry
_TEMPLATES = {
    "cells": (_t_cells, (ACCESS, FREE, LEAK)),
    "offset": (_t_offset, (ACCESS, FREE, LEAK)),
    "branch": (_t_branch, (ACCESS, FREE, LEAK)),
    "loop-cell": (_t_loop_cell, (FREE, INVARIANT)),
    "call": (_t_call, (CONTRACT, LEAK)),
    "checkpoint": (_t_checkpoint, (CONTRACT,)),
    "list-walk": (_t_list_walk, (ACCESS,)),
    "list-free": (_t_list_free, (LEAK,)),
}

# Per round: each of the six small templates appears this many times correct
# and as many times with a defect; each list(s, e) loop gets a twelfth as many
# single-function files per form, so the loops stay a small, fixed share.
CORPUS_PER_FORM = 96
CORPUS_LIST_FILES = ("list-walk", "list-free")


def corpus_round(seed: int, round_index: int) -> list[Input]:
    from heapcheck.parser import parse_program
    from heapcheck.termir import emit_term_file, lower_program

    rng = _rng("corpus", seed, round_index)
    cells = []
    for tname, (_, defects) in _TEMPLATES.items():
        if tname in CORPUS_LIST_FILES:
            continue
        cells += [(tname, None)] * CORPUS_PER_FORM
        cells += [(tname, defects[i % len(defects)]) for i in range(CORPUS_PER_FORM)]
    rng.shuffle(cells)
    # files of 1 to 4 functions in fixed numbers, so that every round has the
    # same number of files and every run attempts the same number of inputs
    sizes = [1, 2, 3, 4] * (len(cells) // 10) + ([len(cells) % 10] if len(cells) % 10 else [])
    rng.shuffle(sizes)
    groups: list[list[tuple[str, str | None]]] = []
    for size in sizes:
        groups.append(cells[:size])
        cells = cells[size:]
    for tname in CORPUS_LIST_FILES:
        groups += [[(tname, None)], [(tname, _TEMPLATES[tname][1][0])]] * (CORPUS_PER_FORM // 12)
    rng.shuffle(groups)
    out = []
    for i, group in enumerate(groups):
        sources, expect, concrete, labels = [], {}, [], []
        for j, (tname, defect) in enumerate(group):
            fname = f"{tname.replace('-', '_')}_{round_index}_{i}_{j}"
            fn = _TEMPLATES[tname][0](rng, fname, defect)
            sources += fn.sources
            expect.update(fn.expect)
            concrete += fn.concrete
            labels.append(f"{tname}/{defect or 'ok'}")
        source = "\n".join(sources)
        suffix = "plt" if i % 2 else "oc"
        text = emit_term_file(lower_program(parse_program(source))) if suffix == "plt" else source
        out.append(Input(f"r{round_index}_{i:03d}", suffix, "+".join(labels), text, expect, concrete))
    return out


# --------------------------------------------------------------------------
# entail: standalone queries over node chains and segments
# --------------------------------------------------------------------------

# A valid fold of k cells into list(s, nil) needs k + 1 unfoldings of the
# consequent predicate (k cells, then the nil case), so with the documented
# default bound of 4 a fold covers at most 3 cells.
MAX_FOLD = 3

# (pattern, chain length); valid patterns first, then invalid ones
ENTAIL_VALID = ("fold", "permute", "abstract", "segment")
ENTAIL_INVALID = ("drop", "duplicate", "value", "wrong-end")
ENTAIL_MIX: tuple[tuple[str, int], ...] = tuple(
    (p, n) for p in ENTAIL_VALID + ENTAIL_INVALID for n in (2, 3, 4, 5, 6) for _ in range(30)
)


def _cell(loc: str, val: str, nxt: str) -> str:
    return f"{loc}->object(node, {val}, {nxt})"


def _query(rng: random.Random, pattern: str, n: int, tag: int) -> tuple[str, str]:
    """One query over an n-cell chain; the last cell's value is ``tag``, which
    appears in every pattern's text and keeps the queries of a run distinct."""
    names = rng.sample([f"{c}{d}" for c in "abcdxyz" for d in "0123456789"], n)
    vals = [str(rng.randint(0, 20)) for _ in range(n - 1)] + [str(tag)]
    cells = [_cell(names[i], vals[i], names[i + 1] if i + 1 < n else "nil") for i in range(n)]
    ant = list(cells)
    if pattern == "segment":  # a segment prefix in the antecedent, matched as is
        cut = rng.randint(1, n - 1)
        ant = [f"pred(list, [{names[0]}, {names[cut]}])"] + cells[cut:]
        con = list(ant)
    elif pattern == "fold":
        start = max(1, n - MAX_FOLD)
        start = rng.randint(start, n - 1)
        con = cells[:start] + [f"pred(list, [{names[start]}, nil])"]
    elif pattern == "abstract":
        i = rng.randrange(n)
        body = _cell(names[i], "v", names[i + 1] if i + 1 < n else "nil")
        con = cells[:i] + [f"exists(v, {body})"] + cells[i + 1:]
    elif pattern == "drop":  # the consequent needs a cell the antecedent lacks
        i = rng.randrange(n)
        ant = cells[:i] + cells[i + 1:]
        con = list(cells)
    elif pattern == "duplicate":
        i = rng.randrange(n)
        con = cells + [cells[i]]
    elif pattern == "value":
        i = rng.randrange(n)
        bumped = str(int(vals[i]) + rng.randint(1, 5))
        con = list(cells)
        con[i] = _cell(names[i], bumped, names[i + 1] if i + 1 < n else "nil")
    elif pattern == "wrong-end":  # the segment points back at an earlier cell
        j = rng.randint(1, n - 1)
        con = cells[:j] + [f"pred(list, [{names[j]}, {names[rng.randrange(j)]}])"]
    else:  # permute
        con = list(cells)
    rng.shuffle(ant)
    rng.shuffle(con)
    return " * ".join(ant), " * ".join(con)


def entail_round(seed: int, round_index: int) -> list[Input]:
    rng = _rng("entail", seed, round_index)
    mix = list(ENTAIL_MIX)
    rng.shuffle(mix)
    out = []
    for i, (pattern, n) in enumerate(mix):
        ant, con = _query(rng, pattern, n, 100 + round_index * len(mix) + i)
        answer = PROVED if pattern in ENTAIL_VALID else FAILED
        out.append(Input(f"r{round_index}_{i:04d}", "q", f"{pattern}-{n}",
                         f"entail. {ant} |- {con}.\n", {"query": (answer, frozenset())}))
    return out


ROUNDS = {"lists": lists_round, "corpus": corpus_round, "entail": entail_round}
