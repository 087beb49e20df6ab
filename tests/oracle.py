"""The exact separation-logic model checker the test suites take as ground
truth: assertions are checked on explicit finite heaps by exhaustive
partition search, and entailments by enumerating every finite model of the
antecedent. It trades all performance for obvious correctness.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from heapcheck import formula as fm
from heapcheck.entail import SymHeap
from heapcheck.errors import HeapcheckError
from heapcheck.interp import NIL, ConcreteState, CRecord, Value, value_equal
from heapcheck.records import Frozen, record


class UnboundVariableError(HeapcheckError):
    """Assertion evaluation hit a variable missing from the store."""


# --------------------------------------------------------------------------
# assertion model checking
# --------------------------------------------------------------------------


@record
class OracleConfig(Frozen):
    """Scale caps keeping the exponential partition search trivially fast."""

    value_lo: int = -4
    value_hi: int = 4


def eval_assertion(
    f: fm.Formula,
    state: ConcreteState,
    preds: Optional[dict[str, fm.PredDef]] = None,
    config: OracleConfig = OracleConfig(),
) -> bool:
    """Separation-logic satisfaction over the exact heap.

    Points-to, emp, and predicate instances describe exact heap shares; pure
    comparisons and ``true`` are heap-independent (their share under ``*`` is
    unconstrained).  Satisfaction is decided by a unification-style matcher
    with backtracking, so linked-list formulas check in linear time instead of
    via subset search.
    """
    table = preds if preds is not None else fm.builtin_preds()
    depth = len(state.heap) + 1
    for d in fm.or_free(f):
        goal = _Goal(dict(state.store), table, config, depth)
        if goal.sat_disjunct(d, dict(state.heap)):
            return True
    return False


class _Goal:
    def __init__(
        self,
        store: dict[str, Value],
        preds: dict[str, fm.PredDef],
        config: OracleConfig,
        depth: int,
    ):
        self.store = store
        self.preds = preds
        self.config = config
        self.depth = depth
        self._binders = 0
        # predicate expansions are model-independent; sharing them (and the
        # binder counter) across states keeps repeated checks cheap and the
        # binder namespace collision-free
        self._expansions: dict = {}

    # -- extraction --------------------------------------------------------

    def fresh_binder(self) -> str:
        self._binders += 1
        return f"?b{self._binders}"

    def extract(
        self, g: fm.Formula, parts: list, out: dict, renaming: Optional[dict] = None
    ) -> None:
        """Split an or-free formula into exact spatial parts and pure checks.

        A pure-only operand of ``*`` leaves its heap share unconstrained, so it
        sets the absorb flag; pure content pinned by an ``&&`` does not.
        Binders get fresh names through ``renaming``, which is applied at the
        parts rather than by substituting each binder's whole body.
        """
        ren = {} if renaming is None else renaming

        def rn(e: fm.SymExpr) -> fm.SymExpr:
            return fm.substitute_expr(e, ren) if ren else e

        if isinstance(g, fm.Emp):
            parts.append(("emp",))
        elif isinstance(g, fm.TrueF):
            pass
        elif isinstance(g, fm.FalseF):
            parts.append(("false",))
        elif isinstance(g, fm.PureAtom):
            parts.append(("pure", g.op, rn(g.left), rn(g.right)))
        elif isinstance(g, fm.PointsTo):
            parts.append(("pto", rn(g.loc), rn(g.val)))
        elif isinstance(g, fm.PredApp):
            parts.append(("pred", g.name, tuple(rn(a) for a in g.args), self.depth))
        elif isinstance(g, fm.Star):
            for child in g.parts:
                if fm.is_pure_only(child):
                    out["absorb"] = True
                self.extract(child, parts, out, ren)
        elif isinstance(g, fm.And):
            # from a spatial clash on, the rest of the chain is one nested check
            clash = fm.spatial_clash(g)
            for i, child in enumerate(g.parts):
                if i == clash:
                    rest = fm.substitute(fm.join(fm.And, g.parts[i:]), ren)
                    parts.append(("nested", rest, self.depth))
                    break
                self.extract(child, parts, out, ren)
        elif isinstance(g, fm.Exists):
            shadowed = {v: ren.get(v) for v in g.vars}
            for v in g.vars:
                ren[v] = fm.Var(self.fresh_binder())
            self.extract(g.body, parts, out, ren)
            for v, old in shadowed.items():
                if old is None:
                    del ren[v]
                else:
                    ren[v] = old
        else:
            raise TypeError(f"unknown formula {g!r}")

    def sat_disjunct(self, g: fm.Formula, heap: dict[int, Value]) -> bool:
        parts: list = []
        out = {"absorb": fm.is_pure_only(g)}
        self.extract(g, parts, out)
        return self.solve(parts, heap, {}, out["absorb"])

    # -- evaluation under partial environments ------------------------------

    def try_eval(self, e: fm.SymExpr, env: dict[str, Value]) -> Optional[Value]:
        if isinstance(e, fm.IntLit):
            return e.value
        if isinstance(e, fm.Nil):
            return NIL
        if isinstance(e, fm.Var):
            if e.name in env:
                return env[e.name]
            if e.name in self.store:
                return self.store[e.name]
            return None
        if isinstance(e, fm.ArithExpr):
            l, r = self.try_eval(e.left, env), self.try_eval(e.right, env)
            if not isinstance(l, int) or not isinstance(r, int):
                return None
            return l + r if e.op == "+" else l - r if e.op == "-" else l * r
        if isinstance(e, fm.Record):
            fields = []
            for n, v in e.fields:
                cv = self.try_eval(v, env)
                if cv is None:
                    return None
                fields.append((n, cv))
            return CRecord(e.tag, tuple(fields))
        if isinstance(e, fm.FieldRef):
            raise UnboundVariableError("field references are not evaluable in assertions")
        raise TypeError(f"unknown expression {e!r}")

    def unbound_vars(self, e: fm.SymExpr, env: dict[str, Value]) -> list[str]:
        return sorted(
            v for v in fm.expr_free_vars(e) if v not in env and v not in self.store
        )

    def domain(self, heap: dict[int, Value]) -> list[int]:
        found: set[int] = set(heap) | {NIL}
        stack: list[Value] = list(heap.values())
        while stack:
            v = stack.pop()
            if isinstance(v, int):
                found.add(v)
            else:
                stack.extend(x for _, x in v.fields)
        lo, hi = self.config.value_lo, self.config.value_hi
        return sorted(found | set(range(lo, hi + 1)))

    def match_value(
        self, e: fm.SymExpr, value: Value, env: dict[str, Value], heap: dict[int, Value]
    ) -> list[dict[str, Value]]:
        """Environments extending env under which e evaluates to value."""
        got = self.try_eval(e, env)
        if got is not None:
            return [env] if value_equal(got, value) else []
        if isinstance(e, fm.Var):
            env2 = dict(env)
            env2[e.name] = value
            return [env2]
        if isinstance(e, fm.Record) and isinstance(value, CRecord):
            if e.tag is not None and value.tag is not None and e.tag != value.tag:
                return []
            em, vm = dict(e.fields), value.field_map()
            if set(em) != set(vm):
                return []
            envs = [env]
            for name in sorted(em):
                envs = [e3 for e2 in envs for e3 in self.match_value(em[name], vm[name], e2, heap)]
                if not envs:
                    return []
            return envs
        # arithmetic over an unbound variable: enumerate it
        unbound = self.unbound_vars(e, env)
        if not unbound:
            return []
        out = []
        for v in self.domain(heap):
            env2 = dict(env)
            env2[unbound[0]] = v
            out.extend(self.match_value(e, value, env2, heap))
        return out

    def expand_pred(self, name: str, args: tuple, depth: int) -> list[tuple[list, bool]]:
        key = (name, args, depth)
        cached = self._expansions.get(key)
        if cached is not None:
            return cached
        d = self.preds.get(name)
        if d is None:
            raise UnboundVariableError(f"unknown predicate '{name}'")
        if len(d.params) != len(args):
            raise UnboundVariableError(
                f"predicate '{name}' takes {len(d.params)} arguments, got {len(args)}"
            )
        body = fm.substitute(d.body, dict(zip(d.params, args)))
        out_list: list[tuple[list, bool]] = []
        for disjunct in fm.or_free(body):
            sub_parts: list = []
            out = {"absorb": fm.is_pure_only(disjunct)}
            self.extract(disjunct, sub_parts, out)
            out_list.append((_at_depth(sub_parts, depth - 1), out["absorb"]))
        self._expansions[key] = out_list
        return out_list

    def check_pure(self, op: str, l: Value, r: Value) -> bool:
        if isinstance(l, CRecord) or isinstance(r, CRecord):
            if op == "==":
                return value_equal(l, r)
            if op == "!=":
                return not value_equal(l, r)
            return False
        return {"==": l == r, "!=": l != r, "<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[op]

    # -- the matcher ----------------------------------------------------------

    def solve(
        self,
        parts: list,
        heap: dict[int, Value],
        env: dict[str, Value],
        absorb: bool,
        then: Optional[Callable[[dict[str, Value]], bool]] = None,
    ) -> bool:
        """Whether ``parts`` hold on exactly ``heap`` (on part of it if
        ``absorb``) under some extension of ``env`` that also satisfies
        ``then``, the check of whatever follows."""
        # deterministic steps first
        for i, p in enumerate(parts):
            rest = parts[:i] + parts[i + 1 :]
            if p[0] == "false":
                return False
            if p[0] == "emp":
                return self.solve(rest, heap, env, absorb, then)
            if p[0] == "pure":
                l, r = self.try_eval(p[2], env), self.try_eval(p[3], env)
                if l is not None and r is not None:
                    if not self.check_pure(p[1], l, r):
                        return False
                    return self.solve(rest, heap, env, absorb, then)
            if p[0] == "pto":
                addr = self.try_eval(p[1], env)
                if isinstance(addr, CRecord):
                    return False
                if addr is not None:
                    if addr not in heap:
                        return False
                    h2 = dict(heap)
                    cell = h2.pop(addr)
                    for env2 in self.match_value(p[2], cell, env, heap):
                        if self.solve(rest, h2, env2, absorb, then):
                            return True
                    return False
        # branching steps
        for i, p in enumerate(parts):
            rest = parts[:i] + parts[i + 1 :]
            if p[0] == "pred":
                name, args, depth = p[1], p[2], p[3]
                if depth <= 0:
                    return False
                for sub_parts, sub_absorb in self.expand_pred(name, args, depth):
                    if self.solve(sub_parts + rest, heap, env, absorb or sub_absorb, then):
                        return True
                return False
        for i, p in enumerate(parts):
            rest = parts[:i] + parts[i + 1 :]
            if p[0] == "pto":
                # unresolved location: try each cell, else enumerate a variable
                if isinstance(p[1], fm.Var):
                    for addr in sorted(heap):
                        env2 = dict(env)
                        env2[p[1].name] = addr
                        h2 = dict(heap)
                        cell = h2.pop(addr)
                        for env3 in self.match_value(p[2], cell, env2, heap):
                            if self.solve(rest, h2, env3, absorb, then):
                                return True
                    return False
                unbound = self.unbound_vars(p[1], env)
                for v in self.domain(heap):
                    env2 = dict(env)
                    env2[unbound[0]] = v
                    if self.solve(parts, heap, env2, absorb, then):
                        return True
                return False
            if p[0] == "nested":
                # every conjunct holds on the same share of the heap; what one
                # conjunct binds carries over to the next and then to the rest
                conjuncts = []
                for c in p[1].parts:
                    sub: list = []
                    flags = {"absorb": fm.is_pure_only(c)}
                    self.extract(c, sub, flags)
                    conjuncts.append((_at_depth(sub, p[2]), flags["absorb"]))
                cells = sorted(heap)
                for mask in range(1 << len(cells)):
                    share = {c: heap[c] for j, c in enumerate(cells) if mask >> j & 1}
                    remaining = {c: v for c, v in heap.items() if c not in share}

                    def chain(i: int, env2: dict[str, Value]) -> bool:
                        if i == len(conjuncts):
                            return self.solve(rest, remaining, env2, absorb, then)
                        c_parts, c_absorb = conjuncts[i]
                        return self.solve(c_parts, share, env2, c_absorb, lambda e: chain(i + 1, e))

                    if chain(0, env):
                        return True
                return False
            if p[0] == "pure":
                unbound = self.unbound_vars(p[2], env) + self.unbound_vars(p[3], env)
                for v in self.domain(heap):
                    env2 = dict(env)
                    env2[unbound[0]] = v
                    if self.solve(parts, heap, env2, absorb, then):
                        return True
                return False
        return (absorb or not heap) and (then is None or then(env))


def _at_depth(parts: list, depth: int) -> list:
    """``parts`` with every predicate instance and nested check given the
    unfold depth ``depth`` (their last entry)."""
    return [q[:-1] + (depth,) if q[0] in ("pred", "nested") else q for q in parts]


def eval_expr(e: fm.SymExpr, store: dict[str, Value]) -> Value:
    out = _Goal(store, {}, OracleConfig(), 0).try_eval(e, {})
    if out is None:
        missing = sorted(v for v in fm.expr_free_vars(e) if v not in store)
        raise UnboundVariableError(f"unbound variable(s) {missing} in assertion expression")
    return out


class CompiledGoal:
    """A formula pre-split into matcher parts, for checking many states.

    Avoids re-walking the formula per model when a soundness suite evaluates
    the same goal over thousands of enumerated states.
    """

    def __init__(
        self,
        f: fm.Formula,
        preds: Optional[dict[str, fm.PredDef]] = None,
        config: OracleConfig = OracleConfig(),
        depth: int = 12,
    ):
        self.preds = preds if preds is not None else fm.builtin_preds()
        self.config = config
        self.depth = depth
        # one goal instance serves every state: its binder counter stays
        # monotone, so predicate-expansion binders never collide with the
        # compiled formula's own binders
        self._goal = _Goal({}, self.preds, config, depth)
        self.disjuncts: list[tuple[list, bool]] = []
        for d in fm.or_free(f):
            parts: list = []
            out = {"absorb": fm.is_pure_only(d)}
            self._goal.extract(d, parts, out)
            self.disjuncts.append((parts, out["absorb"]))

    def holds(self, state: ConcreteState) -> bool:
        self._goal.store = state.store
        for parts, absorb in self.disjuncts:
            if self._goal.solve(parts, state.heap, {}, absorb):
                return True
        return False


# --------------------------------------------------------------------------
# exhaustive finite-model enumeration (ground truth for entailment)
# --------------------------------------------------------------------------

_FRESH_BASE = 101  # predicate-internal node addresses, outside the store domain


def _eval_ground(e: fm.SymExpr, store: dict[str, int]):
    if isinstance(e, fm.IntLit):
        return e.value
    if isinstance(e, fm.Nil):
        return 0
    if isinstance(e, fm.Var):
        return store[e.name]
    if isinstance(e, fm.ArithExpr):
        l, r = _eval_ground(e.left, store), _eval_ground(e.right, store)
        return l + r if e.op == "+" else l - r if e.op == "-" else l * r
    if isinstance(e, fm.Record):
        return CRecord(e.tag, tuple((n, _eval_ground(v, store)) for n, v in e.fields))
    raise TypeError(f"not ground-evaluable: {e!r}")


def _holds(op: str, l, r) -> bool:
    if isinstance(l, CRecord) or isinstance(r, CRecord):
        if op == "==":
            return value_equal(l, r)
        if op == "!=":
            return not value_equal(l, r)
        return False
    return {"==": l == r, "!=": l != r, "<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[op]


def enumerate_models(
    heap: SymHeap,
    value_domain: range = range(0, 5),
    max_list_len: int = 3,
    node_values: tuple[int, ...] = (0, 1),
) -> Iterator[ConcreteState]:
    """All concrete models of a generator-shaped symbolic heap, exhaustively
    up to address isomorphism of predicate-internal cells."""
    names = sorted(fm.free_vars(heap.to_formula()))
    atoms = list(heap.spatial)
    for assignment in itertools.product(value_domain, repeat=len(names)):
        store = dict(zip(names, assignment))
        if not all(
            _holds(op, _eval_ground(l, store), _eval_ground(r, store))
            for op, l, r in heap.pure.atoms
        ):
            continue
        yield from _place(atoms, store, {}, _FRESH_BASE, max_list_len, node_values)


def _place(
    atoms: list,
    store: dict[str, int],
    cells: dict[int, Value],
    next_free: int,
    max_len: int,
    node_values: tuple[int, ...],
) -> Iterator[ConcreteState]:
    if not atoms:
        yield ConcreteState(dict(store), dict(cells))
        return
    atom, rest = atoms[0], atoms[1:]
    if isinstance(atom, fm.PointsTo):
        addr = _eval_ground(atom.loc, store)
        if not isinstance(addr, int) or addr <= 0 or addr in cells:
            return
        val = _eval_ground(atom.val, store)
        cells2 = dict(cells)
        cells2[addr] = val
        yield from _place(rest, store, cells2, next_free, max_len, node_values)
        return
    assert isinstance(atom, fm.PredApp) and atom.name == "list"
    start = _eval_ground(atom.args[0], store)
    end = _eval_ground(atom.args[1], store)
    if start == end:
        yield from _place(rest, store, cells, next_free, max_len, node_values)
    for length in range(1, max_len + 1):
        if not isinstance(start, int) or start <= 0 or start in cells:
            continue
        addrs = [start] + [next_free + i for i in range(length - 1)]
        if any(a in cells for a in addrs):
            continue
        for values in itertools.product(node_values, repeat=length):
            cells2 = dict(cells)
            ok = True
            for i, a in enumerate(addrs):
                nxt = addrs[i + 1] if i + 1 < length else end
                if not isinstance(nxt, int):
                    ok = False
                    break
                cells2[a] = CRecord("node", (("value", values[i]), ("next", nxt)))
            if ok:
                yield from _place(
                    rest, store, cells2, next_free + length - 1, max_len, node_values
                )


def combined_formula(con: SymHeap, frame: SymHeap) -> fm.Formula:
    """``con * frame`` with pure parts lifted out so the matcher stays fast."""
    pures: list[fm.Formula] = [
        fm.PureAtom(op, l, r) for op, l, r in con.pure.atoms + frame.pure.atoms
    ]
    spatial = [*con.spatial, *frame.spatial]
    body = fm.join(fm.And, [*pures, fm.join(fm.Star, spatial) if spatial else fm.Emp()])
    # the last name in sorted order is the outermost binder
    return fm.exists(sorted(con.existentials | frame.existentials, reverse=True), body)


def check_entailment_sound(
    ant: SymHeap,
    con: SymHeap,
    frame: SymHeap,
    preds=None,
    config: OracleConfig = OracleConfig(value_lo=0, value_hi=4),
) -> Optional[str]:
    """None when every model of ant satisfies con * frame, else a description."""
    goal = combined_formula(con, frame)
    compiled = CompiledGoal(goal, preds, config)
    for model in enumerate_models(ant):
        if not compiled.holds(model):
            return f"model {model.snapshot()} violates {fm.pretty(goal)}"
    return None


