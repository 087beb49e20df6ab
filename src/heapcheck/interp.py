"""Concrete-execution oracle: run term programs on explicit finite heaps and
model-check assertions by exhaustive partition search.

This module anchors ground truth for the derived test values and for the
soundness suites; it trades all performance for obvious correctness.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from . import formula as fm
from .errors import UnboundVariableError
from .records import Frozen, field, record
from .termir import Atom, Compound, Int, Term, TList, FUNCTOR_TO_CMP

INVALID_ACCESS = "InvalidAccess"
INVALID_FREE = "InvalidFree"
OUT_OF_FUEL = "OutOfFuel"

NIL = 0


@record
class CRecord(Frozen):
    """Concrete record cell value."""

    tag: Optional[str]
    fields: tuple[tuple[str, "Value"], ...]

    def field_map(self) -> dict[str, "Value"]:
        return dict(self.fields)


Value = Union[int, CRecord]


def value_equal(a: Value, b: Value) -> bool:
    """Record equality is field-name-wise; a missing tag matches any tag."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, CRecord) and isinstance(b, CRecord):
        if a.tag is not None and b.tag is not None and a.tag != b.tag:
            return False
        am, bm = a.field_map(), b.field_map()
        if set(am) != set(bm):
            return False
        return all(value_equal(am[k], bm[k]) for k in am)
    return False


@record
class Fault:
    kind: str
    message: str = ""

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}" if self.message else self.kind


@record
class ConcreteState:
    """Store + finite heap; addresses are positive integers, nil is 0."""

    store: dict[str, Value] = field(default_factory=dict)
    heap: dict[int, Value] = field(default_factory=dict)
    steps: int = 0

    def copy(self) -> "ConcreteState":
        return ConcreteState(dict(self.store), dict(self.heap), self.steps)

    def allocate(self) -> int:
        addr = 1
        while addr in self.heap:
            addr += 1
        self.heap[addr] = 0
        return addr

    def snapshot(self) -> str:
        parts = [f"{k}={_show(v)}" for k, v in sorted(self.store.items())]
        cells = [f"{a}->{_show(v)}" for a, v in sorted(self.heap.items())]
        return "store {" + ", ".join(parts) + "} heap {" + ", ".join(cells) + "}"


def _show(v: Value) -> str:
    if isinstance(v, CRecord):
        inner = ", ".join(f"{n}: {_show(x)}" for n, x in v.fields)
        return f"object({v.tag or '_'}, {inner})"
    return str(v)


# --------------------------------------------------------------------------
# small-step interpreter over statement terms
# --------------------------------------------------------------------------


class _Halt(Exception):
    def __init__(self, fault: Fault):
        self.fault = fault


class _Interp:
    def __init__(self, functions: dict[str, Compound], fuel: int):
        self.functions = functions
        self.fuel = fuel

    def spend(self, state: ConcreteState) -> None:
        state.steps += 1
        self.fuel -= 1
        if self.fuel < 0:
            raise _Halt(Fault(OUT_OF_FUEL, "step budget exhausted"))

    def run_block(self, stmts: list[Term], state: ConcreteState) -> None:
        for s in stmts:
            self.run_stmt(s, state)

    def run_stmt(self, s: Term, state: ConcreteState) -> None:
        self.spend(state)
        if isinstance(s, TList):
            self.run_block(list(s.items), state)
            return
        assert isinstance(s, Compound)
        f = s.functor
        if f == "assert":
            return  # contracts are checked symbolically, not while running
        if f == "assign":
            value = self.eval(s.args[1], state)
            self.write(s.args[0], value, state)
            return
        if f == "new":
            addr = state.allocate()
            self.write(s.args[0], addr, state)
            return
        if f == "delete":
            v = self.eval(s.args[0], state)
            if not isinstance(v, int) or v not in state.heap:
                raise _Halt(Fault(INVALID_FREE, f"delete of unallocated value {_show(v)}"))
            del state.heap[v]
            return
        if f == "funcall":
            self.call(s, state)
            return
        if f == "ite":
            if self.cond(s.args[0], state):
                self.run_block(list(s.args[1].items), state)  # type: ignore[union-attr]
            elif len(s.args) == 3:
                self.run_block(list(s.args[2].items), state)  # type: ignore[union-attr]
            return
        if f == "while":
            while self.cond(s.args[0], state):
                self.spend(state)
                self.run_block(list(s.args[2].items), state)  # type: ignore[union-attr]
            return
        raise _Halt(Fault(INVALID_ACCESS, f"unknown statement {f}"))

    def call(self, s: Compound, state: ConcreteState) -> Value:
        name = s.args[0].name  # type: ignore[union-attr]
        actuals = [self.eval(a, state) for a in s.args[1].items] if len(s.args) == 2 else []
        fn = self.functions.get(name)
        if fn is None:
            return 0  # unknown functions (printf, ...) are heap-neutral no-ops
        params = [p.args[0].name for p in fn.args[2].items]  # type: ignore[union-attr]
        local = ConcreteState(dict(zip(params, actuals)), state.heap, state.steps)
        self.run_block(list(fn.args[3].items), local)  # type: ignore[union-attr]
        state.heap = local.heap
        state.steps = local.steps
        return 0  # the dialect has no return statement

    def write(self, lhs: Term, value: Value, state: ConcreteState) -> None:
        if isinstance(lhs, Atom):
            state.store[lhs.name] = value
            return
        assert isinstance(lhs, Compound)
        if lhs.functor == "oa":
            obj = self.eval(lhs.args[0], state)
            if not isinstance(obj, int) or obj not in state.heap:
                raise _Halt(Fault(INVALID_ACCESS, f"field write through {_show(obj)}"))
            name = lhs.args[1].name  # type: ignore[union-attr]
            cell = state.heap[obj]
            if isinstance(cell, CRecord):
                kept = [(n, v) for n, v in cell.fields if n != name]
                state.heap[obj] = CRecord(cell.tag, tuple(kept + [(name, value)]))
            else:
                # any non-record content is displaced by the first field write
                state.heap[obj] = CRecord(None, ((name, value),))
            return
        if lhs.functor == "mem":
            addr = self.address(lhs.args[0], state)
            if addr not in state.heap:
                raise _Halt(Fault(INVALID_ACCESS, f"write to unallocated address {addr}"))
            state.heap[addr] = value
            return
        raise _Halt(Fault(INVALID_ACCESS, f"bad assignment target {lhs!r}"))

    def address(self, loc: Term, state: ConcreteState) -> int:
        assert isinstance(loc, Compound) and loc.functor == "offset"
        base = self.eval(loc.args[0], state)
        if not isinstance(base, int):
            raise _Halt(Fault(INVALID_ACCESS, "address arithmetic on a record"))
        disp = 0
        if len(loc.args) == 2:
            d = loc.args[1]
            disp = d.value if isinstance(d, Int) else -d.args[1].value  # type: ignore[union-attr]
        return base + disp

    def eval(self, e: Term, state: ConcreteState) -> Value:
        if isinstance(e, Int):
            return e.value
        if isinstance(e, Atom):
            if e.name == "nil":
                return NIL
            if e.name not in state.store:
                raise _Halt(Fault(INVALID_ACCESS, f"unbound variable '{e.name}'"))
            return state.store[e.name]
        if isinstance(e, Compound):
            f = e.functor
            if f == "oa":
                obj = self.eval(e.args[0], state)
                name = e.args[1].name  # type: ignore[union-attr]
                if not isinstance(obj, int) or obj not in state.heap:
                    raise _Halt(Fault(INVALID_ACCESS, f"field read through {_show(obj)}"))
                cell = state.heap[obj]
                if not isinstance(cell, CRecord) or name not in cell.field_map():
                    raise _Halt(Fault(INVALID_ACCESS, f"missing field '{name}' at address {obj}"))
                return cell.field_map()[name]
            if f == "mem":
                addr = self.address(e.args[0], state)
                if addr not in state.heap:
                    raise _Halt(Fault(INVALID_ACCESS, f"read of unallocated address {addr}"))
                return state.heap[addr]
            if f in ("add", "sub", "mul"):
                l, r = self.eval(e.args[0], state), self.eval(e.args[1], state)
                if not isinstance(l, int) or not isinstance(r, int):
                    raise _Halt(Fault(INVALID_ACCESS, "arithmetic on a record value"))
                return l + r if f == "add" else l - r if f == "sub" else l * r
            if f == "funcall":
                return self.call(e, state)
        raise _Halt(Fault(INVALID_ACCESS, f"bad expression {e!r}"))

    def cond(self, c: Term, state: ConcreteState) -> bool:
        assert isinstance(c, Compound)
        if c.functor == "and":
            return self.cond(c.args[0], state) and self.cond(c.args[1], state)
        if c.functor == "or":
            return self.cond(c.args[0], state) or self.cond(c.args[1], state)
        op = FUNCTOR_TO_CMP[c.functor]
        l, r = self.eval(c.args[0], state), self.eval(c.args[1], state)
        if isinstance(l, CRecord) or isinstance(r, CRecord):
            if op == "==":
                return value_equal(l, r)
            if op == "!=":
                return not value_equal(l, r)
            raise _Halt(Fault(INVALID_ACCESS, "ordering comparison on a record"))
        return {"==": l == r, "!=": l != r, "<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[op]


def run_concrete(
    program: Term,
    initial: Optional[ConcreteState] = None,
    fuel: int = 10_000,
    functions: Optional[dict[str, Compound]] = None,
) -> Union[ConcreteState, Fault]:
    """Deterministically execute a function term or statement list.

    Returns the final state, or the first Fault hit; never raises for
    program-level errors.
    """
    state = initial.copy() if initial is not None else ConcreteState()
    table = dict(functions or {})
    interp = _Interp(table, fuel)
    try:
        if isinstance(program, Compound) and program.functor == "function":
            table.setdefault(program.args[0].name, program)  # type: ignore[union-attr]
            body = list(program.args[3].items)  # type: ignore[union-attr]
            for p in program.args[2].items:  # type: ignore[union-attr]
                state.store.setdefault(p.args[0].name, 0)  # type: ignore[union-attr]
            interp.run_block(body, state)
        elif isinstance(program, TList):
            interp.run_block(list(program.items), state)
        else:
            interp.run_stmt(program, state)
    except _Halt as h:
        return h.fault
    return state


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
        if isinstance(e, fm.OffsetOf):
            b = self.try_eval(e.base, env)
            return None if not isinstance(b, int) else b + e.offset
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
