"""Concrete interpreter: run term programs deterministically on an explicit
finite heap, for the ``run`` command and as the differential ground truth
that the test suites hold the symbolic engine's fault verdicts to.

The assertion model checker the test suites also rely on is
``tests/oracle.py``; no part of the package uses it.
"""

from __future__ import annotations

import heapq
from typing import Optional, Union

from .records import Frozen, field, record
from .termir import Atom, Compound, Int, Term, TList, FUNCTOR_TO_CMP, offset_value

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


class Heap(dict):
    """Address -> value cells that find their lowest free address in
    amortized logarithmic time.  Every address below ``scanned`` is allocated
    or on the ``holes`` min-heap, which may also hold addresses allocated
    again since.  A callee shares its caller's heap, so this lives here."""

    def __init__(self, cells=()):
        super().__init__(cells)
        self.scanned = 1
        self.holes: list[int] = []

    def __delitem__(self, addr: int) -> None:
        super().__delitem__(addr)
        if 0 < addr < self.scanned:
            heapq.heappush(self.holes, addr)

    def allocate(self) -> int:
        """The lowest free address, now allocated and holding 0."""
        holes = self.holes
        while holes and holes[0] in self:
            heapq.heappop(holes)
        if holes:
            addr = heapq.heappop(holes)
        else:
            addr = self.scanned
            while addr in self:
                addr += 1
            self.scanned = addr + 1
        self[addr] = 0
        return addr


@record
class ConcreteState:
    """Store + finite heap; addresses are positive integers, nil is 0."""

    store: dict[str, Value] = field(default_factory=dict)
    heap: dict[int, Value] = field(default_factory=Heap)
    steps: int = 0

    def copy(self) -> "ConcreteState":
        return ConcreteState(dict(self.store), Heap(self.heap), self.steps)

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
            addr = state.heap.allocate()
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
        return base + (offset_value(loc.args[1]) if len(loc.args) == 2 else 0)

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
