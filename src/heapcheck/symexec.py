"""Forward symbolic execution of term programs against their contracts.

States carry a stack store, a symbolic heap, and per-block local registries.
Heap requirements that fail become diagnostics, never exceptions; faulting
paths stop, leak paths continue with the lost chunk quarantined so each bug
is reported once.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from . import formula as fm
from .arith import SAT, UNKNOWN, UNSAT, linear_form, simplify_expr
from .entail import (
    EntailmentResult,
    Failed,
    FreshNames,
    Proved,
    SymHeap,
    formula_to_symheaps,
    prove,
    unfold,
)
from .errors import NO_SPAN, Span, UnsupportedFormulaError
from .prooftree import FAILED, OK, PRUNED, Label, ProofBuilder, ProofNode, ProofTree
from .records import Frozen, record
from .termir import (
    Atom,
    Compound,
    FUNCTOR_TO_CMP,
    Int,
    Term,
    TList,
    annotation_formulas,
    emit_text,
    offset_value,
    split_contracts,
    term_class_fields,
    term_functions,
    term_key,
    term_predicates,
)

MEMORY_LEAK = "MemoryLeak"
UNREACHABLE_MEMORY = "UnreachableMemory"
INVALID_ACCESS = "InvalidAccess"
INVALID_FREE = "InvalidFree"
CONTRACT_VIOLATION = "ContractViolation"
INVARIANT_VIOLATION = "InvariantViolation"
UNKNOWN_KIND = "Unknown"

REFUTING_KINDS = (
    MEMORY_LEAK,
    UNREACHABLE_MEMORY,
    INVALID_ACCESS,
    INVALID_FREE,
    CONTRACT_VIOLATION,
    INVARIANT_VIOLATION,
)

VERIFIED, REFUTED, INCONCLUSIVE = "Verified", "Refuted", "Inconclusive"

# one case of a condition in disjunctive normal form: comparisons, conjoined
Case = list[tuple[str, fm.SymExpr, fm.SymExpr]]


@record
class Diagnostic(Frozen):
    kind: str
    span: Span
    message: str
    counterexample: str = ""
    proof_ref: int = -1

    def format(self, filename: str = "") -> str:
        where = f"{filename}:{self.span}" if filename else str(self.span)
        out = f"{where}: {self.kind}: {self.message}"
        if self.counterexample:
            out += f" [counter-example: {self.counterexample}]"
        return out


@record
class Stats:
    rule_applications: int = 0
    branches: int = 0


@record
class Verdict:
    function: str
    status: str
    diagnostics: list[Diagnostic]
    proof: ProofTree
    stats: Stats
    inconclusive_reason: str = ""


@record
class SymState:
    store: dict[str, fm.SymExpr]
    heap: SymHeap
    scopes: list[set[str]]
    node: ProofNode
    tainted: bool = False
    taint_reason: str = ""
    partial_heap: bool = False
    # chunks already diagnosed as lost: they stay allocated (a leak does not
    # deallocate) but are never reported twice
    reported: frozenset = frozenset()

    def fork(self, node: Optional[ProofNode] = None) -> "SymState":
        return SymState(
            dict(self.store),
            self.heap,
            [set(s) for s in self.scopes],
            node if node is not None else self.node,
            self.tainted,
            self.taint_reason,
            self.partial_heap,
            self.reported,
        )

    def taint(self, reason: str) -> None:
        if not self.tainted:
            self.tainted = True
            self.taint_reason = reason


class _PathFault(Exception):
    """Raised to abandon the current path after a fault diagnostic."""


@record
class Contract(Frozen):
    name: str
    params: tuple[str, ...]
    pre: fm.Formula
    post: fm.Formula


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------


class _Engine:
    def __init__(
        self,
        fn: Compound,
        contracts: dict[str, Contract],
        preds: dict[str, fm.PredDef],
        formulas: dict[tuple, fm.Formula],
        depth: int,
    ):
        self.fn = fn
        self.contracts = contracts
        self.preds = preds
        self.formulas = formulas  # the function's annotation_formulas
        self.depth = depth
        self.fresh = FreshNames()
        self.builder = ProofBuilder()
        self.diagnostics: list[Diagnostic] = []
        self.taints: list[str] = []
        self.stats = Stats()

    # -- small helpers -------------------------------------------------------

    def counterexample(self, state: SymState) -> str:
        res = state.heap.sep_pure().check_sat()
        if res.status != SAT or res.witness is None:
            return ""
        binds = ", ".join(f"{k}={v}" for k, v in sorted(res.witness.items()) if "$" not in k)
        cells = "; ".join(fm.pretty(a) for a in state.heap.sorted_spatial())
        out = f"store: {binds or 'any'}"
        if cells:
            out += f"; heap: {cells}"
        return out

    def taint_state(self, state: SymState, reason: str) -> None:
        state.taint(reason)
        self.taints.append(reason)

    def diag(
        self,
        state: SymState,
        kind: str,
        span: Span,
        message: str,
        node: Optional[ProofNode] = None,
    ) -> None:
        if state.tainted:
            # evidence from a tainted path is unreliable either way
            self.taints.append(f"suppressed {kind} on tainted path: {message}")
            return
        ref = node.id if node is not None else -1
        self.diagnostics.append(
            Diagnostic(kind, span, message, self.counterexample(state), ref)
        )

    def fault(self, state: SymState, kind: str, span: Span, message: str) -> None:
        node = self.attach(state, "fault", message, FAILED)
        self.diag(state, kind, span, message, node)
        raise _PathFault()

    def attach(
        self,
        state: SymState,
        rule: str,
        text: Label,
        outcome: str = OK,
        children: Optional[list[ProofNode]] = None,
    ) -> ProofNode:
        """A new proof node under the current node of ``state``.  A label that
        prints formulas or terms is passed as a callable, and so printed only
        if the tree is read."""
        node = self.builder.node(rule, text, outcome, children)
        state.node.children.append(node)
        return node

    def note(self, state: SymState, rule: str, text: Label, outcome: str = OK) -> ProofNode:
        """``attach``, counted as a rule application."""
        self.stats.rule_applications += 1
        return self.attach(state, rule, text, outcome)

    def declare(self, state: SymState, name: str) -> None:
        if name not in state.store:
            state.scopes[-1].add(name)

    def fresh_sym(self, hint: str) -> fm.Var:
        return fm.Var(self.fresh.var(hint))

    def heaps_of(
        self, state: SymState, f: fm.Formula, skolemize: bool, what: str
    ) -> Optional[list[SymHeap]]:
        """An assertion as symbolic heaps, one per disjunct; outside the
        fragment the path is tainted with ``what`` and the reason, and the
        result is None."""
        try:
            return formula_to_symheaps(f, self.fresh, skolemize=skolemize)
        except UnsupportedFormulaError as ex:
            self.taint_state(state, f"{what}: {ex.message}")
            return None

    def establish(self, state: SymState, f: fm.Formula, what: str) -> Optional[EntailmentResult]:
        """Prove the assertion ``f`` from the heap of ``state``: the first proof
        of one of its disjuncts, else the last failure.  Outside the fragment
        the path is tainted (see ``heaps_of``) and the result is None."""
        goals = self.heaps_of(state, f, False, what)
        if goals is None:
            return None
        for goal in goals:
            res = prove(state.heap, goal, self.preds, self.depth, self.builder)
            if isinstance(res, Proved):
                break
        return res

    # -- heap access ----------------------------------------------------------

    def access(
        self,
        state: SymState,
        addr: fm.SymExpr,
        span: Span,
        nil: str,
        missing: str,
        outside: Optional[str] = None,
        kind: str = INVALID_ACCESS,
    ) -> Optional[fm.PointsTo]:
        """The cell at ``addr``, after unfolding a predicate instance rooted
        there if that has exactly one case.

        A nil address faults with the text ``nil``.  A miss returns None: it
        faults with ``missing`` (``{}`` stands for the address) if the address
        is provably absent, and otherwise taints the path with it.  In a loop
        body, whose heap is only the invariant's part, a miss never faults,
        and it taints with ``outside`` when that is given.
        """
        heap = state.heap
        if heap.pure.equal(addr, fm.Nil()):
            self.fault(state, kind, span, nil)
        i = heap.cell_at(addr)
        roots = heap.roots_at(addr) if i is None else []
        if roots:
            atom = heap.spatial[roots[0]]
            cases = unfold(heap, atom, self.preds, self.fresh, prune=True)  # type: ignore[arg-type]
            for n in range(len(cases)):
                # the cases of a split stay in the proof, but only a single
                # case replaces the heap
                self.note(state, "unfold", lambda atom=atom, n=n: f"{fm.pretty(atom)} case {n + 1}")
            if len(cases) == 1:
                state.heap = heap = cases[0]
                i = heap.cell_at(addr)
        if i is not None:
            return heap.spatial[i]  # type: ignore[return-value]
        if state.partial_heap and outside is not None:
            self.taint_state(state, outside)
            return None
        message = missing.format(fm.pretty_expr(addr))
        if not state.partial_heap and self._provably_absent(state, addr):
            self.fault(state, kind, span, message)
        self.taint_state(state, f"{message} (address not decidable)")
        return None

    def _provably_absent(self, state: SymState, addr: fm.SymExpr) -> bool:
        pure = state.heap.sep_pure()
        for atom in state.heap.spatial:
            if isinstance(atom, fm.PredApp):
                return False  # a predicate instance may hide the cell
            if not pure.distinct(addr, atom.loc):
                return False
        return True

    # -- reachability and leaks ------------------------------------------------

    def _reachable_atoms(self, state: SymState) -> set[int]:
        """Indices of spatial atoms reachable from the store roots: one
        worklist pass, each value looked up by its solver class.  A cell at
        a reached value plus a constant is reached too."""
        heap = state.heap
        shifts = _shifts(heap)
        reached: set[int] = set()
        seen: set[fm.SymExpr] = set()
        work = [x for v in state.store.values() for x in _components(v)]
        while work:
            v = work.pop()
            if v in seen:
                continue
            seen.add(v)
            for i in _cells_from(heap, v, shifts) + heap.args_at(v):
                if i in reached:
                    continue
                reached.add(i)
                atom = heap.spatial[i]
                if isinstance(atom, fm.PointsTo):
                    work.extend(_components(atom.val))
                else:
                    work.extend(atom.args)
        return reached

    def check_reachability(self, state: SymState, span: Span, origin: str) -> None:
        if state.partial_heap:
            return  # framed-out cells may still root these chunks
        reached = self._reachable_atoms(state)
        atoms = list(state.heap.spatial)
        lost = [
            a for i, a in enumerate(atoms) if i not in reached and a not in state.reported
        ]
        for a in lost:
            text = fm.pretty(a)
            node = self.note(state, "leak-check", text, FAILED)
            self.diag(state, UNREACHABLE_MEMORY, span, f"chunk {text} is unreachable {origin}", node)
            state.reported = state.reported | {a}
        if not lost:
            self.note(state, "leak-check", origin, OK)

    def leak_check(
        self,
        state: SymState,
        old_values: list[fm.SymExpr],
        span: Span,
        reached: Optional[set[int]] = None,
    ) -> None:
        """After an overwrite: chunks only rooted by the old value leak.

        The heap does not change while losses are reported, so follow-on
        losses reuse one reachability pass.
        """
        if state.partial_heap:
            return
        heap = state.heap
        shifts = _shifts(heap)
        held = [
            i
            for v in old_values
            for x in _components(v)
            for i in sorted(_cells_from(heap, x, shifts) + heap.roots_at(x))
        ]
        if not held:
            return
        if reached is None:
            reached = self._reachable_atoms(state)
        for i in held:
            atom = heap.spatial[i]
            if i in reached or atom in state.reported:
                continue
            text = fm.pretty(atom)
            node = self.note(state, "leak-check", text, FAILED)
            self.diag(state, MEMORY_LEAK, span, f"last reference to chunk {text} was overwritten", node)
            state.reported = state.reported | {atom}
            # follow-on losses (a lost record may root further chunks)
            if isinstance(atom, fm.PointsTo):
                self.leak_check(state, [atom.val], span, reached)

    # -- expression evaluation --------------------------------------------------

    def eval(self, e: Term, state: SymState, span: Span) -> fm.SymExpr:
        if isinstance(e, Int):
            return fm.IntLit(e.value)
        if isinstance(e, Atom):
            if e.name == "nil":
                return fm.Nil()
            if e.name not in state.store:
                self.fault(state, INVALID_ACCESS, span, f"read of undeclared variable '{e.name}'")
            return state.store[e.name]
        assert isinstance(e, Compound)
        f = e.functor
        if f == "oa":
            return self.field_read(e, state, span)
        if f == "mem":
            addr = self.eval_address(e.args[0], state, span)
            cell = self.access(
                state,
                addr,
                span,
                "heap read dereferences nil",
                "heap read reads unallocated location {}",
                "heap read reads memory not covered by the loop invariant",
            )
            return self.fresh_sym("u") if cell is None else cell.val
        if f in ("add", "sub", "mul"):
            l = self.eval(e.args[0], state, span)
            r = self.eval(e.args[1], state, span)
            if isinstance(l, fm.Record) or isinstance(r, fm.Record):
                self.fault(state, INVALID_ACCESS, span, "arithmetic on a record value")
            op = {"add": "+", "sub": "-", "mul": "*"}[f]
            return simplify_expr(fm.ArithExpr(op, l, r), state.heap.pure)
        if f == "funcall":
            return self.call(e, state, span)
        self.fault(state, INVALID_ACCESS, span, f"bad expression {emit_text(e)}")
        raise AssertionError("unreachable")

    def eval_address(self, loc: Term, state: SymState, span: Span) -> fm.SymExpr:
        assert isinstance(loc, Compound) and loc.functor == "offset"
        base = self.eval(loc.args[0], state, span)
        if isinstance(base, fm.Record):
            self.fault(state, INVALID_ACCESS, span, "address arithmetic on a record")
        disp = offset_value(loc.args[1]) if len(loc.args) == 2 else 0
        if disp == 0:
            return base
        return simplify_expr(fm.shifted(base, disp), state.heap.pure)

    def field_read(self, e: Compound, state: SymState, span: Span) -> fm.SymExpr:
        objname = e.args[0].name  # type: ignore[union-attr]
        fieldname = e.args[1].name  # type: ignore[union-attr]
        if objname not in state.store:
            self.fault(state, INVALID_ACCESS, span, f"read of undeclared variable '{objname}'")
        obj = state.store[objname]
        what = f"field read '{objname}.{fieldname}'"
        cell = self.access(
            state,
            obj,
            span,
            f"{what} dereferences nil",
            f"{what} on unallocated object",
            f"{what} outside the loop invariant",
        )
        if cell is None:
            return self.fresh_sym("u")
        val = cell.val
        if isinstance(val, fm.Record):
            m = val.field_map()
            if fieldname in m:
                return m[fieldname]
        self.fault(
            state,
            INVALID_ACCESS,
            span,
            f"field '{fieldname}' is not a component of the object at {fm.pretty_expr(obj)}",
        )
        raise AssertionError("unreachable")

    def field_write(self, e: Compound, value: fm.SymExpr, state: SymState, span: Span) -> None:
        objname = e.args[0].name  # type: ignore[union-attr]
        fieldname = e.args[1].name  # type: ignore[union-attr]
        if objname not in state.store:
            self.fault(state, INVALID_ACCESS, span, f"write to undeclared variable '{objname}'")
        what = f"field write '{objname}.{fieldname}'"
        cell = self.access(
            state,
            state.store[objname],
            span,
            f"{what} dereferences nil",
            f"{what} on unallocated object",
        )
        if cell is None:
            raise _PathFault()
        old = cell.val
        if isinstance(old, fm.Record):
            kept = tuple((n, v) for n, v in old.fields if n != fieldname)
            newval = fm.Record(old.tag, kept + ((fieldname, value),))
            lost = [v for n, v in old.fields if n == fieldname]
        else:
            # the first field write displaces whatever scalar was there
            newval = fm.Record(None, ((fieldname, value),))
            lost = [old]
        state.heap = state.heap.with_value(cell, newval)
        self.leak_check(state, lost, span)

    # -- contracts ---------------------------------------------------------------

    def call(self, e: Compound, state: SymState, span: Span) -> fm.SymExpr:
        name = e.args[0].name  # type: ignore[union-attr]
        actuals = (
            [self.eval(a, state, span) for a in e.args[1].items] if len(e.args) == 2 else []
        )
        contract = self.contracts.get(name)
        if contract is None:
            self.note(state, "call", f"{name} (unknown function, heap-neutral)")
            return self.fresh_sym("r")
        if len(actuals) != len(contract.params):
            self.fault(
                state,
                CONTRACT_VIOLATION,
                span,
                f"call to {name} with {len(actuals)} arguments, expected {len(contract.params)}",
            )
        sigma: dict[str, fm.SymExpr] = dict(zip(contract.params, actuals))
        ghosts = (fm.free_vars(contract.pre) | fm.free_vars(contract.post)) - set(contract.params)
        for g in sorted(ghosts):
            sigma[g] = self.fresh_sym("g")
        what = f"call to {name}"
        res = self.establish(state, fm.substitute(contract.pre, sigma), what)
        if res is None:
            return self.fresh_sym("r")
        if not isinstance(res, Proved):
            node = self.attach(
                state, "frame", f"call {name}: precondition not satisfied", FAILED, [res.tree]
            )
            residue = _residue(res) or "pure conditions"
            self.diag(
                state,
                CONTRACT_VIOLATION,
                span,
                f"call to {name}: unmatched precondition part: {residue}",
                node,
            )
            raise _PathFault()
        text = lambda frame=res.frame: f"call {name}: frame {frame.pretty()}"
        self.attach(state, "frame", text, OK, [res.tree])
        post_inst = fm.substitute(contract.post, {**sigma, **res.binding})
        post_heaps = self.heaps_of(state, post_inst, True, what)
        if post_heaps is None:
            return self.fresh_sym("r")
        post_heap = post_heaps[0]
        if len(post_heaps) > 1:
            self.taint_state(
                state,
                f"call to {name}: disjunctive postcondition narrowed to its first case",
            )
        consumed = Counter(state.heap.spatial) - Counter(res.frame.spatial)
        frame = res.frame.released(consumed.elements())
        state.heap = frame.star(post_heap)
        return self.fresh_sym("r")

    # -- conditions ---------------------------------------------------------------

    def cond_cases(self, c: Term, state: SymState, span: Span) -> tuple[list[Case], list[Case]]:
        """DNF cases of the condition and of its negation; each operand is
        evaluated once, left to right."""

        def cases(t: Term) -> tuple[list[Case], list[Case]]:
            assert isinstance(t, Compound)
            if t.functor in ("and", "or"):
                (lpos, lneg), (rpos, rneg) = cases(t.args[0]), cases(t.args[1])
                if t.functor == "and":
                    return [a + b for a in lpos for b in rpos], lneg + rneg
                return lpos + rpos, [a + b for a in lneg for b in rneg]
            op = FUNCTOR_TO_CMP[t.functor]
            l = self.eval(t.args[0], state, span)
            r = self.eval(t.args[1], state, span)
            return [[(op, l, r)]], [[(fm.NEGATED_CMP[op], l, r)]]

        return cases(c)

    def assume_cases(self, state: SymState, cases: list[Case], label: str) -> list[SymState]:
        out = []
        for case in cases:
            heap = state.heap
            for op, l, r in case:
                heap = heap.add_pure(op, l, r)
            status = heap.sep_pure().check_sat().status
            text = lambda case=case: f"{label} case {_case_text(case)}"
            node = self.attach(state, "assume", text, PRUNED if status == UNSAT else OK)
            if status == UNSAT:
                continue
            st = state.fork(node)
            st.heap = heap
            if status == UNKNOWN:
                self.taint_state(st, f"feasibility of path condition '{_case_text(case)}' is undecided")
            out.append(st)
        return out

    # -- statements ------------------------------------------------------------------

    def exec_stmt(self, s: Term, state: SymState) -> list[SymState]:
        span = s.span  # type: ignore[attr-defined]
        try:
            if isinstance(s, TList):
                return self.exec_block(list(s.items), state)
            assert isinstance(s, Compound)
            f = s.functor
            if f == "assign":
                return self.exec_assign(s, state, span)
            if f == "new":
                return self.exec_new(s, state, span)
            if f == "delete":
                return self.exec_delete(s, state, span)
            if f == "funcall":
                self.note(state, "stmt", lambda: emit_text(s))
                self.call(s, state, span)
                return [state]
            if f == "assert":
                return self.exec_assert(s, state, span)
            if f == "ite":
                return self.exec_ite(s, state, span)
            if f == "while":
                return self.exec_while(s, state, span)
        except _PathFault:
            return []
        raise AssertionError(f"statement shape not checked: {s!r}")

    def exec_assign(self, s: Compound, state: SymState, span: Span) -> list[SymState]:
        self.note(state, "stmt", lambda: emit_text(s))
        self.bind(state, s.args[0], self.eval(s.args[1], state, span), span)
        return [state]

    def exec_new(self, s: Compound, state: SymState, span: Span) -> list[SymState]:
        self.note(state, "stmt", lambda: emit_text(s))
        addr = self.fresh_sym("a")
        # separation from the other cells holds while the cell is in the heap;
        # delete and call keep it once the cell leaves
        heap = state.heap.add_pure("!=", addr, fm.Nil())
        state.heap = heap.with_atom(fm.PointsTo(addr, self.fresh_sym("v")))
        self.bind(state, s.args[0], addr, span)
        return [state]

    def bind(self, state: SymState, lhs: Term, value: fm.SymExpr, span: Span) -> None:
        """Store ``value`` into the variable, field ``o.f`` or cell ``[loc]``
        ``lhs``; a chunk only the overwritten value held leaks."""
        if isinstance(lhs, Atom):
            old = state.store.get(lhs.name)
            self.declare(state, lhs.name)
            state.store[lhs.name] = value
            if old is not None:
                self.leak_check(state, [old], span)
            return
        assert isinstance(lhs, Compound)
        if lhs.functor == "oa":
            self.field_write(lhs, value, state, span)
            return
        if lhs.functor == "mem":
            addr = self.eval_address(lhs.args[0], state, span)
            cell = self.access(
                state, addr, span, "write dereferences nil", "write to unallocated location {}"
            )
            if cell is None:
                raise _PathFault()
            state.heap = state.heap.with_value(cell, value)
            self.leak_check(state, [cell.val], span)
            return
        raise AssertionError(f"bad assignment target {lhs!r}")

    def exec_delete(self, s: Compound, state: SymState, span: Span) -> list[SymState]:
        self.note(state, "stmt", lambda: emit_text(s))
        target = s.args[0]
        value = self.eval(target, state, span)
        cell = self.access(
            state,
            value,
            span,
            "delete of nil",
            "delete of unallocated location {}",
            kind=INVALID_FREE,
        )
        if cell is None:
            return []
        state.heap = state.heap.without(cell).released([cell])
        self.leak_check(state, [cell.val], span)
        return [state]

    def exec_assert(self, s: Compound, state: SymState, span: Span) -> list[SymState]:
        goal = self.formulas[term_key(s)]
        res = self.establish(state, self.instantiate_formula(goal, state), "assert")
        if res is None:
            return [state]
        proved = isinstance(res, Proved)
        text = lambda: fm.pretty(goal)
        node = self.attach(state, "assert", text, OK if proved else FAILED, [res.tree])
        if proved:
            return [state]
        self.diag(state, CONTRACT_VIOLATION, span, f"assertion not established: {fm.pretty(goal)}", node)
        return []

    def instantiate_formula(self, f: fm.Formula, state: SymState) -> fm.Formula:
        mapping: dict[str, fm.SymExpr] = dict(state.store)
        for g in sorted(fm.free_vars(f) - set(mapping)):
            mapping[g] = self.fresh_sym("g")
        return fm.substitute(f, mapping)

    def exec_ite(self, s: Compound, state: SymState, span: Span) -> list[SymState]:
        self.note(state, "stmt", lambda: f"ite({emit_text(s.args[0])}, ...)")
        try:
            then_cases, else_cases = self.cond_cases(s.args[0], state, span)
        except _PathFault:
            return []
        out: list[SymState] = []
        for st in self.assume_cases(state, then_cases, "if-then"):
            out.extend(self.exec_block(list(s.args[1].items), st))  # type: ignore[union-attr]
        for st in self.assume_cases(state, else_cases, "if-else"):
            if len(s.args) == 3:
                out.extend(self.exec_block(list(s.args[2].items), st))  # type: ignore[union-attr]
            else:
                out.append(st)
        return out

    def exec_while(self, s: Compound, state: SymState, span: Span) -> list[SymState]:
        self.note(state, "stmt", lambda: f"while({emit_text(s.args[0])}, ...)")
        cond_term = s.args[0]
        inv_formula = self.formulas[term_key(s.args[1])]
        body = list(s.args[2].items)  # type: ignore[union-attr]

        # entry: current state must provide the invariant footprint
        what = "loop invariant"
        entry = self.establish(state, self.instantiate_formula(inv_formula, state), what)
        if entry is None:
            return [state]
        if not isinstance(entry, Proved):
            node = self.attach(state, "invariant", "entry check failed", FAILED, [entry.tree])
            self.diag(
                state,
                INVARIANT_VIOLATION,
                span,
                f"loop invariant does not hold on entry: {fm.pretty(inv_formula)}",
                node,
            )
            return []
        frame = entry.frame
        self.attach(state, "invariant", lambda: f"entry ok, frame {frame.pretty()}", OK, [entry.tree])

        modified = sorted(_assigned_vars(body))

        def havoc(st: SymState) -> None:
            for v in modified:
                if v in st.store:
                    st.store[v] = self.fresh_sym("h")

        # body: havoc modified vars, assume invariant and condition, run once
        body_state = state.fork()
        havoc(body_state)
        inv_assumed = self.instantiate_formula(inv_formula, body_state)
        assumed = self.heaps_of(state, inv_assumed, True, what)
        if assumed is None:
            return [state]
        for ah in assumed:
            bs = body_state.fork()
            bs.heap = ah
            bs.partial_heap = True
            try:
                cases, _ = self.cond_cases(cond_term, bs, span)
            except _PathFault:
                continue
            for st in self.assume_cases(bs, cases, "loop"):
                for terminal in self.exec_block(body, st):
                    inv_back = self.instantiate_formula(inv_formula, terminal)
                    pres = self.establish(terminal, inv_back, what)
                    if pres is None:
                        continue
                    if isinstance(pres, Proved) and pres.frame.spatial:
                        node = self.attach(
                            terminal, "invariant", "preserved with leftover chunks", FAILED, [pres.tree]
                        )
                        for a in pres.frame.spatial:
                            self.diag(
                                terminal,
                                MEMORY_LEAK,
                                span,
                                f"loop body allocates {fm.pretty(a)} not claimed by the invariant",
                                node,
                            )
                    elif isinstance(pres, Proved):
                        self.attach(terminal, "invariant", "preserved", OK, [pres.tree])
                    else:
                        node = self.attach(
                            terminal, "invariant", "preservation failed", FAILED, [pres.tree]
                        )
                        self.diag(
                            terminal,
                            INVARIANT_VIOLATION,
                            span,
                            f"loop invariant not preserved: {fm.pretty(inv_formula)}",
                            node,
                        )
                    if terminal.tainted and not state.tainted:
                        self.taint_state(state, terminal.taint_reason)

        # after the loop: invariant * frame, condition negated
        after = state.fork()
        havoc(after)
        after_heaps = self.heaps_of(state, self.instantiate_formula(inv_formula, after), True, what)
        if after_heaps is None:
            return [state]
        out: list[SymState] = []
        for ah in after_heaps:
            st = after.fork()
            st.heap = frame.star(ah)
            try:
                _, cases = self.cond_cases(cond_term, st, span)
            except _PathFault:
                continue
            out.extend(self.assume_cases(st, cases, "loop-exit"))
        return out

    # -- blocks and functions -----------------------------------------------------

    def exec_block(self, stmts: list[Term], state: SymState) -> list[SymState]:
        state.scopes.append(set())
        states = [state]
        for s in stmts:
            nxt: list[SymState] = []
            for st in states:
                nxt.extend(self.exec_stmt(s, st))
            states = nxt
            if not states:
                break
        out = []
        last_span = stmts[-1].span if stmts else NO_SPAN  # type: ignore[attr-defined]
        for st in states:
            dying = st.scopes.pop()
            for name in sorted(dying):
                st.store.pop(name, None)
            self.check_reachability(st, last_span, "at block exit")
            out.append(st)
        return out

    def verify(self, pre: fm.Formula, body: list[Term], post: fm.Formula) -> Verdict:
        """Verify the function against its own contracts ``pre`` and ``post``
        (from ``split_contracts``), ``body`` being its statements between them."""
        name = self.fn.args[0].name  # type: ignore[union-attr]
        params = [p.args[0].name for p in self.fn.args[2].items]  # type: ignore[union-attr]
        root = self.builder.node("function", name)

        store: dict[str, fm.SymExpr] = {}
        for p in params:
            store[p] = self.fresh_sym("p")
        ghosts = sorted((fm.free_vars(pre) | fm.free_vars(post)) - set(params))
        gmap = {g: self.fresh_sym("g") for g in ghosts}

        try:
            pre_inst = fm.substitute(pre, {**store, **gmap})
            init_heaps = formula_to_symheaps(pre_inst, self.fresh, skolemize=True)
        except UnsupportedFormulaError as ex:
            return Verdict(
                name,
                INCONCLUSIVE,
                [],
                ProofTree(root),
                self.stats,
                f"precondition outside the supported fragment: {ex.message}",
            )

        terminals: list[SymState] = []
        post_text = lambda: fm.pretty(post)
        for ih in init_heaps:
            if not ih.consistent():
                root.children.append(self.builder.node("assume", "precondition case", PRUNED))
                continue
            node = self.builder.node("assume", lambda ih=ih: f"precondition {ih.pretty()}", OK)
            root.children.append(node)
            st = SymState(dict(store), ih, [set(params)], node)
            terminals.extend(self.exec_block(list(body), st))
        self.stats.branches = max(0, len(terminals) - 1)

        for st in terminals:
            post_inst = fm.substitute(post, {**st.store, **gmap})
            what = "postcondition outside the supported fragment"
            res = self.establish(st, post_inst, what)
            if res is None:
                continue
            if not isinstance(res, Proved):
                node = self.attach(st, "postcondition", post_text, FAILED, [res.tree])
                self.diag(
                    st,
                    CONTRACT_VIOLATION,
                    self.fn.span,
                    f"postcondition not established; unmatched: {_residue(res) or fm.pretty(post)}",
                    node,
                )
            else:
                self.attach(st, "postcondition", post_text, OK, [res.tree])
                for a in res.frame.spatial:
                    if a in st.reported:
                        continue
                    text = fm.pretty(a)
                    leak_node = self.attach(st, "leak-check", text, FAILED)
                    self.diag(
                        st,
                        MEMORY_LEAK,
                        self.fn.span,
                        f"chunk {text} is still allocated at return and not claimed by the postcondition",
                        leak_node,
                    )
        seen = set()
        unique: list[Diagnostic] = []
        for d in self.diagnostics:
            key = (d.kind, d.span, d.message)
            if key not in seen:
                seen.add(key)
                unique.append(d)
        refuting = [d for d in unique if d.kind in REFUTING_KINDS]
        if refuting:
            status = REFUTED
        elif self.taints:
            status = INCONCLUSIVE
        else:
            status = VERIFIED
        return Verdict(
            name,
            status,
            unique,
            ProofTree(root),
            self.stats,
            self.taints[0] if self.taints else "",
        )


def _case_text(case: Case) -> str:
    return " && ".join(fm.pretty(fm.PureAtom(op, l, r)) for op, l, r in case) or "true"


def _residue(res: Failed) -> str:
    return ", ".join(fm.pretty(a) for a in res.residue_consequent)


def _shifts(heap: SymHeap) -> list[int]:
    """The constants, other than 0, that the points-to addresses of ``heap``
    add to their other terms; empty when no address carries a constant."""
    out: set[int] = set()
    for a in heap.spatial:
        if isinstance(a, fm.PointsTo) and isinstance(a.loc, fm.ArithExpr):
            const, terms = linear_form(a.loc)
            if const and terms:
                out.add(const)
    return sorted(out)


def _cells_from(heap: SymHeap, v: fm.SymExpr, shifts: list[int]) -> list[int]:
    """Points-to atoms at ``v`` or at ``v`` plus one of ``shifts``."""
    return heap.cells_at(v) + [i for k in shifts for i in heap.cells_at(fm.shifted(v, k))]


def _components(v: fm.SymExpr) -> list[fm.SymExpr]:
    """The non-record leaves of a stored value."""
    if isinstance(v, fm.Record):
        return [x for _, f in v.fields for x in _components(f)]
    return [v]


def _assigned_vars(stmts: list[Term]) -> set[str]:
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, TList):
            out |= _assigned_vars(list(s.items))
            continue
        if not isinstance(s, Compound):
            continue
        if s.functor == "assign" and isinstance(s.args[0], Atom):
            out.add(s.args[0].name)
        elif s.functor == "new" and isinstance(s.args[0], Atom):
            out.add(s.args[0].name)
        elif s.functor == "ite":
            out |= _assigned_vars(list(s.args[1].items))  # type: ignore[union-attr]
            if len(s.args) == 3:
                out |= _assigned_vars(list(s.args[2].items))  # type: ignore[union-attr]
        elif s.functor == "while":
            out |= _assigned_vars(list(s.args[2].items))  # type: ignore[union-attr]
    return out


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def verify_program_term(program: Term, depth: int = 4) -> list[Verdict]:
    """Verify every function in a checked program term, in source order; the
    loaders check its predicates (``termir.check_predicates``), not this.
    Each annotation is converted to a formula once, not once per path."""
    fields = term_class_fields(program)
    preds = fm.builtin_preds()
    preds.update((d.name, d) for d in term_predicates(program, fields))
    functions = [(fn, split_contracts(fn, fields)) for fn in term_functions(program)]
    # calls look contracts up by bare name; the first definition of a name wins
    contracts: dict[str, Contract] = {}
    for fn, (pre, _, post) in functions:
        name = fn.args[0].name  # type: ignore[union-attr]
        params = tuple(p.args[0].name for p in fn.args[2].items)  # type: ignore[union-attr]
        contracts.setdefault(name, Contract(name, params, pre, post))
    return [
        _Engine(fn, contracts, preds, annotation_formulas(fn, fields), depth).verify(*split)
        for fn, split in functions
    ]
