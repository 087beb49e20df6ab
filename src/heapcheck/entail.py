"""Entailment prover and frame inference over symbolic heaps.

``prove`` runs a deterministic subtraction-style search: consequent atoms are
consumed against provably-matching antecedent atoms (unifying consequent
existentials), inductive predicates fold on the consequent side and unfold on
the antecedent side within a depth bound, and leftovers become the frame.
Unknown pure answers always count as failure, never success.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Union

from . import formula as fm
from .arith import ClassIndex, PureSet, YES, lazy
from .errors import UnknownPredicateError, UnsupportedFormulaError
from .prooftree import FAILED, OK, PRUNED, ProofBuilder, ProofNode
from .records import Frozen, field, record

DEFAULT_UNFOLD_DEPTH = 4


class FreshNames:
    """Deterministic supply of symbol names that no source program can shadow
    ('$' never lexes inside identifiers).

    Distinct prefixes give disjoint namespaces; the prover reserves '?' so its
    internal instantiations can never collide with caller-made symbols.
    """

    def __init__(self, prefix: str = "") -> None:
        self._n = 0
        self.prefix = prefix

    def var(self, hint: str = "v") -> str:
        self._n += 1
        return f"${self.prefix}{hint}{self._n}"


# --------------------------------------------------------------------------
# symbolic heaps
# --------------------------------------------------------------------------


SpatialAtom = Union[fm.PointsTo, fm.PredApp]


@record
class SymHeap(Frozen):
    """Pure constraints plus a multiset of spatial atoms.

    Well-separation (pairwise distinct points-to locations, none nil) is not
    stored as atoms: ``sep_pure`` hands the points-to locations to the pure
    set as its ``separated`` tuple, once per heap.  Each heap also keeps,
    built on first use, its canonical text and an index of its spatial atoms
    by the solver class of their addresses (``cell_at`` and friends), which
    stands in for scanning the atoms with ``PureSet.equal``.

    A heap derived by adding pure atoms or spatial atoms at the end
    (``add_pure``, ``with_atom``, ``star``, ``released``) grows its parent's
    ``sep_pure`` and indexes, where the parent has them, so their solver
    extends the parent's instead of being built again.  A heap that only
    changes the value of a cell (``with_value``) shares them.
    """

    pure: PureSet = field(default_factory=PureSet)
    spatial: tuple[SpatialAtom, ...] = ()
    existentials: frozenset[str] = frozenset()

    def star(self, other: "SymHeap") -> "SymHeap":
        """``self * other``, under the existentials of ``self``."""
        return self._grown(self.pure.extend(other.pure), other.spatial)

    def with_atom(self, atom: SpatialAtom) -> "SymHeap":
        return self._grown(self.pure, (atom,))

    def without(self, atom: SpatialAtom) -> "SymHeap":
        out = list(self.spatial)
        out.remove(atom)
        return SymHeap(self.pure, tuple(out), self.existentials)

    def with_value(self, cell: fm.PointsTo, value: fm.SymExpr) -> "SymHeap":
        """Every points-to atom equal to ``cell`` holding ``value`` instead."""
        new = fm.PointsTo(cell.loc, value)
        out = list(self.spatial)
        # an atom equal to ``cell`` is located in its class
        for i in self.cells_at(cell.loc):
            if out[i] == cell:
                out[i] = new
        heap = SymHeap(self.pure, tuple(out), self.existentials)
        # the locations stay, so the solver and the indexes do too
        for name in ("_sep_pure", "_cells", "_args"):
            if name in self.__dict__:
                heap.__dict__[name] = self.__dict__[name]
        return heap

    def add_pure(self, op: str, l: fm.SymExpr, r: fm.SymExpr) -> "SymHeap":
        return self._grown(self.pure.add(op, l, r))

    def _grown(self, pure: PureSet, added: tuple[SpatialAtom, ...] = ()) -> "SymHeap":
        """This heap with ``pure``, whose atoms start with this heap's, and
        with ``added`` after its spatial atoms."""
        heap = SymHeap(pure, self.spatial + added, self.existentials)
        sep = self.__dict__.get("_sep_pure")
        if sep is None or pure.separated != self.pure.separated:
            return heap
        locs = tuple(a.loc for a in added if isinstance(a, fm.PointsTo))
        sep = heap.__dict__["_sep_pure"] = sep.grown(pure.atoms, sep.separated + locs)
        n = len(self.spatial)
        cells = self.__dict__.get("_cells")
        if cells is not None:
            heap.__dict__["_cells"] = cells.grown(sep, _cell_entries(added, n))
        args = self.__dict__.get("_args")
        if args is not None:
            heap.__dict__["_args"] = args.grown(sep, _arg_entries(added, n))
        return heap

    def sep_pure(self) -> PureSet:
        """Pure part together with the separation of the spatial part."""
        return self._sep_pure

    @lazy
    def _sep_pure(self) -> PureSet:
        locs = tuple(a.loc for a in self.spatial if isinstance(a, fm.PointsTo))
        return self.pure.grown(self.pure.atoms, self.pure.separated + locs)

    # Spatial atoms by the solver class of an anchor under ``sep_pure``.  A
    # lookup gives the positions, in spatial order, that a scan with
    # ``sep_pure().equal`` would match.

    def cell_at(self, e: fm.SymExpr) -> Optional[int]:
        """The first points-to atom located at ``e``."""
        return self._cells.first(e)

    def cells_at(self, e: fm.SymExpr) -> list[int]:
        """Points-to atoms located at ``e``."""
        return self._cells.find(e)

    def roots_at(self, e: fm.SymExpr) -> list[int]:
        """Predicate instances whose first argument is ``e``."""
        return [i for i, k in self._args.find(e) if k == 0]

    def args_at(self, e: fm.SymExpr) -> list[int]:
        """Predicate instances with ``e`` among their arguments, once per
        matching argument."""
        return [i for i, _ in self._args.find(e)]

    @lazy
    def _cells(self) -> ClassIndex:
        return ClassIndex(self.sep_pure(), _cell_entries(self.spatial))

    @lazy
    def _args(self) -> ClassIndex:
        return ClassIndex(self.sep_pure(), _arg_entries(self.spatial))

    def released(self, gone: Iterable[SpatialAtom]) -> "SymHeap":
        """Keep as pure facts that the cells ``gone``, which just left the heap,
        were distinct from every points-to cell that remains."""
        locs = [a.loc for a in self.spatial if isinstance(a, fm.PointsTo)]
        facts = tuple(("!=", g.loc, loc) for g in gone if isinstance(g, fm.PointsTo) for loc in locs)
        if not facts:
            return self
        return self._grown(self.pure.grown(self.pure.atoms + facts, self.pure.separated))

    def consistent(self) -> bool:
        return not self.sep_pure().unsat()

    def to_formula(self) -> fm.Formula:
        pure = [fm.PureAtom(op, l, r) for op, l, r in self.pure.atoms]
        out = fm.join(fm.Star, self.spatial) if self.spatial else fm.Emp()
        # the last name in sorted order is the outermost binder
        return fm.exists(sorted(self.existentials, reverse=True), fm.join(fm.And, [*pure, out]))

    def key(self) -> fm.Formula:
        """The normalized formula of this heap; equal keys print equal text."""
        return fm.normalize(self.to_formula())

    def pretty(self) -> str:
        return self._text

    @lazy
    def _text(self) -> str:
        return fm.pretty(self.key())

    def sorted_spatial(self) -> list[SpatialAtom]:
        return sorted(self.spatial, key=fm.star_key)


def _cell_entries(atoms: Iterable[SpatialAtom], start: int = 0) -> list:
    """The locations of the points-to atoms among ``atoms``, tagged with
    their positions, numbered from ``start``."""
    return [(a.loc, i) for i, a in enumerate(atoms, start) if isinstance(a, fm.PointsTo)]


def _arg_entries(atoms: Iterable[SpatialAtom], start: int = 0) -> list:
    """The arguments of the predicate instances among ``atoms``, numbered
    from ``start``, tagged (atom position, argument position)."""
    return [
        (x, (i, k))
        for i, a in enumerate(atoms, start)
        if isinstance(a, fm.PredApp)
        for k, x in enumerate(a.args)
    ]


# --------------------------------------------------------------------------
# formulas -> symbolic heaps
# --------------------------------------------------------------------------


def formula_to_symheaps(
    f: fm.Formula,
    fresh: FreshNames,
    skolemize: bool = False,
) -> list[SymHeap]:
    """Convert to the symbolic-heap fragment; Or yields one heap per disjunct.

    Raises UnsupportedFormulaError on conjunction of two spatial parts or on
    field references, which have no heap-cell meaning of their own.
    """
    out: list[SymHeap] = []
    for disjunct in fm.or_free(f):
        pure: list[tuple[str, fm.SymExpr, fm.SymExpr]] = []
        spatial: list[SpatialAtom] = []
        existentials: set[str] = set()
        renaming: dict[str, fm.SymExpr] = {}

        def walk(g: fm.Formula) -> None:
            if isinstance(g, (fm.Emp, fm.TrueF)):
                return
            if isinstance(g, fm.FalseF):
                pure.append(("==", fm.IntLit(0), fm.IntLit(1)))
                return
            if isinstance(g, fm.PureAtom):
                pure.append((g.op, _rn(g.left), _rn(g.right)))
                return
            if isinstance(g, fm.PointsTo):
                spatial.append(fm.PointsTo(_rn(g.loc), _rn(g.val)))
                return
            if isinstance(g, fm.PredApp):
                spatial.append(fm.PredApp(g.name, tuple(_rn(a) for a in g.args)))
                return
            if isinstance(g, fm.Star):
                for p in g.parts:
                    walk(p)
                return
            if isinstance(g, fm.And):
                clash = fm.spatial_clash(g)
                for i, p in enumerate(g.parts):
                    if i == clash:
                        raise UnsupportedFormulaError(
                            "conjunction of two spatial formulas is not supported"
                        )
                    walk(p)
                return
            if isinstance(g, fm.Exists):
                # a fresh name per binder, outermost first; the renaming of
                # the binders in scope is applied at the atoms
                saved = [(v, renaming.get(v)) for v in g.vars]
                for v in g.vars:
                    name = fresh.var("e")
                    if not skolemize:
                        existentials.add(name)
                    renaming[v] = fm.Var(name)
                walk(g.body)
                for v, old in reversed(saved):
                    if old is None:
                        renaming.pop(v, None)
                    else:
                        renaming[v] = old
                return
            raise UnsupportedFormulaError(f"formula outside the supported fragment: {g!r}")

        def _rn(e: fm.SymExpr) -> fm.SymExpr:
            if isinstance(e, fm.Var):
                return renaming.get(e.name, e)
            if isinstance(e, fm.FieldRef):
                raise UnsupportedFormulaError(
                    "field references inside assertions are not supported; "
                    "assert record values instead"
                )
            if isinstance(e, fm.Record):
                return fm.Record(e.tag, tuple((n, _rn(v)) for n, v in e.fields))
            if isinstance(e, fm.ArithExpr):
                return fm.ArithExpr(e.op, _rn(e.left), _rn(e.right))
            return e

        walk(disjunct)
        ps = PureSet()
        for op, l, r in pure:
            ps = ps.add(op, l, r)
        out.append(SymHeap(ps, tuple(spatial), frozenset(existentials)))
    return out


# --------------------------------------------------------------------------
# entailment results
# --------------------------------------------------------------------------


@record
class Proved:
    frame: SymHeap
    binding: dict[str, fm.SymExpr]
    tree: ProofNode

    status = "proved"


@record
class Failed:
    residue_consequent: tuple[SpatialAtom, ...]
    nearest_rule: str
    tree: ProofNode

    status = "failed"


EntailmentResult = Union[Proved, Failed]


# --------------------------------------------------------------------------
# the prover
# --------------------------------------------------------------------------


class _Prover:
    def __init__(
        self,
        preds: dict[str, fm.PredDef],
        builder: ProofBuilder,
    ):
        self.preds = preds
        # reserved namespace: caller-made names never start with '$?'
        self.qfresh = FreshNames("?")
        self.builder = builder

    # unification ---------------------------------------------------------

    def unify(
        self,
        pattern: fm.SymExpr,
        target: fm.SymExpr,
        binding: dict[str, fm.SymExpr],
        exist: frozenset[str],
        pure: PureSet,
    ) -> Optional[dict[str, fm.SymExpr]]:
        p = fm.substitute_expr(pattern, binding)
        if isinstance(p, fm.Var) and p.name in exist:
            out = dict(binding)
            out[p.name] = target
            return out
        if isinstance(p, fm.Record) and isinstance(target, fm.Record):
            if p.tag is not None and target.tag is not None and p.tag != target.tag:
                return None
            pm, tm = dict(p.fields), dict(target.fields)
            if set(pm) != set(tm):
                return None
            b = binding
            for name in sorted(pm):
                b = self.unify(pm[name], tm[name], b, exist, pure)
                if b is None:
                    return None
            return b
        if isinstance(p, fm.Record) != isinstance(target, fm.Record):
            return None
        if pure.equal(p, target):
            return binding
        return None

    # spatial matching ------------------------------------------------------

    def match(
        self,
        ant: SymHeap,
        used: set[int],
        con_atoms: tuple[SpatialAtom, ...],
        con_pure: tuple[tuple[str, fm.SymExpr, fm.SymExpr], ...],
        exist: frozenset[str],
        binding: dict[str, fm.SymExpr],
        depth: int,
        nodes: list[ProofNode],
    ) -> Generator:
        """Consume all consequent atoms; returns (leftover, binding) or the
        name of the rule nearest to the failure.  ``used`` holds the positions
        in ``ant.spatial`` consumed so far.  Each step consumes one atom, adds
        its position, and yields the arguments of the step for the rest (see
        ``fm.run_steps``); backtracking removes the position again."""
        ant_pure = ant.sep_pure()
        if not con_atoms:
            for op, l, r in con_pure:
                ls = fm.substitute_expr(l, binding)
                rs = fm.substitute_expr(r, binding)
                unbound = (fm.expr_free_vars(ls) | fm.expr_free_vars(rs)) & exist

                def text(op=op, ls=ls, rs=rs) -> str:
                    return fm.pretty(fm.PureAtom(op, ls, rs))

                if unbound:
                    nodes.append(
                        self.builder.node(
                            "pure-check",
                            lambda u=unbound, t=text: f"unbound existential {sorted(u)} in {t()}",
                            FAILED,
                        )
                    )
                    return "pure-check"
                # ``_prove`` found ``ant`` not UNSAT, so ``equal`` decides == exactly
                if not (ant_pure.equal(ls, rs) if op == "==" else ant_pure.entails(op, ls, rs) == YES):
                    nodes.append(self.builder.node("pure-check", text, FAILED))
                    return "pure-check"
                nodes.append(self.builder.node("pure-check", text, OK))
            return tuple(a for i, a in enumerate(ant.spatial) if i not in used), binding
        atom, rest = con_atoms[0], con_atoms[1:]
        if isinstance(atom, fm.PointsTo):
            nearest = "points-to"
            loc = fm.substitute_expr(atom.loc, binding)
            if isinstance(loc, fm.Record) or (isinstance(loc, fm.Var) and loc.name in exist):
                positions = [i for i, a in enumerate(ant.spatial) if isinstance(a, fm.PointsTo)]
            else:
                # a bound location unifies with exactly the cells in its class
                positions = [
                    i for i in ant.cells_at(loc) if not isinstance(ant.spatial[i].loc, fm.Record)  # type: ignore[union-attr]
                ]
            for i in positions:
                if i in used:
                    continue
                cand = ant.spatial[i]
                b2 = self.unify(atom.loc, cand.loc, binding, exist, ant_pure)
                if b2 is None:
                    continue
                b3 = self.unify(atom.val, cand.val, b2, exist, ant_pure)
                if b3 is None:
                    continue
                mark = len(nodes)
                nodes.append(
                    self.builder.node(
                        "points-to",
                        lambda atom=atom, cand=cand: f"{fm.pretty(atom)} matches {fm.pretty(cand)}",
                    )
                )
                used.add(i)
                res = yield (ant, used, rest, con_pure, exist, b3, depth, nodes)
                if not isinstance(res, str):
                    return res
                used.discard(i)
                nearest = res
                del nodes[mark:]
            # fall through to antecedent unfolding handled by caller
            return nearest
        assert isinstance(atom, fm.PredApp)
        nearest = "pred-match"
        for i, cand in enumerate(ant.spatial):
            if i in used or not isinstance(cand, fm.PredApp) or cand.name != atom.name:
                continue
            b2: Optional[dict[str, fm.SymExpr]] = binding
            for pa, ca in zip(atom.args, cand.args):
                b2 = self.unify(pa, ca, b2, exist, ant_pure)
                if b2 is None:
                    break
            if b2 is None:
                continue
            mark = len(nodes)
            nodes.append(self.builder.node("pred-match", lambda atom=atom: fm.pretty(atom)))
            used.add(i)
            res = yield (ant, used, rest, con_pure, exist, b2, depth, nodes)
            if not isinstance(res, str):
                return res
            used.discard(i)
            nearest = res
            del nodes[mark:]
        if depth <= 0:
            nodes.append(
                self.builder.node(
                    "fold", lambda atom=atom: f"depth bound hit at {fm.pretty(atom)}", FAILED
                )
            )
            return "depth-exceeded"
        # fold: replace the consequent predicate by one of its body disjuncts
        args = tuple(fm.substitute_expr(a, binding) for a in atom.args)
        d = lookup_pred(self.preds, atom.name, len(args))
        for i, disjunct in enumerate(pred_cases(d, args, self.qfresh, skolemize=False)):
            new_exist = exist | disjunct.existentials
            new_con = disjunct.spatial + rest
            new_pure = con_pure + disjunct.pure.atoms
            mark = len(nodes)
            nodes.append(
                self.builder.node("fold", lambda atom=atom, i=i: f"{fm.pretty(atom)} via case {i + 1}")
            )
            res = yield (ant, used, new_con, new_pure, new_exist, binding, depth - 1, nodes)
            if not isinstance(res, str):
                return res
            if res == "depth-exceeded":
                nearest = res
            del nodes[mark:]
        return nearest if nearest != "pred-match" else "fold"

    # full proofs -----------------------------------------------------------

    def prove(self, ant: SymHeap, con: SymHeap, depth: int) -> EntailmentResult:
        for h in (ant, con):
            for a in h.spatial:
                if isinstance(a, fm.PredApp):
                    lookup_pred(self.preds, a.name, len(a.args))
        # rename consequent existentials into the reserved namespace so they
        # can never alias antecedent symbols
        rename = {v: fm.Var(f"$?{i}") for i, v in enumerate(sorted(con.existentials), 1)}
        con_pure = tuple(
            (op, fm.substitute_expr(l, rename), fm.substitute_expr(r, rename))
            for op, l, r in con.pure.atoms
        )
        con_spatial = tuple(fm.substitute(a, rename) for a in con.spatial)
        exist = frozenset(v.name for v in rename.values())
        result = self._prove(ant, con_pure, con_spatial, exist, con, depth)
        if isinstance(result, Proved):
            result.binding = {
                orig: result.binding[renamed.name]
                for orig, renamed in rename.items()
                if renamed.name in result.binding
            }
        return result

    def _prove(
        self,
        ant: SymHeap,
        con_pure: tuple,
        con_spatial: tuple[SpatialAtom, ...],
        exist: frozenset[str],
        con: SymHeap,
        depth: int,
    ) -> EntailmentResult:
        """``ant |- con``, with ``con``'s atoms renamed into the reserved
        namespace as ``con_pure`` and ``con_spatial``; ``con`` itself only
        labels the proof."""
        if ant.sep_pure().unsat():
            node = self.builder.node("pure-contradiction", ant.pretty)
            return Proved(SymHeap(), {}, node)

        def label() -> str:
            return f"{ant.pretty()} |- {con.pretty()}"

        nodes: list[ProofNode] = []
        con_sorted = tuple(sorted(con_spatial, key=fm.star_key))
        args = (ant, set(), con_sorted, con_pure, exist, {}, depth, nodes)
        res = fm.run_steps(self.match, args)
        if not isinstance(res, str):
            leftover, binding = res
            frame = SymHeap(ant.pure, leftover, frozenset())
            root = self.builder.node("entail", label, OK, nodes)
            return Proved(frame, binding, root)
        nearest = res
        # antecedent unfolding: case-split on the first predicate instance
        preds_in_ant = [a for a in ant.spatial if isinstance(a, fm.PredApp)]
        if preds_in_ant and depth > 0:
            inst = preds_in_ant[0]
            cases = unfold(ant, inst, self.preds, self.qfresh, prune=False)
            case_results: list[ProofNode] = list(nodes)
            frames: list[SymHeap] = []
            bindings: list[dict[str, fm.SymExpr]] = []
            all_ok = True
            for i, case in enumerate(cases):
                if not case.consistent():
                    case_results.append(
                        self.builder.node(
                            "unfold", lambda i=i, case=case: f"case {i + 1}: {case.pretty()}", PRUNED
                        )
                    )
                    continue
                sub = self._prove(case, con_pure, con_spatial, exist, con, depth - 1)
                case_results.append(
                    self.builder.node(
                        "unfold",
                        lambda i=i, inst=inst: f"{fm.pretty(inst)} case {i + 1}",
                        OK if isinstance(sub, Proved) else FAILED,
                        [sub.tree],
                    )
                )
                if isinstance(sub, Proved):
                    frames.append(sub.frame)
                    bindings.append(sub.binding)
                else:
                    all_ok = False
                    nearest = "unfold"
                    break
            if all_ok and frames:
                canon = {f.key() for f in frames}
                if len(canon) == 1:
                    root = self.builder.node("entail", label, OK, case_results)
                    return Proved(frames[0], bindings[0], root)
                nearest = "frame-mismatch-across-cases"
            nodes = case_results
        root = self.builder.node("entail", label, FAILED, nodes)
        return Failed(con_sorted, nearest, root)


def prove(
    antecedent: SymHeap,
    consequent: SymHeap,
    preds: Optional[dict[str, fm.PredDef]] = None,
    depth: int = DEFAULT_UNFOLD_DEPTH,
    builder: Optional[ProofBuilder] = None,
) -> EntailmentResult:
    """Decide antecedent |- consequent * frame; sound, deterministic."""
    table = preds if preds is not None else fm.builtin_preds()
    prover = _Prover(table, builder or ProofBuilder())
    return prover.prove(antecedent, consequent, depth)


def infer_frame(
    caller: SymHeap,
    precondition: SymHeap,
    preds: Optional[dict[str, fm.PredDef]] = None,
    depth: int = DEFAULT_UNFOLD_DEPTH,
    builder: Optional[ProofBuilder] = None,
) -> EntailmentResult:
    """Frame inference is entailment with the precondition as consequent; the
    frame is everything the match did not consume."""
    return prove(caller, precondition, preds, depth, builder)


def unfold(
    h: SymHeap,
    inst: fm.PredApp,
    preds: Optional[dict[str, fm.PredDef]] = None,
    fresh: Optional[FreshNames] = None,
    prune: bool = True,
) -> list[SymHeap]:
    """One SymHeap per body disjunct of ``inst``, existentials freshened.

    With prune=True, disjuncts whose pure part is unsatisfiable are dropped.
    """
    table = preds if preds is not None else fm.builtin_preds()
    d = lookup_pred(table, inst.name, len(inst.args))
    if inst not in h.spatial:
        raise UnknownPredicateError(f"predicate instance not present: {inst.name}")
    base = h.without(inst)
    cases = [base.star(c) for c in pred_cases(d, inst.args, fresh or FreshNames(), skolemize=True)]
    return [c for c in cases if not prune or c.consistent()]


def lookup_pred(preds: dict[str, fm.PredDef], name: str, arity: int) -> fm.PredDef:
    """The definition of ``name``; an unknown name or a wrong arity raises."""
    d = preds.get(name)
    if d is None:
        raise UnknownPredicateError(f"unknown predicate '{name}'")
    if len(d.params) != arity:
        raise UnknownPredicateError(f"predicate '{name}' takes {len(d.params)} arguments, got {arity}")
    return d


def pred_cases(d: fm.PredDef, args: tuple, fresh: FreshNames, skolemize: bool) -> list[SymHeap]:
    """``formula_to_symheaps`` of ``d``'s body with its formals replaced by
    ``args``: the body's cases, converted once with placeholder binders and
    kept on ``d``, under one simultaneous substitution of the formals and of
    the binders, by fresh names drawn in the same order."""
    cases = d.__dict__.get("_cases")
    if cases is None:
        # placeholders start with a prefix longer than any free name of ``d``
        prefix = "#" * max(map(len, {*d.params, *fm.free_vars(d.body)}), default=0)
        cases = d.__dict__["_cases"] = [
            (h, sorted(h.existentials, key=lambda v: int(v[len(prefix) + 2:])))
            for h in formula_to_symheaps(d.body, FreshNames(prefix))
        ]
    out, sub = [], fm.substitute_expr
    for heap, binders in cases:
        names = [fresh.var("e") for _ in binders]
        m = dict(zip((*d.params, *binders), (*args, *map(fm.Var, names))))
        pure = PureSet(tuple((op, sub(l, m), sub(r, m)) for op, l, r in heap.pure.atoms))
        spatial = tuple(fm.substitute(a, m) for a in heap.spatial)
        out.append(SymHeap(pure, spatial, frozenset() if skolemize else frozenset(names)))
    return out
