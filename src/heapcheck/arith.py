"""Decision procedure for the pure part of symbolic heaps.

Sound but deliberately incomplete: congruence closure over equalities, a
disequality table, and a sparse graph of unit-coefficient difference
constraints (x - y <= c) over the congruence classes.  One Bellman-Ford pass
from a virtual source finds negative cycles and feasible potentials; forced
equalities are then single-source Dijkstra runs on reduced costs (Cotton &
Maler, SAT 2006).  Everything outside that fragment degrades to Unknown,
never to a wrong verdict.  Sat answers always carry a verified witness.

Each ``PureSet`` makes its solver once, on first use, and keeps it.  A set
derived from another (``add``, ``extend``, ``grown``) makes it by copying
the solver its parent has built and asserting only the new atoms and
locations, the way an incremental congruence closure extends its store
(Nieuwenhuis & Oliveras, "Fast Congruence Closure and Extensions", I&C
2007); ``entails`` checks the negated atom on a one-step copy and drops it.
There is no undo trail: a copy of the tables is the whole mechanism.  The
separation of a heap's points-to locations arrives as the set's
``separated`` tuple (pairwise distinct, none nil) instead of O(n^2)
disequality atoms.  A ``ClassIndex`` groups terms by their class under one
set, so callers look a term up instead of scanning with ``equal``.

Every sum has one normal form, a constant plus a sum of coefficient × leaf
(``linear_form``), and is keyed by it: ``(y+1)+1`` and ``y+2`` are one term
to the solver, and ``simplify_expr`` rebuilds a value from it.  This is the
canonizer of Shostak ("Deciding Combinations of Theories", JACM 1984) for
linear arithmetic.
"""

from __future__ import annotations

import heapq
import operator
from itertools import combinations, count
from typing import Optional

from .formula import (
    NEGATED_CMP,
    ArithExpr,
    IntLit,
    Nil,
    Record,
    SymExpr,
    Var,
)
from .records import Frozen, record

SAT, UNSAT, UNKNOWN = "sat", "unsat", "unknown"
YES, NO = "yes", "no"

_INF = float("inf")

PureAtomT = tuple[str, SymExpr, SymExpr]  # (op, left, right)


def canon_key(e: SymExpr):
    """Hashable canonical key: the key of an arithmetic expression is that of
    its linear form, so nil keys as 0 and ``x+0`` as ``x``."""
    if isinstance(e, IntLit):
        return ("int", e.value)
    if isinstance(e, Nil):
        return ("int", 0)
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, ArithExpr):
        return _form_key(*linear_form(e))
    if isinstance(e, Record):
        # an untagged record keys as tag "", so every key orders against every other
        return ("rec", e.tag or "", tuple(sorted((n, canon_key(v)) for n, v in e.fields)))
    raise TypeError(f"unknown expression {e!r}")


def linear_form(e: SymExpr, ctx: Optional[PureSet] = None) -> tuple[int, dict]:
    """``e`` as a constant plus a sum of coefficient × leaf:
    ``(c, {leaf key: (coefficient, leaf)})``, with no zero coefficient.

    A leaf is a variable, a record, or a product of two factors that are
    not constants, each factor rebuilt from its own form.  A variable that
    ``ctx`` pins to a constant folds into ``c``.  Sums are walked with a
    stack, so a long chain does not recurse.
    """
    const, terms = 0, {}
    todo = [(1, e)]
    while todo:
        k, e = todo.pop()
        if isinstance(e, IntLit):
            const += k * e.value
        elif isinstance(e, ArithExpr) and e.op != "*":
            todo.append((k, e.left))
            todo.append((-k if e.op == "-" else k, e.right))
        elif isinstance(e, ArithExpr):
            (lc, lt), (rc, rt) = linear_form(e.left, ctx), linear_form(e.right, ctx)
            if not lt or not rt:
                const += k * lc * rc
                scale, other = (lc, rt) if not lt else (rc, lt)
                for key, (a, leaf) in other.items():
                    _add(terms, key, k * scale * a, leaf)
                continue
            fa, fb = (lc, lt), (rc, rt)
            ka, kb = _form_key(*fa), _form_key(*fb)
            if kb < ka:
                (ka, fa), (kb, fb) = (kb, fb), (ka, fa)
            _add(terms, ("*", ka, kb), k, ArithExpr("*", _rebuild(*fa), _rebuild(*fb)))
        elif not isinstance(e, Nil):
            pinned = None
            if ctx is not None and isinstance(e, Var):
                pinned = ctx.const_of(e)
            if pinned is None:
                _add(terms, canon_key(e), k, e)
            else:
                const += k * pinned
    return const, {key: t for key, t in terms.items() if t[0]}


def _add(terms: dict, key, a: int, leaf: SymExpr) -> None:
    old = terms.get(key)
    terms[key] = (a, leaf) if old is None else (old[0] + a, old[1])


def _form_key(const: int, terms: dict):
    if not terms:
        return ("int", const)
    if const == 0 and len(terms) == 1:
        ((key, (a, _)),) = terms.items()
        if a == 1:
            return key
    return ("+", const, tuple(sorted((key, a) for key, (a, _) in terms.items())))


def _rebuild(const: int, terms: dict) -> SymExpr:
    """The expression of a linear form: leaves in key order, those with a
    positive coefficient first, then the constant."""
    items = sorted(terms.items())
    pos = [_scaled(a, leaf) for _, (a, leaf) in items if a > 0]
    neg = [_scaled(-a, leaf) for _, (a, leaf) in items if a < 0]
    if not pos:
        pos, const = [IntLit(max(const, 0))], min(const, 0)
    out = pos[0]
    for term in pos[1:]:
        out = ArithExpr("+", out, term)
    for term in neg:
        out = ArithExpr("-", out, term)
    if const:
        out = ArithExpr("+" if const > 0 else "-", out, IntLit(abs(const)))
    return out


def _scaled(a: int, leaf: SymExpr) -> SymExpr:
    return leaf if a == 1 else ArithExpr("*", IntLit(a), leaf)


class lazy:
    """A per-instance memo like ``functools.cached_property``, without the
    lock that Python 3.11 takes on each first access: pure sets and heaps
    are built and read by one thread, and most are read only a few times.
    It writes the instance dict directly, so it works on frozen records."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@record
class SatResult(Frozen):
    status: str
    witness: Optional[dict[str, int]] = None


class _Graph:
    """Sparse difference-constraint graph over the representatives of one
    solver version, with feasible potentials from a single Bellman-Ford pass."""

    def __init__(self, solver: "_Solver"):
        find = solver.find
        self.index: dict = {}  # representative -> node number
        weights: dict[tuple[int, int], int] = {}

        def edge(y, x, c: int) -> None:
            # x - y <= c: edge y -> x with weight c
            u = self.index.setdefault(y, len(self.index))
            v = self.index.setdefault(x, len(self.index))
            if c < weights.get((u, v), _INF):
                weights[(u, v)] = c

        for x, y, c in solver.edges:
            edge(find(y), find(x), c)
        # pinned constants are mutual offsets from the zero node
        if solver.ZERO in solver.parent:
            zero = find(solver.ZERO)
            for key, cval in solver.const.items():
                r = find(key)
                if r != zero:
                    edge(zero, r, cval)
                    edge(r, zero, -cval)
        n = len(self.index)
        self.reps = list(self.index)  # node number -> representative
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), c in weights.items():
            self.adj[u].append((v, c))
        # a virtual source with 0-weight edges to every node: its distances
        # are the potentials, and relaxation that never settles is a
        # negative cycle
        pot = [0] * n
        changed = True
        for _ in range(n + 1):
            changed = False
            for u in range(n):
                pu = pot[u]
                for v, c in self.adj[u]:
                    if pu + c < pot[v]:
                        pot[v] = pu + c
                        changed = True
            if not changed:
                break
        self.negative_cycle = changed
        self.pot = pot
        self._dist: dict[int, dict[int, int]] = {}

    def potential(self, rep) -> int:
        """Distance from the virtual source; 0 for a class no edge touches."""
        i = self.index.get(rep)
        return 0 if i is None else self.pot[i]

    def dist_from(self, u: int) -> dict[int, int]:
        """Shortest distances from node u (Dijkstra on reduced costs)."""
        memo = self._dist.get(u)
        if memo is not None:
            return memo
        pot, adj = self.pot, self.adj
        reduced = {u: 0}
        queue = [(0, u)]
        while queue:
            d, w = heapq.heappop(queue)
            if d > reduced[w]:
                continue
            for v, c in adj[w]:
                nd = d + c + pot[w] - pot[v]
                if nd < reduced.get(v, _INF):
                    reduced[v] = nd
                    heapq.heappush(queue, (nd, v))
        memo = {v: d - pot[u] + pot[v] for v, d in reduced.items()}
        self._dist[u] = memo
        return memo

    def forced_equal(self, ra, rb) -> bool:
        """Bounds close at 0 in both directions between two representatives."""
        i, j = self.index.get(ra), self.index.get(rb)
        if i is None or j is None:
            return False
        return self.dist_from(i).get(j) == 0 and self.dist_from(j).get(i) == 0

    def forced_class(self, rep) -> list:
        """``rep`` and every representative ``forced_equal`` to it."""
        i = self.index[rep]
        pot = self.pot
        # a class forced equal to rep lies on a cycle of edges whose reduced
        # cost is 0, so without such an edge out of rep there is none
        if all(v == i or c + pot[i] - pot[v] for v, c in self.adj[i]):
            return [rep]
        return [rep] + [
            self.reps[j]
            for j, d in self.dist_from(i).items()
            if d == 0 and j != i and self.dist_from(j).get(i) == 0
        ]


def _children(key) -> tuple:
    """The keys a composite key is built from; () for a leaf or a constant."""
    tag = key[0]
    if tag == "*":
        return key[1:]
    if tag == "+":
        return tuple(k for k, _ in key[2])
    if tag == "rec":
        return tuple(vk for _, vk in key[2])
    return ()


_VERSIONS = count(1)


class _Solver:
    """Congruence closure + difference-constraint graph for one pure set.

    A solver is only ever grown: ``_Solver(atoms, separated, base)`` copies
    the tables of ``base`` (or starts from empty ones) and asserts ``atoms``
    and ``separated`` after everything ``base`` asserted.  ``base`` itself
    is left as it was.

    Queries may intern new terms; ``version`` moves on the unions and new
    constants that change the classes or the graph, to a number no other
    solver state has had, so two solvers at one version have the same
    classes for the terms they share.  The graph is rebuilt when the version
    or the number of edges moves.
    """

    ZERO = ("int", 0)

    def __init__(
        self,
        atoms: tuple[PureAtomT, ...],
        separated: tuple[SymExpr, ...],
        base: Optional["_Solver"] = None,
    ):
        if base is None:
            self.atoms: tuple[PureAtomT, ...] = ()
            self.separated: tuple[SymExpr, ...] = ()
            self.parent: dict = {}
            self.const: dict = {}  # rep -> pinned integer
            self.sig: dict = {}  # (functor-ish, child reps) -> rep
            self.parents_of: dict = {}  # rep -> set of composite keys using it
            self.contradiction = False
            self.diseqs: list[tuple] = []
            self.sep_keys: list = []
            self.sep_reps: tuple[int, set] = (0, set())  # (version, reps of sep_keys)
            self.edges: list[tuple] = []  # (x, y, c) meaning x - y <= c, over keys
            self.version = next(_VERSIONS)
            self._graph_memo: Optional[tuple[tuple[int, int], _Graph]] = None
        else:
            self.atoms, self.separated = base.atoms, base.separated
            self.parent = base.parent.copy()
            self.const = base.const.copy()
            self.sig = base.sig.copy()
            self.parents_of = {rep: set(keys) for rep, keys in base.parents_of.items()}
            self.contradiction = base.contradiction
            self.diseqs = base.diseqs.copy()
            self.sep_keys = base.sep_keys.copy()
            self.sep_reps = base.sep_reps  # replaced, never changed in place
            self.edges = base.edges.copy()
            self.version = base.version
            self._graph_memo = base._graph_memo  # a graph is never changed once built
        self._assert(atoms, separated)

    # union-find ------------------------------------------------------------

    def _intern(self, key) -> None:
        if key in self.parent:
            return
        self.parent[key] = key
        if key[0] == "int":
            self.const[key] = key[1]
            self.version = next(_VERSIONS)
            return
        children = _children(key)
        if children:
            for ch in children:
                self._intern(ch)
                self.parents_of.setdefault(self.find(ch), set()).add(key)
            self._update_sig(key)

    def _signature(self, key):
        tag, find = key[0], self.find
        if tag == "*":
            return ("*", find(key[1]), find(key[2]))
        if tag == "+":
            return ("+", key[1], tuple((find(k), a) for k, a in key[2]))
        return ("rec", key[1], tuple((n, find(vk)) for n, vk in key[2]))

    def _update_sig(self, key) -> None:
        sig = self._signature(key)
        other = self.sig.get(sig)
        if other is None:
            self.sig[sig] = key
        elif self.find(other) != self.find(key):
            self._union(other, key)

    def find(self, key):
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def _union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        ca, cb = self.const.get(ra), self.const.get(rb)
        if ca is not None and cb is not None and ca != cb:
            self.contradiction = True
            return
        # keep constants as representatives so const lookups stay O(1)
        if cb is None and ca is not None:
            ra, rb = rb, ra
        self.parent[ra] = rb
        self.version = next(_VERSIONS)
        if self.const.get(ra) is not None:
            self.const[rb] = self.const[ra]
        moved = self.parents_of.pop(ra, set())
        self.parents_of.setdefault(rb, set()).update(moved)
        for composite in list(moved | self.parents_of.get(rb, set())):
            self._update_sig(composite)

    # construction ------------------------------------------------------------

    def _assert(self, atoms: tuple[PureAtomT, ...], separated: tuple[SymExpr, ...]) -> None:
        self.atoms += atoms
        self.separated += separated
        if self.contradiction:
            return
        version, n_diseqs, n_seps = self.version, len(self.diseqs), len(self.sep_keys)
        for op, l, r in atoms:
            lk, rk = canon_key(l), canon_key(r)
            self._intern(lk)
            self._intern(rk)
            if op == "==":
                self._union(lk, rk)
            elif op == "!=":
                self.diseqs.append((lk, rk))
            self._add_linear(op, l, r)
            if self.contradiction:
                return
        for loc in separated:
            key = canon_key(loc)
            self._intern(key)
            self._intern(self.ZERO)
            self.sep_keys.append(key)
        # once classes have moved, every disequality and location is checked
        # again; otherwise only the new ones
        moved = self.version != version
        for lk, rk in self.diseqs if moved else self.diseqs[n_diseqs:]:
            if self.find(lk) == self.find(rk):
                self.contradiction = True
                return
        if moved or self.sep_reps[0] != version:
            self._separate(self.sep_keys, set())
        elif len(self.sep_keys) > n_seps:
            self._separate(self.sep_keys[n_seps:], set(self.sep_reps[1]))

    def _separate(self, keys: list, reps: set) -> None:
        """Add the classes of ``keys`` to ``reps``, the classes of the other
        separated locations; a shared class or the zero class contradicts."""
        zero = self.find(self.ZERO) if keys else None
        for key in keys:
            rep = self.find(key)
            if rep in reps or rep == zero:
                self.contradiction = True
                return
            reps.add(rep)
        self.sep_reps = (self.version, reps)

    def _add_linear(self, op: str, l: SymExpr, r: SymExpr) -> None:
        const, terms = linear_form(ArithExpr("-", l, r))
        coeffs = {k: a for k, (a, _) in terms.items()}
        # normalize to: coeffs + const OP 0
        bounds = {"<": -1 - const, "<=": -const, "==": -const}
        if op in ("<", "<=", "=="):
            self._add_diff(coeffs, bounds[op])
            if op == "==":
                self._add_diff({k: -c for k, c in coeffs.items()}, const)
        elif op in (">", ">="):
            flipped = {k: -c for k, c in coeffs.items()}
            self._add_diff(flipped, const - 1 if op == ">" else const)
        elif op == "!=" and not coeffs and const == 0:
            self.contradiction = True

    def _add_diff(self, coeffs: dict, c: int) -> None:
        """Record sum(coeffs) <= c when it is a difference constraint; other
        linear constraints stay outside the graph and are checked only
        through the witness."""
        if not coeffs:
            if 0 > c:
                self.contradiction = True
            return
        items = sorted(coeffs.items())
        if len(items) == 1:
            (k, a) = items[0]
            if a == 1:
                self.edges.append((k, self.ZERO, c))
                self._intern(k)
                self._intern(self.ZERO)
            elif a == -1:
                self.edges.append((self.ZERO, k, c))
                self._intern(k)
                self._intern(self.ZERO)
        elif len(items) == 2:
            (k1, a1), (k2, a2) = items
            if a1 == 1 and a2 == -1:
                self.edges.append((k1, k2, c))
            elif a1 == -1 and a2 == 1:
                self.edges.append((k2, k1, c))
            else:
                return
            self._intern(k1)
            self._intern(k2)

    # difference graph ----------------------------------------------------------

    def _graph(self) -> _Graph:
        at = (self.version, len(self.edges))
        if self._graph_memo is None or self._graph_memo[0] != at:
            self._graph_memo = (at, _Graph(self))
        return self._graph_memo[1]

    def unsat(self) -> bool:
        """Whether ``check`` answers UNSAT; it builds no witness."""
        if self.contradiction:
            return True
        graph = self._graph()
        if graph.negative_cycle:
            return True
        for lk, rk in self.diseqs:
            ra, rb = self.find(lk), self.find(rk)
            if ra == rb or graph.forced_equal(ra, rb):
                return True
        if self.sep_keys:
            reps = {self.find(k) for k in self.sep_keys}
            zero = self.find(self.ZERO)
            if len(reps) < len(self.sep_keys) or zero in reps:
                return True
            # only representatives that an edge touches can be forced equal
            touched = [r for r in reps | {zero} if r in graph.index]
            return any(graph.forced_equal(a, b) for a, b in combinations(touched, 2))
        return False

    def check(self) -> SatResult:
        if self.unsat():
            return SatResult(UNSAT)
        witness = self._witness(self._graph())
        return SatResult(UNKNOWN) if witness is None else SatResult(SAT, witness)

    def provably_equal(self, lk, rk) -> bool:
        # interning is monotone: it extends the congruence closure with the
        # queried terms without changing satisfiability
        self._intern(lk)
        self._intern(rk)
        if self.contradiction:
            return True  # inconsistent context proves anything
        ra, rb = self.find(lk), self.find(rk)
        if ra == rb:
            return True
        graph = self._graph()
        # without feasible potentials the bounds force nothing this procedure
        # can read off; check() reports the negative cycle as unsat
        return not graph.negative_cycle and graph.forced_equal(ra, rb)

    # witness construction ----------------------------------------------------

    def _witness(self, graph: _Graph) -> Optional[dict[str, int]]:
        reps = {self.find(k) for k in self.parent}
        if not reps:
            return {} if self._verify({}) else None
        zero = self.find(self.ZERO) if self.ZERO in self.parent else None
        shift = graph.potential(zero)
        values = {r: graph.potential(r) - shift for r in reps}
        for r in reps:
            if self.const.get(r) is not None:
                values[r] = self.const[r]
        if self._try(values):
            return self._assignment(values)
        # spread classes that no difference edge touches to break collisions,
        # in the order of their least member: which member represents a
        # class depends on the order its equalities came in
        touched = {self.find(k) for x, y, _ in self.edges for k in (x, y)}
        if zero is not None:
            touched.add(zero)
        least: dict = {}
        for key in self.parent:
            r = self.find(key)
            if r not in touched and (r not in least or key < least[r]):
                least[r] = key
        spread = dict(values)
        step = 1_000_003
        for i, r in enumerate(sorted(least, key=least.__getitem__)):
            if self.const.get(r) is None:
                spread[r] = step * (i + 1)
        if self._try(spread):
            return self._assignment(spread)
        return None

    def _assignment(self, values: dict) -> dict[str, int]:
        out = {}
        for key in self.parent:
            if key[0] == "var":
                out[key[1]] = values[self.find(key)]
        return out

    def _try(self, values: dict) -> bool:
        env = {}
        for key in self.parent:
            if key[0] in ("var", "rec"):
                env[key] = values[self.find(key)]
        return self._verify(env)

    def _verify(self, env: dict) -> bool:
        for op, l, r in self.atoms:
            lv, rv = _eval_key(l, env), _eval_key(r, env)
            if lv is None or rv is None:
                return False
            if not _CMP[op](lv, rv):
                return False
        locs = [_eval_key(loc, env) for loc in self.separated]
        if None in locs or 0 in locs:
            return False
        return len(set(locs)) == len(locs)


def _eval_key(e: SymExpr, env: dict) -> Optional[int]:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Nil):
        return 0
    if isinstance(e, (Var, Record)):
        return env.get(canon_key(e))
    if isinstance(e, ArithExpr):
        l, r = _eval_key(e.left, env), _eval_key(e.right, env)
        if l is None or r is None:
            return None
        return l + r if e.op == "+" else l - r if e.op == "-" else l * r
    return None


_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# --------------------------------------------------------------------------
# public immutable pure-constraint sets
# --------------------------------------------------------------------------


@record
class PureSet(Frozen):
    """A conjunction of comparison atoms.

    ``separated`` holds locations known to be pairwise distinct and non-nil
    (the points-to locations of a heap) without spelling out their O(n^2)
    disequalities.  The solver is made on first use and kept on the set.  A
    set derived from another (``add``, ``extend``, ``grown``) makes its
    solver by extending the one its parent has built, asserting only what is
    new; until then it holds that built solver, never an unbuilt parent.
    """

    atoms: tuple[PureAtomT, ...] = ()
    separated: tuple[SymExpr, ...] = ()

    def add(self, op: str, left: SymExpr, right: SymExpr) -> "PureSet":
        return self.grown(self.atoms + ((op, left, right),), self.separated)

    def extend(self, more: "PureSet") -> "PureSet":
        return self.grown(self.atoms + more.atoms, self.separated + more.separated)

    def grown(self, atoms: tuple[PureAtomT, ...], separated: tuple[SymExpr, ...]) -> "PureSet":
        """The set of ``atoms`` and ``separated``, which start with this
        set's own; its solver will extend this set's."""
        child = PureSet(atoms, separated)
        memo = self.__dict__
        base = memo.get("_solver") or memo.get("_base")
        if base is not None:
            child.__dict__["_base"] = base
        return child

    @lazy
    def _solver(self) -> _Solver:
        base = self.__dict__.pop("_base", None)
        if base is None:
            return _Solver(self.atoms, self.separated)
        return _Solver(self.atoms[len(base.atoms):], self.separated[len(base.separated):], base)

    def check_sat(self) -> SatResult:
        return self._solver.check()

    def unsat(self) -> bool:
        """``check_sat().status == UNSAT``, without the witness."""
        return self._solver.unsat()

    def entails(self, op: str, left: SymExpr, right: SymExpr) -> str:
        """yes / no / unknown for this set entailing the comparison atom: the
        negated atom is checked on a copy of this set's solver, then dropped."""
        status = _Solver(((NEGATED_CMP[op], left, right),), (), self._solver).check().status
        return YES if status == UNSAT else NO if status == SAT else UNKNOWN

    def equal(self, a: SymExpr, b: SymExpr) -> bool:
        """Provable equality (congruence or zero-weight constraint cycle)."""
        ka, kb = canon_key(a), canon_key(b)
        if ka == kb:
            return True
        return self._solver.provably_equal(ka, kb)

    def distinct(self, a: SymExpr, b: SymExpr) -> bool:
        return self.entails("!=", a, b) == YES

    def const_of(self, e: SymExpr) -> Optional[int]:
        key = canon_key(e)
        if key[0] == "int":
            return key[1]
        solver = self._solver
        if key not in solver.parent:
            return None
        return solver.const.get(solver.find(key))


class ClassIndex:
    """Tags of expressions by the solver class of each expression under one
    pure set.

    ``find(e)`` returns, sorted, the tags of exactly the expressions that
    ``PureSet.equal`` proves equal to ``e``: its congruence class, classes
    that bounds force equal to it, and every expression when the set is
    contradictory.  Entries come in tag order.  The table is built on the
    first ``find``.  Representatives move only when classes merge, which
    moves the solver's ``version``; the table is then rebuilt.  An index
    made by ``grown`` starts its table from its parent's while the solver is
    still at the version that table was built at.  It keeps only that table,
    not the parent index, so it does not hold the parent's solver.
    """

    def __init__(self, pure: PureSet, entries: list[tuple[SymExpr, object]]):
        self._pure = pure
        self._entries = entries
        self._version = -1
        self._by_class: dict = {}  # representative -> tags
        # (version, table, number of entries) of the parent's built table
        self._base: Optional[tuple[int, dict, int]] = None

    def grown(self, pure: PureSet, more: list[tuple[SymExpr, object]]) -> "ClassIndex":
        """An index of this index's entries and then ``more`` under ``pure``,
        whose solver extends this index's."""
        index = ClassIndex(pure, self._entries + more if more else self._entries)
        if self._version >= 0:
            index._base = (self._version, self._by_class, len(self._entries))
        else:
            index._base = self._base
        return index

    def first(self, e: SymExpr) -> Optional[int]:
        """The first tag of ``find(e)``.  Like ``PureSet.equal``, it needs no
        solver when ``e`` is the first entry's own term."""
        if not self._entries:
            return None
        head, tag = self._entries[0]
        if canon_key(head) == canon_key(e):
            return tag
        found = self.find(e)
        return found[0] if found else None

    def find(self, e: SymExpr) -> list:
        if not self._entries:
            return []
        key = canon_key(e)
        solver = self._pure._solver
        solver._intern(key)
        # interning the entries can itself merge classes
        while self._version != solver.version:
            self._version = solver.version
            self._by_class = self._table(solver)
        if solver.contradiction:
            return sorted(t for tags in self._by_class.values() for t in tags)
        rep = solver.find(key)
        graph = solver._graph()
        if graph.negative_cycle or rep not in graph.index:
            return self._by_class.get(rep, [])
        return sorted(t for r in graph.forced_class(rep) for t in self._by_class.get(r, ()))

    def _table(self, solver: _Solver) -> dict:
        base, self._base = self._base, None
        if base is None or base[0] != solver.version:
            return _classes(solver, self._entries)
        _, table, n = base
        # the base's tag lists are shared, so a class that gains a tag gets a new list
        by_class = table.copy()
        for rep, tags in _classes(solver, self._entries[n:]).items():
            by_class[rep] = by_class.get(rep, []) + tags
        return by_class


def _classes(solver: _Solver, entries: list) -> dict:
    """The tags of ``entries`` by the class of each entry's term."""
    by_class: dict = {}
    for e, tag in entries:
        key = canon_key(e)
        solver._intern(key)
        by_class.setdefault(solver.find(key), []).append(tag)
    return by_class


# --------------------------------------------------------------------------
# expression simplification
# --------------------------------------------------------------------------


def simplify_expr(e: SymExpr, ctx: Optional[PureSet] = None) -> SymExpr:
    """``e`` in normal form, in one pass: the constants ``ctx`` pins folded in,
    then its linear form rebuilt in canonical order."""
    return _rebuild(*linear_form(e, ctx))
