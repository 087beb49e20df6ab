"""Layer tracing from outside the package.

``Tracer.install`` replaces public functions of each heapcheck layer with
wrappers that record a span (layer, start, end, parent) in memory. A name is
patched in every heapcheck module that holds it, because callers import
functions by name (``symexec`` binds ``prove`` and ``simplify_expr``
directly). While a module-level function runs, its home module binding points
back at the original, so self-recursion (``formula.pretty``,
``termir.term_to_formula``) records one span per outermost call and adds no
stack depth.

Self time of a span is its duration minus the time its child spans cover.
Spans are reduced to per-layer totals after each input and then dropped.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (layer, module, qualified name); a dotted name is a method on a class
TRACED = (
    ("cli", "heapcheck.cli", "main"),
    ("lexer", "heapcheck.lexer", "tokenize"),
    ("parser", "heapcheck.parser", "parse_program"),
    ("parser", "heapcheck.parser", "parse_assertion"),
    ("termir.lower", "heapcheck.termir", "lower_program"),
    ("termir.parse_term", "heapcheck.termir", "parse_term"),
    ("termir", "heapcheck.termir", "term_to_formula"),
    ("termir", "heapcheck.termir", "emit_text"),
    ("symexec", "heapcheck.symexec", "verify_program_term"),
    ("entail", "heapcheck.entail", "prove"),
    ("entail", "heapcheck.entail", "infer_frame"),
    ("entail", "heapcheck.entail", "formula_to_symheaps"),
    ("entail", "heapcheck.entail", "unfold"),
    ("arith", "heapcheck.arith", "simplify_expr"),
    *(("arith", "heapcheck.arith", f"PureSet.{m}")
      for m in ("add", "extend", "check_sat", "entails", "equal", "distinct", "const_of")),
    ("formula", "heapcheck.formula", "pretty"),
    ("formula", "heapcheck.entail", "SymHeap.pretty"),
)


def term_nodes(t) -> int:
    """Number of nodes in a heapcheck term tree."""
    n, work = 0, [t]
    while work:
        cur = work.pop()
        n += 1
        work.extend(getattr(cur, "args", ()) or getattr(cur, "items", ()))
    return n


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (layer, start, end, parent index)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.atoms: Counter = Counter()  # len(PureSet.atoms) at each arith call
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, modname, qual in TRACED:
            mod = sys.modules[modname]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(layer, qual, orig, None))
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(layer, qual, orig, mod)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("heapcheck") and \
                        getattr(other, qual, None) is orig:
                    self._set(other, qual, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer: str, qual: str, orig, home):
        spans, stack, counts, atoms = self.spans, self.stack, self.counts, self.atoms
        is_arith_method = qual.startswith("PureSet.")

        def traced(*args, **kwargs):
            if is_arith_method:
                atoms[len(args[0].atoms)] += 1
            counts[qual] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if home is not None:
                outer = getattr(home, qual)
                setattr(home, qual, orig)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                if home is not None:
                    setattr(home, qual, outer)
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            _count_result(counts, qual, result)
            return result

        return traced

    # -- reduction -----------------------------------------------------------

    def take(self) -> tuple[dict[str, float], Counter, Counter]:
        """Per-layer self time of the spans recorded so far, the call and
        result counts, and the arith atom-size histogram; then reset."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = {}
        for i, (layer, start, end, _) in enumerate(self.spans):
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child[i]
        counts, atoms = self.counts.copy(), self.atoms.copy()
        self.spans.clear()
        self.counts.clear()
        self.atoms.clear()
        return self_time, counts, atoms


def _count_result(counts: Counter, qual: str, result) -> None:
    if qual == "tokenize":
        counts["tokens"] += len(result)
    elif qual in ("lower_program", "parse_term"):
        counts["term_nodes"] += term_nodes(result)
    elif qual == "formula_to_symheaps":
        counts["symheaps"] += len(result)
    elif qual == "prove" and type(result).__name__ == "Proved":
        counts["proved"] += 1
