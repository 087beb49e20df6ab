"""Proof trees: rule-application records built during entailment and symbolic
execution, exportable as DOT graphs and as a JSON structure that round-trips.

Each exporter writes its text in one pre-order pass from an explicit stack, so
no export recurses on tree depth.  The JSON bytes are those of
``json.dumps(..., indent=1)`` with ``ensure_ascii``.  A label is still
rendered once, on its first read.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

from .records import Frozen, field, record

OK, FAILED, PRUNED = "ok", "failed", "pruned"

# a node label: its text, or a zero-argument callable that renders it
Label = Union[str, Callable[[], str]]


@record
class ProofNode:
    """One rule application.  ``input`` is the printed summary of what the
    rule was applied to.  A node that ``ProofBuilder.node`` makes from a
    callable label has no ``input`` until it is first read: the read renders
    the label and keeps the text, so a tree pays for its text only when it
    is exported or printed, and only once."""

    id: int
    rule: str
    input: str
    outcome: str
    children: list["ProofNode"] = field(default_factory=list)

    def __getattr__(self, name: str) -> str:
        # reached only for an attribute the instance lacks: here, the input
        # of a node whose label is not rendered yet.  Attribute operations,
        # not ``__dict__``, keep the instance's attributes in the layout that
        # all nodes share.
        if name != "input":
            raise AttributeError(f"'ProofNode' object has no attribute {name!r}", name=name, obj=self)
        self.input = text = self._render()
        del self._render
        return text

    def walk(self) -> Iterator["ProofNode"]:
        """The nodes in pre-order, from an explicit stack."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack += reversed(n.children)


@record
class ProofTree:
    root: ProofNode


class ProofBuilder:
    """Allocates node ids in application order, keeping trees deterministic."""

    def __init__(self) -> None:
        self._next = 0

    def node(
        self,
        rule: str,
        input_summary: Label,
        outcome: str = OK,
        children: Optional[list[ProofNode]] = None,
    ) -> ProofNode:
        n = ProofNode(self._next, rule, input_summary, outcome, list(children or []))
        if not isinstance(input_summary, str):
            # a callable label: the first read of ``input`` renders it
            n._render = input_summary
            del n.input
        self._next += 1
        return n


@record
class DotOptions(Frozen):
    """Rendering options: 'rule' labels nodes by rule name only, 'full' adds
    the printed input summary."""

    verbosity: str = "full"
    graph_name: str = "proof"


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_STYLE = {FAILED: ', style=filled, fillcolor="#f8d0d0"', PRUNED: ", style=dashed"}


def to_dot(tree: ProofTree, opts: DotOptions = DotOptions()) -> str:
    """One pre-order pass: node lines, then edge lines, each in pre-order."""
    lines = [f"digraph {opts.graph_name} {{", "  node [shape=box];"]
    edges = []
    full = opts.verbosity != "rule"
    stack = [tree.root]
    while stack:
        n = stack.pop()
        text = n.input if full else ""
        label = _esc(f"{n.rule}\n{text}" if text else n.rule)
        lines.append(f'  n{n.id} [label="{label}"{_STYLE.get(n.outcome, "")}];')
        if n.children:
            edges += [f"  n{n.id} -> n{c.id};" for c in n.children]
            stack += reversed(n.children)
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_structured(tree: ProofTree) -> str:
    """Machine-readable export; ``read_structured`` is its inverse.  Writes
    ``json.dumps(<the tree as dicts>, indent=1)`` and a newline in one pass."""
    # json.dumps's string encoder under ensure_ascii; json loads on export only
    from json.encoder import encode_basestring_ascii as enc

    out = []
    # (text before the node, node at tree depth k), or (closing text, None, 0)
    stack = [("", tree.root, 0)]
    while stack:
        lead, n, k = stack.pop()
        out.append(lead)
        if n is None:
            continue
        pad = "\n" + " " * (2 * k + 1)  # a newline and the indent of n's keys
        out.append(f'{{{pad}"id": {n.id},{pad}"rule": {enc(n.rule)},{pad}"input": {enc(n.input)},'
                   f'{pad}"outcome": {enc(n.outcome)},{pad}"children": ')
        end = pad[:-1] + "}"
        if n.children:
            item = pad + " "
            stack.append((pad + "]" + end, None, 0))
            stack += [("," + item, c, k + 1) for c in reversed(n.children)]
            stack[-1] = ("[" + item, n.children[0], k + 1)
        else:
            out.append("[]" + end)
    out.append("\n")
    return "".join(out)


def _node_from(d: dict) -> ProofNode:
    return ProofNode(
        int(d["id"]),
        str(d["rule"]),
        str(d["input"]),
        str(d["outcome"]),
        [_node_from(c) for c in d.get("children", [])],
    )


def read_structured(text: str) -> ProofTree:
    """Recursive on tree depth, as ``json.loads`` itself recurses (in C)."""
    import json

    return ProofTree(_node_from(json.loads(text)))
