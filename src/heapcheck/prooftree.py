"""Proof trees: rule-application records built during entailment and symbolic
execution, exportable as DOT graphs and as a JSON structure that round-trips.
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
        yield self
        for c in self.children:
            yield from c.walk()


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


def to_dot(tree: ProofTree, opts: DotOptions = DotOptions()) -> str:
    lines = [f"digraph {opts.graph_name} {{", "  node [shape=box];"]
    for n in tree.root.walk():
        text = "" if opts.verbosity == "rule" else n.input
        label = f"{n.rule}\n{text}" if text else n.rule
        attrs = f'label="{_esc(label)}"'
        if n.outcome == FAILED:
            attrs += ', style=filled, fillcolor="#f8d0d0"'
        elif n.outcome == PRUNED:
            attrs += ', style=dashed'
        lines.append(f"  n{n.id} [{attrs}];")
    for n in tree.root.walk():
        for c in n.children:
            lines.append(f"  n{n.id} -> n{c.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_dict(n: ProofNode) -> dict:
    return {
        "id": n.id,
        "rule": n.rule,
        "input": n.input,
        "outcome": n.outcome,
        "children": [_node_dict(c) for c in n.children],
    }


def to_structured(tree: ProofTree) -> str:
    """Machine-readable export; ``read_structured`` is its inverse."""
    import json  # imported here, as only the structured export uses it

    return json.dumps(_node_dict(tree.root), indent=1) + "\n"


def _node_from(d: dict) -> ProofNode:
    return ProofNode(
        int(d["id"]),
        str(d["rule"]),
        str(d["input"]),
        str(d["outcome"]),
        [_node_from(c) for c in d.get("children", [])],
    )


def read_structured(text: str) -> ProofTree:
    import json

    return ProofTree(_node_from(json.loads(text)))
