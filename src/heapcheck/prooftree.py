"""Proof trees: rule-application records built during entailment and symbolic
execution, exportable as DOT graphs and as a JSON structure that round-trips.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .records import Frozen, field, record

OK, FAILED, PRUNED = "ok", "failed", "pruned"


@record
class ProofNode:
    id: int
    rule: str
    input: str
    outcome: str
    children: list["ProofNode"] = field(default_factory=list)

    def walk(self) -> Iterator["ProofNode"]:
        yield self
        for c in self.children:
            yield from c.walk()


@record
class ProofTree:
    root: ProofNode

    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())


class ProofBuilder:
    """Allocates node ids in application order, keeping trees deterministic."""

    def __init__(self) -> None:
        self._next = 0

    def node(
        self,
        rule: str,
        input_summary: str,
        outcome: str = OK,
        children: Optional[list[ProofNode]] = None,
    ) -> ProofNode:
        n = ProofNode(self._next, rule, input_summary, outcome, list(children or []))
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
        if opts.verbosity == "rule":
            label = n.rule
        else:
            label = f"{n.rule}\n{n.input}" if n.input else n.rule
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
