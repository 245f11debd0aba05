"""A programmatic simulation of visual wrapper specification (Section 6.2).

The Lixto process the paper describes: the user names a destination
pattern, picks a parent pattern, the system highlights the parent
pattern's instances, the user clicks a region inside one of them, the
system derives the best path ``pi`` and generates the rule
``p(x) <- p0(x0), subelem_pi(x0, x).``, which can then be refined with
conditions or generalized with wildcards -- all without writing Elog.

:class:`VisualSession` reproduces exactly this loop with nodes standing in
for mouse clicks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.elog.paths import WILDCARD
from repro.elog.syntax import Condition, ElogProgram, ElogRule, ROOT_PATTERN
from repro.elog.translate import evaluate_elog
from repro.errors import WrapError
from repro.trees.node import Node
from repro.trees.unranked import UnrankedStructure


class VisualSession:
    """An interactive wrapper-building session over one example document.

    Examples
    --------
    >>> from repro.trees import parse_sexpr
    >>> doc = parse_sexpr("html(body(table(tr(td), tr(td))))")
    >>> session = VisualSession(doc)
    >>> row = doc.children[0].children[0].children[0]
    >>> _ = session.select("record", "root", row)
    >>> sorted(n.label for n in session.instances("record"))
    ['tr', 'tr']
    """

    def __init__(self, document: Node):
        self.document = document
        self.structure = UnrankedStructure(document)
        self.rules: List[ElogRule] = []
        self._var_counter = 0

    # -- the visual loop -----------------------------------------------------

    def patterns(self) -> Set[str]:
        """Patterns defined so far (the palette the user picks parents from)."""
        return {rule.head for rule in self.rules}

    def instances(self, pattern: str) -> List[Node]:
        """Highlight a pattern: its instances on the example document."""
        if pattern == ROOT_PATTERN:
            return [self.document]
        if pattern not in self.patterns():
            return []
        program = self.program(query=pattern)
        result = evaluate_elog(program, self.structure)
        return [self.structure.node(i) for i in sorted(result.unary(pattern))]

    def select(
        self,
        new_pattern: str,
        parent_pattern: str,
        clicked: Node,
        generalize_labels: Sequence[str] = (),
    ) -> ElogRule:
        """Simulate clicking ``clicked`` inside a parent-pattern instance.

        The system finds the innermost parent-pattern instance containing
        the click, derives the label path, optionally generalizes the
        labels in ``generalize_labels`` to wildcards, and adds the rule.
        """
        container = self._innermost_instance(parent_pattern, clicked)
        if container is None:
            raise WrapError(
                f"clicked node is inside no instance of {parent_pattern!r}"
            )
        path = tuple(clicked.label_path_from(container))
        if generalize_labels:
            path = tuple(
                WILDCARD if symbol in generalize_labels else symbol
                for symbol in path
            )
        if not path:
            raise WrapError("click the interior of the parent instance")
        rule = ElogRule(
            head=new_pattern,
            head_var="x",
            parent=parent_pattern,
            parent_var="x0",
            path=path,
        )
        self.rules.append(rule)
        return rule

    def refine_last(self, condition: Condition) -> ElogRule:
        """Add a condition to the most recent rule (the 'refine' step)."""
        if not self.rules:
            raise WrapError("no rule to refine")
        old = self.rules.pop()
        refined = ElogRule(
            head=old.head,
            head_var=old.head_var,
            parent=old.parent,
            parent_var=old.parent_var,
            path=old.path,
            conditions=list(old.conditions) + [condition],
            refs=list(old.refs),
        )
        self.rules.append(refined)
        return refined

    def _innermost_instance(self, pattern: str, node: Node) -> Optional[Node]:
        instances = {id(n) for n in self.instances(pattern)}
        current: Optional[Node] = node.parent
        while current is not None:
            if id(current) in instances:
                return current
            current = current.parent
        return None

    # -- output --------------------------------------------------------------

    def program(self, query: Optional[str] = None) -> ElogProgram:
        """The Elog- program built so far."""
        return ElogProgram(list(self.rules), query=query)
