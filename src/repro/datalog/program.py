"""Datalog rules and programs (Section 3.1).

A datalog program is a set of rules ``h <- b1, ..., bn`` where ``h`` and the
``bi`` are atoms.  Rules must be *safe*: every variable in the head occurs in
the body.  Predicates appearing in some head are *intensional*; all others
are *extensional*.  A program is *monadic* when every intensional predicate
has arity at most one (zero-ary helper predicates are tolerated; they arise
from the connectedness rewriting in the proof of Theorem 4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.datalog.terms import Atom, Variable
from repro.errors import DatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.datalog.plan import CompiledProgram


class Rule:
    """A datalog rule ``head <- body``.

    >>> from repro.datalog.terms import Atom, var
    >>> r = Rule(Atom("p", (var("x"),)), [Atom("q", (var("x"),))])
    >>> str(r)
    'p(x) :- q(x).'
    """

    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: Iterable[Atom]):
        self.head = head
        self.body: Tuple[Atom, ...] = tuple(body)
        head_vars = head.variables()
        body_vars = self.variables_in_body()
        missing = head_vars - body_vars
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise DatalogError(f"unsafe rule: head variables {{{names}}} not in body")

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the rule (``Vars(r)``)."""
        out: Set[Variable] = set(self.head.variables())
        for atom in self.body:
            out |= atom.variables()
        return frozenset(out)

    def variables_in_body(self) -> FrozenSet[Variable]:
        """Variables occurring in the body."""
        out: Set[Variable] = set()
        for atom in self.body:
            out |= atom.variables()
        return frozenset(out)

    @property
    def is_ground(self) -> bool:
        """Whether the rule contains no variables."""
        return self.head.is_ground and all(a.is_ground for a in self.body)

    def guard(self) -> Optional[Atom]:
        """A body atom containing all rule variables, if any (Section 3.1)."""
        all_vars = self.variables()
        for atom in self.body:
            if atom.variables() >= all_vars:
                return atom
        return None

    def size(self) -> int:
        """Number of atoms, counting the head."""
        return 1 + len(self.body)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Rule({self})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))


class Program:
    """A datalog program: an ordered collection of rules plus an optional
    distinguished query predicate.

    The rule order is preserved for readability; semantics do not depend on
    it.
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        query: Optional[str] = None,
        declared: Iterable[str] = (),
    ):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.query = query
        #: Predicates declared intensional even when no rule defines them
        #: (their extension is then empty).  Generated programs (automaton
        #: simulations) use this for states that happen to be underivable.
        self.declared: frozenset = frozenset(declared)
        # Rules and declarations are immutable after construction, so the
        # intensional-predicate set is computed once and cached.
        self._intensional: FrozenSet[str] = frozenset(
            rule.head.pred for rule in self.rules
        ) | self.declared
        if query is not None and query not in self._intensional:
            raise DatalogError(
                f"query predicate {query!r} is not an intensional predicate "
                "of the program"
            )

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def size(self) -> int:
        """``|P|``: total number of atoms across all rules."""
        return sum(rule.size() for rule in self.rules)

    def intensional_predicates(self) -> Set[str]:
        """Predicates that occur in some rule head, plus declared ones.

        Returns a fresh mutable set backed by a cached frozenset, so callers
        may extend their copy freely.
        """
        return set(self._intensional)

    def compile(self) -> "CompiledProgram":
        """Compile this program once into a reusable executable plan.

        Convenience alias for :func:`repro.datalog.plan.compile_program`;
        see :class:`repro.datalog.plan.CompiledProgram`.
        """
        from repro.datalog.plan import compile_program

        return compile_program(self)

    def extensional_predicates(self) -> Set[str]:
        """Body predicates that never occur in a head."""
        intensional = self.intensional_predicates()
        out: Set[str] = set()
        for rule in self.rules:
            for atom in rule.body:
                if atom.pred not in intensional:
                    out.add(atom.pred)
        return out

    def predicates(self) -> Set[str]:
        """All predicate names mentioned by the program."""
        out = self.intensional_predicates()
        for rule in self.rules:
            for atom in rule.body:
                out.add(atom.pred)
        return out

    def is_monadic(self) -> bool:
        """Whether every intensional predicate has arity <= 1.

        Zero-ary (propositional) intensional predicates are permitted; they
        appear as helper predicates in the paper's own constructions.
        """
        intensional = self.intensional_predicates()
        for rule in self.rules:
            if rule.head.arity > 1:
                return False
            for atom in rule.body:
                if atom.pred in intensional and atom.arity > 1:
                    return False
        return True

    def fresh_predicate(self, base: str) -> str:
        """A predicate name based on ``base`` not used by the program."""
        used = self.predicates()
        if base not in used:
            return base
        i = 1
        while f"{base}_{i}" in used:
            i += 1
        return f"{base}_{i}"

    def extend(self, rules: Iterable[Rule]) -> "Program":
        """A copy of the program with additional rules appended."""
        return Program(self.rules + tuple(rules), query=self.query, declared=self.declared)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Program({len(self.rules)} rules, query={self.query!r})"


def fresh_variable_factory(prefix: str = "z") -> "_FreshVars":
    """Return a generator of fresh variables ``z_0, z_1, ...``."""
    return _FreshVars(prefix)


class _FreshVars:
    """Stateful fresh-variable supply used by the rewriting pipelines."""

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._counter = 0

    def __call__(self) -> Variable:
        v = Variable(f"{self._prefix}_{self._counter}")
        self._counter += 1
        return v
