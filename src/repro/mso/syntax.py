"""Abstract syntax of MSO over unranked trees.

Section 2 defines MSO over tree structures with node variables, set
variables, boolean connectives and quantifiers over both sorts.  Atomic
formulas are the relations of ``tau_ur`` plus equality and membership; we
additionally support the standard MSO-definable relations ``child``,
``descendant``, ``before`` (document order) and ``sibling_before`` as
built-in atoms (each carries a direct automaton in
:mod:`repro.mso.compile`, avoiding an unnecessary quantifier blow-up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple, Union


@dataclass(frozen=True, order=True)
class FOVar:
    """A first-order (node) variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class SOVar:
    """A second-order (set) variable."""

    name: str

    def __str__(self) -> str:
        return self.name


Var = Union[FOVar, SOVar]


def fo(name: str) -> FOVar:
    """Shorthand for :class:`FOVar`."""
    return FOVar(name)


def so(name: str) -> SOVar:
    """Shorthand for :class:`SOVar`."""
    return SOVar(name)


class Formula:
    """Base class of MSO formulas."""


#: Unary structural relations over ``tau_ur`` (plus ``firstsibling``).
UNARY_RELATIONS = ("root", "leaf", "lastsibling", "firstsibling")

#: Binary relations with direct automata in the compiler.
BINARY_RELATIONS = (
    "eq",
    "firstchild",
    "nextsibling",
    "child",
    "descendant",
    "before",
    "sibling_before",
)


@dataclass(frozen=True)
class Rel(Formula):
    """An atomic structural relation over first-order variables.

    ``name`` is one of :data:`UNARY_RELATIONS`, :data:`BINARY_RELATIONS`, or
    ``label_<a>`` for a label ``a``.
    """

    name: str
    args: Tuple[FOVar, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Member(Formula):
    """Membership ``x in X``."""

    element: FOVar
    container: SOVar

    def __str__(self) -> str:
        return f"{self.element} in {self.container}"


@dataclass(frozen=True)
class Subset(Formula):
    """Set inclusion ``X sub Y`` (syntactic sugar the paper allows)."""

    left: SOVar
    right: SOVar

    def __str__(self) -> str:
        return f"{self.left} sub {self.right}"


@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    inner: Formula

    def __str__(self) -> str:
        return f"~({self.inner})"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of two or more formulas."""

    parts: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " & ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of two or more formulas."""

    parts: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " | ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Implies(Formula):
    """Implication."""

    antecedent: Formula
    consequent: Formula

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


@dataclass(frozen=True)
class Iff(Formula):
    """Biconditional."""

    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} <-> {self.right})"


@dataclass(frozen=True)
class Exists(Formula):
    """Existential quantification over a node or set variable."""

    var: Var
    body: Formula

    def __str__(self) -> str:
        sort = "set " if isinstance(self.var, SOVar) else ""
        return f"exists {sort}{self.var} ({self.body})"


@dataclass(frozen=True)
class Forall(Formula):
    """Universal quantification over a node or set variable."""

    var: Var
    body: Formula

    def __str__(self) -> str:
        sort = "set " if isinstance(self.var, SOVar) else ""
        return f"forall {sort}{self.var} ({self.body})"


def conj(*parts: Formula) -> Formula:
    """N-ary conjunction convenience (flattens; unit for one part)."""
    flat = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def label(name: str, x: FOVar) -> Rel:
    """``label_<name>(x)``."""
    return Rel(f"label_{name}", (x,))


def free_variables(formula: Formula) -> Tuple[Set[str], Set[str]]:
    """Free first-order and second-order variable names of a formula."""
    fo_free: Set[str] = set()
    so_free: Set[str] = set()

    def walk(f: Formula, bound_fo: FrozenSet[str], bound_so: FrozenSet[str]) -> None:
        if isinstance(f, Rel):
            for arg in f.args:
                if arg.name not in bound_fo:
                    fo_free.add(arg.name)
        elif isinstance(f, Member):
            if f.element.name not in bound_fo:
                fo_free.add(f.element.name)
            if f.container.name not in bound_so:
                so_free.add(f.container.name)
        elif isinstance(f, Subset):
            for v in (f.left, f.right):
                if v.name not in bound_so:
                    so_free.add(v.name)
        elif isinstance(f, Not):
            walk(f.inner, bound_fo, bound_so)
        elif isinstance(f, (And, Or)):
            for part in f.parts:
                walk(part, bound_fo, bound_so)
        elif isinstance(f, Implies):
            walk(f.antecedent, bound_fo, bound_so)
            walk(f.consequent, bound_fo, bound_so)
        elif isinstance(f, Iff):
            walk(f.left, bound_fo, bound_so)
            walk(f.right, bound_fo, bound_so)
        elif isinstance(f, (Exists, Forall)):
            if isinstance(f.var, FOVar):
                walk(f.body, bound_fo | {f.var.name}, bound_so)
            else:
                walk(f.body, bound_fo, bound_so | {f.var.name})
        else:
            raise TypeError(f"unknown formula node {f!r}")

    walk(formula, frozenset(), frozenset())
    return fo_free, so_free


def quantifier_rank(formula: Formula) -> int:
    """Maximum nesting depth of quantifiers (Section 2)."""
    if isinstance(formula, (Rel, Member, Subset)):
        return 0
    if isinstance(formula, Not):
        return quantifier_rank(formula.inner)
    if isinstance(formula, (And, Or)):
        return max(quantifier_rank(p) for p in formula.parts)
    if isinstance(formula, Implies):
        return max(quantifier_rank(formula.antecedent), quantifier_rank(formula.consequent))
    if isinstance(formula, Iff):
        return max(quantifier_rank(formula.left), quantifier_rank(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return 1 + quantifier_rank(formula.body)
    raise TypeError(f"unknown formula node {formula!r}")


def standardize_apart(formula: Formula) -> Formula:
    """Rename bound variables so that no name is bound twice or shadows a
    free variable.  The compiler requires this discipline."""
    fo_free, so_free = free_variables(formula)
    used: Set[str] = set(fo_free) | set(so_free)
    counter = [0]

    def fresh(base: str) -> str:
        candidate = base
        while candidate in used:
            counter[0] += 1
            candidate = f"{base}_{counter[0]}"
        used.add(candidate)
        return candidate

    def walk(f: Formula, ren_fo: Dict[str, str], ren_so: Dict[str, str]) -> Formula:
        if isinstance(f, Rel):
            return Rel(f.name, tuple(FOVar(ren_fo.get(a.name, a.name)) for a in f.args))
        if isinstance(f, Member):
            return Member(
                FOVar(ren_fo.get(f.element.name, f.element.name)),
                SOVar(ren_so.get(f.container.name, f.container.name)),
            )
        if isinstance(f, Subset):
            return Subset(
                SOVar(ren_so.get(f.left.name, f.left.name)),
                SOVar(ren_so.get(f.right.name, f.right.name)),
            )
        if isinstance(f, Not):
            return Not(walk(f.inner, ren_fo, ren_so))
        if isinstance(f, And):
            return And(tuple(walk(p, ren_fo, ren_so) for p in f.parts))
        if isinstance(f, Or):
            return Or(tuple(walk(p, ren_fo, ren_so) for p in f.parts))
        if isinstance(f, Implies):
            return Implies(walk(f.antecedent, ren_fo, ren_so), walk(f.consequent, ren_fo, ren_so))
        if isinstance(f, Iff):
            return Iff(walk(f.left, ren_fo, ren_so), walk(f.right, ren_fo, ren_so))
        if isinstance(f, (Exists, Forall)):
            cls = type(f)
            if isinstance(f.var, FOVar):
                new_name = fresh(f.var.name)
                body = walk(f.body, {**ren_fo, f.var.name: new_name}, ren_so)
                return cls(FOVar(new_name), body)
            new_name = fresh(f.var.name)
            body = walk(f.body, ren_fo, {**ren_so, f.var.name: new_name})
            return cls(SOVar(new_name), body)
        raise TypeError(f"unknown formula node {f!r}")

    return walk(formula, {}, {})
