"""Naive MSO model checking by enumeration (the semantics reference).

First-order quantifiers range over the domain; set quantifiers range over
all ``2^n`` subsets, so this evaluator is exponential and guarded by a size
limit.  It exists to pin down the semantics: the automaton compiler of
:mod:`repro.mso.compile` and the datalog translation of Theorem 4.4 are
validated against it on randomized small trees.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, Set

from repro.errors import MSOError
from repro.mso.syntax import (
    And,
    Exists,
    FOVar,
    Forall,
    Formula,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    Rel,
    Subset,
)
from repro.trees.unranked import UnrankedStructure

#: Trees larger than this refuse set quantification (2^n subsets).
_SO_LIMIT = 16

_REL_MAP = {
    "eq": None,  # handled directly
    "before": None,  # document order = identifier order
    "firstchild": "firstchild",
    "nextsibling": "nextsibling",
    "child": "child",
    "descendant": "child_plus",
    "sibling_before": "nextsibling_plus",
}


def _subsets(domain: Iterable[int]) -> Iterable[FrozenSet[int]]:
    items = list(domain)
    return (
        frozenset(c)
        for c in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    )


def naive_eval(
    formula: Formula,
    structure: UnrankedStructure,
    fo_assign: Dict[str, int] | None = None,
    so_assign: Dict[str, FrozenSet[int]] | None = None,
) -> bool:
    """Evaluate a formula under explicit assignments (Tarskian semantics)."""
    fo_env = dict(fo_assign or {})
    so_env = dict(so_assign or {})

    def ev(f: Formula, fo_env: Dict[str, int], so_env: Dict[str, FrozenSet[int]]) -> bool:
        if isinstance(f, Rel):
            values = []
            for arg in f.args:
                if arg.name not in fo_env:
                    raise MSOError(f"unbound first-order variable {arg.name!r}")
                values.append(fo_env[arg.name])
            if f.name == "eq":
                return values[0] == values[1]
            if f.name == "before":
                return values[0] < values[1]
            rel_name = _REL_MAP.get(f.name, f.name)
            return tuple(values) in structure.relation(rel_name)
        if isinstance(f, Member):
            if f.element.name not in fo_env:
                raise MSOError(f"unbound first-order variable {f.element.name!r}")
            if f.container.name not in so_env:
                raise MSOError(f"unbound set variable {f.container.name!r}")
            return fo_env[f.element.name] in so_env[f.container.name]
        if isinstance(f, Subset):
            for v in (f.left, f.right):
                if v.name not in so_env:
                    raise MSOError(f"unbound set variable {v.name!r}")
            return so_env[f.left.name] <= so_env[f.right.name]
        if isinstance(f, Not):
            return not ev(f.inner, fo_env, so_env)
        if isinstance(f, And):
            return all(ev(p, fo_env, so_env) for p in f.parts)
        if isinstance(f, Or):
            return any(ev(p, fo_env, so_env) for p in f.parts)
        if isinstance(f, Implies):
            return (not ev(f.antecedent, fo_env, so_env)) or ev(f.consequent, fo_env, so_env)
        if isinstance(f, Iff):
            return ev(f.left, fo_env, so_env) == ev(f.right, fo_env, so_env)
        if isinstance(f, (Exists, Forall)):
            exists = isinstance(f, Exists)
            if isinstance(f.var, FOVar):
                witnesses = (
                    ev(f.body, {**fo_env, f.var.name: v}, so_env)
                    for v in structure.domain
                )
            else:
                if structure.size > _SO_LIMIT:
                    raise MSOError(
                        f"naive set quantification refuses trees with more "
                        f"than {_SO_LIMIT} nodes (got {structure.size})"
                    )
                witnesses = (
                    ev(f.body, fo_env, {**so_env, f.var.name: s})
                    for s in _subsets(structure.domain)
                )
            return any(witnesses) if exists else all(witnesses)
        raise MSOError(f"unknown formula node {f!r}")

    return ev(formula, fo_env, so_env)


def naive_check(formula: Formula, structure: UnrankedStructure) -> bool:
    """Evaluate a sentence (no free variables)."""
    return naive_eval(formula, structure)


def naive_select(
    formula: Formula, free_var: str, structure: UnrankedStructure
) -> Set[int]:
    """The unary query ``{x | t |= phi(x)}`` by direct enumeration."""
    return {
        v
        for v in structure.domain
        if naive_eval(formula, structure, fo_assign={free_var: v})
    }
