"""Compile-once query plans for monadic (and general) datalog.

The paper's complexity results (Theorem 4.2, Corollary 6.4) treat a wrapper
as a *static* artifact that is analyzed once and then run over many
documents.  This module realizes that separation for the general engine:

``compile_program(program)`` performs every evaluation step that depends on
the program alone --

* predicate names are interned to dense integer ids and variables to
  per-plan *slots* (indexes into a flat binding array);
* each rule body is compiled into an executable :class:`_OrderedPlan` with
  a precomputed greedy join order, plus one *delta variant* per
  same-stratum intensional body atom for semi-naive evaluation;
* atoms are assigned a lookup strategy at compile time (full scan, hash
  index on the bound positions -- any arity -- or direct membership test);
* rules are partitioned into dependency *strata* (SCCs of the predicate
  graph in topological order), so the fixpoint loop iterates only within a
  stratum instead of sweeping all recursive rules every round;
* the Theorem 4.2 connectedness rewriting (``split_disconnected``) is
  performed once and cached for the grounding strategy.

The result is a :class:`CompiledProgram` whose :meth:`CompiledProgram.run`
evaluates the plan over any structure, reusing a shared
:class:`repro.structures.IndexedStructure` when one is supplied.  The
classic one-shot :func:`repro.datalog.engine.evaluate` is now a thin
``compile -> run`` wrapper around this module.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.analysis import dependency_graph, split_disconnected
from repro.datalog.program import Program, Rule
from repro.datalog.seminaive import _order_body
from repro.datalog.terms import Constant, Atom, Variable
from repro.errors import DatalogError
from repro.structures import IndexedStructure, Structure, as_indexed

FactTuple = Tuple[int, ...]
Relations = Dict[str, Set[FactTuple]]

# Lookup strategies resolved at compile time.
_SCAN = 0  # no bound positions: iterate the full extension
_INDEX = 1  # some positions bound: probe the hash index on those positions
_MEMBER = 2  # all positions bound: single membership test


class EvaluationResult:
    """Result of evaluating a datalog program.

    Attributes
    ----------
    relations:
        Mapping from intensional predicate to its derived tuple set.  A
        kernel result builds it on first read, from the run's node-id
        sets (:attr:`repro.datalog.kernel.KernelRun.relations`), so
        callers that only ask :meth:`unary` never pay for the 1-tuples.
    method:
        The strategy actually used (``"kernel"``, ``"ground"``, ``"lit"``,
        ``"seminaive"``, or ``"naive"``).
    query:
        The program's query predicate, if any.
    engine:
        For ``method == "kernel"``, which propagation run it was:
        ``"worklist"`` (a cold run of the generated Dowling–Gallier
        worklist) or ``"incremental"`` (a :meth:`CompiledProgram.run_incremental`
        result that reused the previous version's answers: the tree was
        unchanged).  ``None`` for the other strategies.
    stats:
        For ``method == "kernel"``, the kernel's per-run stats dict
        (``engine`` / ``facts``): the ``stats`` of the kernel's
        :class:`repro.datalog.kernel.KernelRun`, which
        :meth:`CompiledProgram.run_incremental` also returns as its
        ``info`` triple member after a warm run.  ``None`` for non-kernel
        strategies.
    """

    def __init__(
        self,
        relations: Optional[Relations],
        method: str,
        query: Optional[str],
        run=None,
    ):
        #: The derived tuple sets, or ``None`` for a kernel result, whose
        #: ``run`` (a :class:`repro.datalog.kernel.KernelRun`) builds them.
        self._relations = relations
        self._run = run
        self.method = method
        self.query = query
        self.engine = run.stats["engine"] if run is not None else None
        self.stats = run.stats if run is not None else None

    @property
    def relations(self) -> Relations:
        relations = self._relations
        return relations if relations is not None else self._run.relations

    def unary(self, pred: str) -> Set[int]:
        """The extension of a unary predicate as a set of node identifiers."""
        if self._run is not None:
            cached = self._run.unary_sets.get(pred)
            if cached is not None:
                return cached
        return {tup[0] for tup in self.relations.get(pred, set()) if len(tup) == 1}

    def query_result(self) -> Set[int]:
        """The unary query's answer set (requires a query predicate)."""
        if self.query is None:
            raise DatalogError("program has no distinguished query predicate")
        return self.unary(self.query)

    def holds(self, pred: str, *args: int) -> bool:
        """Whether ``pred(args)`` was derived."""
        return tuple(args) in self.relations.get(pred, set())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        sizes = {p: len(ts) for p, ts in self.relations.items()}
        return f"EvaluationResult(method={self.method!r}, sizes={sizes})"


class _AtomPlan:
    """One body atom compiled against a fixed prefix of bound slots.

    ``ops`` is the per-candidate check/bind sequence in argument-position
    order: ``("c", pos, value)`` checks a constant, ``("k", pos, slot)``
    checks an already bound slot, ``("b", pos, slot)`` binds a fresh slot.
    A variable's first occurrence in the atom is a bind; later occurrences
    in the same atom become checks, so repeated variables are handled
    uniformly.
    """

    __slots__ = (
        "pred",
        "pred_id",
        "intensional",
        "arity",
        "ops",
        "lookup",
        "key_positions",
        "key_sources",
    )

    def __init__(
        self,
        atom: Atom,
        pred_id: int,
        intensional: bool,
        slot_of: Dict[Variable, int],
        bound_slots: Set[int],
    ):
        self.pred = atom.pred
        self.pred_id = pred_id
        self.intensional = intensional
        self.arity = atom.arity

        ops: List[Tuple[str, int, int]] = []
        keyed: List[Tuple[int, str, int]] = []
        bound_here: Set[int] = set(bound_slots)
        for pos, term in enumerate(atom.args):
            if isinstance(term, Constant):
                ops.append(("c", pos, term.value))
                keyed.append((pos, "c", term.value))
            else:
                slot = slot_of.setdefault(term, len(slot_of))
                if slot in bound_slots:
                    ops.append(("k", pos, slot))
                    # Known before any candidate is inspected, so it can be
                    # part of the index/membership key.
                    keyed.append((pos, "k", slot))
                elif slot in bound_here:
                    # Repeated variable within this atom: check, but the
                    # value is only known during enumeration.
                    ops.append(("k", pos, slot))
                else:
                    ops.append(("b", pos, slot))
                    bound_here.add(slot)
        self.ops = tuple(ops)
        self.key_positions: Tuple[int, ...] = tuple(p for p, _, _ in keyed)
        self.key_sources: Tuple[Tuple[str, int], ...] = tuple(
            (kind, value) for _, kind, value in keyed
        )
        if intensional or not self.key_positions:
            self.lookup = _SCAN
        elif len(self.key_positions) == self.arity:
            self.lookup = _MEMBER
        else:
            self.lookup = _INDEX

    def key(self, binding: List[int]) -> FactTuple:
        """The index/membership key under the current binding."""
        return tuple(
            value if kind == "c" else binding[value]
            for kind, value in self.key_sources
        )

    def candidates(
        self,
        binding: List[int],
        edb: IndexedStructure,
        idb: Sequence[Set[FactTuple]],
        override: Optional[Set[FactTuple]],
    ) -> Iterator[FactTuple]:
        """Tuples of this atom's relation compatible with the binding."""
        if self.intensional:
            source = idb[self.pred_id] if override is None else override
            return iter(source)
        if self.lookup == _MEMBER:
            tup = self.key(binding)
            return iter((tup,)) if tup in edb.relation(self.pred) else iter(())
        if self.lookup == _INDEX:
            index = edb.index(self.pred, self.key_positions)
            return iter(index.get(self.key(binding), ()))
        return iter(edb.relation(self.pred))


class _OrderedPlan:
    """A full join plan for one rule body under one atom order.

    Slot numbering is private to the plan (the same rule variable may map to
    different slots in the base plan and in a delta variant), so the head
    builder and slot count live here rather than on the rule.
    """

    __slots__ = ("atoms", "head_sources", "nslots")

    def __init__(
        self,
        rule: Rule,
        order: List[int],
        intern: Dict[str, int],
        intensional: Set[str],
    ):
        slot_of: Dict[Variable, int] = {}
        bound: Set[int] = set()
        atoms: List[_AtomPlan] = []
        for index in order:
            atom = rule.body[index]
            plan = _AtomPlan(
                atom, intern[atom.pred], atom.pred in intensional, slot_of, bound
            )
            atoms.append(plan)
            for kind, _, value in plan.ops:
                if kind == "b":
                    bound.add(value)
        self.atoms: Tuple[_AtomPlan, ...] = tuple(atoms)
        # Safety guarantees every head variable was bound by the body.
        self.head_sources: Tuple[Tuple[str, int], ...] = tuple(
            ("c", t.value) if isinstance(t, Constant) else ("s", slot_of[t])
            for t in rule.head.args
        )
        self.nslots = len(slot_of)

    def head_tuple(self, binding: List[int]) -> FactTuple:
        return tuple(
            value if kind == "c" else binding[value]
            for kind, value in self.head_sources
        )

    def evaluate(
        self,
        edb: IndexedStructure,
        idb: Sequence[Set[FactTuple]],
        delta: Optional[Set[FactTuple]],
        out: Set[FactTuple],
    ) -> None:
        """Add every derivable head tuple to ``out``.

        ``delta``, when given, overrides the fact source of the *first* atom
        (the semi-naive restriction; delta variants order that atom first).
        Slots are never unbound between branches: a slot is always (re)bound
        at the same depth before any deeper atom reads it, so plain
        overwriting is sound and no binding copies are needed.
        """
        binding: List[int] = [0] * self.nslots
        atoms = self.atoms
        depth_count = len(atoms)

        def recurse(depth: int) -> None:
            if depth == depth_count:
                out.add(self.head_tuple(binding))
                return
            plan = atoms[depth]
            override = delta if depth == 0 else None
            ops = plan.ops
            for tup in plan.candidates(binding, edb, idb, override):
                ok = True
                for kind, pos, value in ops:
                    v = tup[pos]
                    if kind == "b":
                        binding[value] = v
                    elif kind == "k":
                        if binding[value] != v:
                            ok = False
                            break
                    elif v != value:
                        ok = False
                        break
                if ok:
                    recurse(depth + 1)

        recurse(0)


class _RulePlan:
    """A rule compiled into a base plan plus semi-naive delta variants."""

    __slots__ = ("rule", "head_pred_id", "base", "delta_variants")

    def __init__(
        self,
        rule: Rule,
        intern: Dict[str, int],
        intensional: Set[str],
        recursive_preds: Set[str],
    ):
        self.rule = rule
        self.head_pred_id = intern[rule.head.pred]
        self.base = _OrderedPlan(
            rule, _order_body(rule.body, None), intern, intensional
        )
        variants: List[Tuple[_OrderedPlan, int]] = []
        for position, atom in enumerate(rule.body):
            if atom.pred in recursive_preds:
                variants.append(
                    (
                        _OrderedPlan(
                            rule,
                            _order_body(rule.body, position),
                            intern,
                            intensional,
                        ),
                        intern[atom.pred],
                    )
                )
        self.delta_variants: Tuple[Tuple[_OrderedPlan, int], ...] = tuple(variants)


def _strongly_connected_components(
    graph: Dict[str, Set[str]], nodes: Set[str]
) -> List[List[str]]:
    """Tarjan's SCCs of ``graph`` restricted to ``nodes``.

    Returned in topological order of the condensation with respect to the
    ``head -> body-dependency`` edges: an SCC appears after everything it
    depends on (Tarjan emits sink components -- here, the dependency-free
    ones -- first).
    """
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def successors(node: str) -> List[str]:
        return sorted(p for p in graph.get(node, ()) if p in nodes)

    for root in sorted(nodes):
        if root in index_of:
            continue
        frames: List[Tuple[str, Iterator[str]]] = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while frames:
            node, it = frames[-1]
            descended = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    frames.append((succ, iter(successors(succ))))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if descended:
                continue
            frames.pop()
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if frames:
                parent = frames[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


class CompiledProgram:
    """A datalog program compiled into an executable, reusable plan.

    Build once with :func:`compile_program`, then call :meth:`run` for each
    document.  All program-only work (interning, join ordering, delta
    variants, stratification, connectedness splitting) happens at
    construction; :meth:`run` only touches structure-dependent state.

    Examples
    --------
    >>> from repro.datalog.parser import parse_program
    >>> from repro.structures import GenericStructure
    >>> compiled = compile_program(parse_program(
    ...     "reach(x) :- start(x).\\nreach(y) :- reach(x), edge(x, y).",
    ...     query="reach"))
    >>> s = GenericStructure(3, {"edge": [(0, 1), (1, 2)], "start": [0]})
    >>> sorted(compiled.run(s).query_result())
    [0, 1, 2]
    """

    def __init__(self, program: Program):
        self.program = program
        self._intensional: Set[str] = set(program.intensional_predicates())
        self._extensional: Set[str] = set(program.extensional_predicates())

        # Predicate interning: dense ids, intensional predicates first, so
        # the fact store is a flat list indexed by predicate id.
        self._intern: Dict[str, int] = {}
        for pred in sorted(self._intensional):
            self._intern[pred] = len(self._intern)
        self._num_intensional = len(self._intern)
        for pred in sorted(self._extensional):
            self._intern.setdefault(pred, len(self._intern))
        self._names: List[str] = [""] * len(self._intern)
        for name, ident in self._intern.items():
            self._names[ident] = name

        # Stratification and rule plans are built on first use, so one-shot
        # runs through the ground/lit strategies do not pay for them; once
        # built they are reused for every subsequent run.
        self._strata_cache: Optional[List[Tuple[List[_RulePlan], frozenset]]] = None
        self._monadic = program.is_monadic()
        self._split_cache: Optional[Program] = None
        # Lazily compiled propagation-kernel tables (None until first use;
        # the tuple wrapper distinguishes "not yet tried" from "kernel does
        # not apply to this program").
        self._kernel_cache: Optional[tuple] = None

    @property
    def _strata(self) -> List[Tuple[List[_RulePlan], frozenset]]:
        if self._strata_cache is None:
            program = self.program
            graph = dependency_graph(program)
            sccs = _strongly_connected_components(graph, self._intensional)
            scc_of: Dict[str, int] = {}
            for i, scc in enumerate(sccs):
                for pred in scc:
                    scc_of[pred] = i
            rules_by_scc: List[List[Rule]] = [[] for _ in sccs]
            for rule in program.rules:
                rules_by_scc[scc_of[rule.head.pred]].append(rule)
            strata: List[Tuple[List[_RulePlan], frozenset]] = []
            for scc, rules in zip(sccs, rules_by_scc):
                if not rules:
                    continue
                preds = set(scc)
                plans = [
                    _RulePlan(rule, self._intern, self._intensional, preds)
                    for rule in rules
                ]
                strata.append((plans, frozenset(preds)))
            self._strata_cache = strata
        return self._strata_cache

    @property
    def _split(self) -> Optional[Program]:
        # Theorem 4.2 pre-processing: the connectedness split depends only
        # on the program, so it is computed once and shared by every run.
        if not self._monadic:
            return None
        if self._split_cache is None:
            self._split_cache = split_disconnected(self.program)
        return self._split_cache

    @property
    def _kernel(self):
        # Propagation-kernel lowering (Theorem 4.2 hot path): program-only,
        # compiled on first use and reused by every subsequent run.
        if self._kernel_cache is None:
            if self._monadic:
                from repro.datalog.kernel import compile_kernel

                self._kernel_cache = (compile_kernel(self.program),)
            else:
                self._kernel_cache = (None,)
        return self._kernel_cache[0]

    def prepare(self) -> "CompiledProgram":
        """Force every lazy program-only artifact (strata, split, kernel).

        Useful before timing a batch or before pickling the plan into
        worker processes, so each worker receives fully materialized
        tables instead of re-deriving them.
        """
        _ = self._strata, self._split, self._kernel
        return self

    # -- introspection -------------------------------------------------------

    @property
    def strata(self) -> List[Set[str]]:
        """Head-predicate SCCs in evaluation (topological) order."""
        return [set(preds) for _, preds in self._strata]

    def size(self) -> int:
        """``|P|`` of the underlying program."""
        return self.program.size()

    def grounding_applicable(self, structure: Structure) -> bool:
        """Whether the Theorem 4.2 strategy applies on this structure."""
        from repro.datalog.grounding import grounding_applicable

        if self._split is None:
            return False
        return grounding_applicable(self._split, structure)

    def kernel_applicable(self, structure: Structure) -> bool:
        """Whether the propagation kernel applies on this structure."""
        kernel = self._kernel
        return kernel is not None and kernel.applicable(structure)

    # -- evaluation ----------------------------------------------------------

    def _check_extensional(self, structure: Structure) -> None:
        for pred in sorted(self._extensional):
            if not structure.has_relation(pred):
                raise DatalogError(
                    f"structure provides no extensional relation {pred!r}"
                )

    def _run_seminaive(self, edb: IndexedStructure) -> Relations:
        self._check_extensional(edb)
        idb: List[Set[FactTuple]] = [set() for _ in range(self._num_intensional)]

        for plans, _ in self._strata:
            # Initial pass: every rule of the stratum once against the facts
            # derived so far (same-stratum predicates are still empty, so
            # only their non-recursive derivations fire here).
            delta: Dict[int, Set[FactTuple]] = {}
            for rp in plans:
                derived: Set[FactTuple] = set()
                rp.base.evaluate(edb, idb, None, derived)
                fresh = derived - idb[rp.head_pred_id]
                if fresh:
                    delta.setdefault(rp.head_pred_id, set()).update(fresh)
            for pred_id, tuples in delta.items():
                idb[pred_id] |= tuples

            recursive = [rp for rp in plans if rp.delta_variants]
            while delta:
                new: Dict[int, Set[FactTuple]] = {}
                for rp in recursive:
                    for variant, delta_pred_id in rp.delta_variants:
                        source = delta.get(delta_pred_id)
                        if not source:
                            continue
                        derived = set()
                        variant.evaluate(edb, idb, source, derived)
                        fresh = derived - idb[rp.head_pred_id]
                        known = new.get(rp.head_pred_id)
                        if known:
                            fresh -= known
                        if fresh:
                            new.setdefault(rp.head_pred_id, set()).update(fresh)
                delta = new
                for pred_id, tuples in delta.items():
                    idb[pred_id] |= tuples

        return {self._names[i]: idb[i] for i in range(self._num_intensional)}

    def run(self, structure: Structure, method: str = "auto") -> EvaluationResult:
        """Evaluate the compiled plan over ``structure``.

        Pass a pre-built :class:`repro.structures.IndexedStructure` to share
        one document runtime across many compiled programs; bare structures
        are wrapped on the fly.
        """
        edb = as_indexed(structure)
        if method in ("auto", "kernel"):
            # Fastest applicable strategy first: the linear-time propagation
            # kernel for monadic programs over tree documents, then the
            # Theorem 4.2 grounding, then the general compiled join plans.
            kernel = self._kernel
            out = kernel.evaluate(edb) if kernel is not None else None
            if out is not None:
                return EvaluationResult(None, "kernel", self.program.query, out)
            if method == "kernel":
                reason = (
                    "program is outside the monadic tree fragment"
                    if kernel is None
                    else "structure is not tree-backed or lacks a relation "
                    "the program needs"
                )
                raise DatalogError(f"kernel strategy does not apply: {reason}")
            method = "ground" if self.grounding_applicable(edb) else "seminaive"
        if method == "ground":
            from repro.datalog.grounding import evaluate_ground

            ground = evaluate_ground(self.program, edb, pre_split=self._split)
            return EvaluationResult(ground.relations, "ground", self.program.query)
        if method == "lit":
            from repro.datalog.guarded import evaluate_lit

            return EvaluationResult(
                evaluate_lit(self.program, edb), "lit", self.program.query
            )
        if method == "seminaive":
            return EvaluationResult(
                self._run_seminaive(edb), "seminaive", self.program.query
            )
        if method == "naive":
            from repro.datalog.seminaive import naive_rounds

            merged: Relations = {p: set() for p in self._intensional}
            for round_facts in naive_rounds(self.program, edb):
                for pred, tuples in round_facts.items():
                    merged.setdefault(pred, set()).update(tuples)
            return EvaluationResult(merged, "naive", self.program.query)
        raise DatalogError(f"unknown evaluation method {method!r}")

    def run_many(
        self, structures: Sequence[Structure], method: str = "auto"
    ) -> List[EvaluationResult]:
        """Evaluate the plan over a batch of documents."""
        return [self.run(structure, method=method) for structure in structures]

    def run_incremental(self, structure: Structure, previous):
        """Warm evaluation against a previous version of the same document.

        ``previous`` is the :class:`PlanState` returned by an earlier call
        of this plan (or ``None`` to start cold).  Returns ``(result,
        state, info)``: the usual :class:`EvaluationResult`, the state to
        feed the *next* version of this document, and the reuse stats
        dict (``None`` when the run was cold).  A version whose tree --
        parent edges and labels -- is unchanged
        (:meth:`repro.trees.snapshot.TreeSnapshot.same_tree`) reuses the
        previous answers (text and attributes may differ); any other
        version, or a state from another plan, runs cold.  Only kernel
        runs leave a state; any program/structure the kernel cannot hold
        runs :meth:`run` with ``state=None``, so callers can thread the
        state unconditionally:

        >>> from repro.datalog.parser import parse_program
        >>> from repro.trees import parse_sexpr
        >>> from repro.trees.unranked import UnrankedStructure
        >>> compiled = compile_program(parse_program(
        ...     "p(x) :- label_a(x).\\np(y) :- p(x), child(x, y).", query="p"))
        >>> v1 = UnrankedStructure(parse_sexpr("a(b(c), d)"))
        >>> v2 = UnrankedStructure(parse_sexpr("a(b(c), e)"))
        >>> result, state, info = compiled.run_incremental(v1, None)
        >>> sorted(result.query_result()), result.engine
        ([0, 1, 2, 3], 'worklist')

        Relabelling ``d`` to ``e`` changes the tree, so ``v2`` runs cold;
        a fresh copy of ``v2`` then reuses its answers:

        >>> result, state, info = compiled.run_incremental(v2, state)
        >>> sorted(result.query_result()), result.engine, info
        ([0, 1, 2, 3], 'worklist', None)
        >>> v3 = UnrankedStructure(parse_sexpr("a(b(c), e)"))
        >>> result, state, info = compiled.run_incremental(v3, state)
        >>> sorted(result.query_result()), result.engine
        ([0, 1, 2, 3], 'incremental')
        """
        edb = as_indexed(structure)
        snapshot = edb.snapshot()
        if (
            previous is not None
            and previous.plan is self
            and snapshot is not None
            and previous.snapshot.same_tree(snapshot)
        ):
            from repro.datalog.kernel import KernelRun

            ids, nullary = previous.unary_ids, previous.nullary
            # ``dirty`` and ``dirty_fraction``, always zero, are kept
            # because ``perfbench/layers.py`` reads them.
            info = {
                "engine": "incremental",
                "facts": previous.facts,
                "dirty": 0,
                "dirty_fraction": 0.0,
            }
            run = KernelRun({name: set(nodes) for name, nodes in ids.items()}, info, nullary)
            result = EvaluationResult(None, "kernel", self.program.query, run)
            return result, PlanState(self, snapshot, ids, nullary, previous.facts), info
        result = self.run(edb)
        run = result._run
        if run is None:
            return result, None, None
        ids = {name: tuple(nodes) for name, nodes in run.unary_sets.items()}
        return result, PlanState(self, snapshot, ids, run.nullary, run.stats["facts"]), None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CompiledProgram({len(self.program.rules)} rules, "
            f"{len(self._strata)} strata, query={self.program.query!r})"
        )


class PlanState:
    """What :meth:`CompiledProgram.run_incremental` keeps for a document's
    next version.

    ``plan`` is the :class:`CompiledProgram` that made it (a state from
    another plan runs cold), ``snapshot`` the document's snapshot,
    ``unary_ids`` each unary output's node ids as a tuple, ``nullary``
    whether each 0-ary output holds, and ``facts`` the run's fact count.
    No caller ever receives the tuples, so a caller that mutates a
    returned set never changes the next version's answer.
    """

    __slots__ = ("plan", "snapshot", "unary_ids", "nullary", "facts")

    def __init__(self, plan, snapshot, unary_ids, nullary, facts):
        self.plan = plan
        self.snapshot = snapshot
        self.unary_ids = unary_ids
        self.nullary = nullary
        self.facts = facts


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` once into a reusable :class:`CompiledProgram`."""
    return CompiledProgram(program)
