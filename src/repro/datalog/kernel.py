"""Linear-time propagation kernel: Theorem 4.2 as the hot path.

The paper's headline complexity result says monadic datalog over trees is
evaluable in time ``O(|P| * |dom|)`` (Theorem 4.2, Corollary 6.4).
:mod:`repro.datalog.grounding` *verifies* that bound by materializing the
ground program; this module *exploits* it: a monadic program is compiled
once into numeric rule tables and then evaluated over the columnar
:class:`repro.trees.snapshot.TreeSnapshot` of a document with **zero tuple
allocation on the hot loop**.

Compilation (:func:`compile_kernel`, program-only, cached by
:class:`repro.datalog.plan.CompiledProgram`):

* every body constant ``c`` becomes a fresh variable ``v`` plus the unary
  atom ``@const:c(v)``, the singleton ``{c}``, which each document
  supplies as a mask and as a one-node list (:func:`_resource`); a
  constant is then a unary relation like a label, to every route below;
* the Theorem 4.2 connectedness rewriting
  (:func:`repro.datalog.analysis.split_disconnected`) makes every rule
  connected, so each rule instantiation is determined by a single seed
  node propagated along the rule's query graph (Proposition 4.1: the tree
  relations are partial bijections; ``child`` is backward-functional with
  forward traversal by child enumeration);
* every rule body is lowered to a flat numeric op sequence -- functional
  *steps* (one column lookup), bounded *branch* steps (``child`` forward),
  byte-mask checks for unary schema relations, byte-lane tests for
  intensional atoms, and a guarded bind for a constant's slot other than
  the entry one (the bind is the constant's check) -- rooted at the
  cheapest anchor (fewest branch steps first, then the most selective
  unary relation, a constant's singleton before any other);
* programs whose best lowering is still *superlinear* in some rule --
  two chained branch steps, or a branch reached through the many-to-one
  ``parent`` map, so one node's children may be enumerated once per entry
  point -- are re-lowered through the TMNF normalization of Theorem 5.2
  (:func:`repro.tmnf.pipeline.to_tmnf`), whose output uses only
  bidirectionally functional relations (a 0-ary predicate goes through
  it as a unary one that holds at the root);
* ranked documents the static lowering cannot bind get the Lemma 5.4
  ``child`` expansion normalized over their own rank, compiled per rank
  on first use.

Every lowering the kernel runs is linear, and every monadic program over
``tau_ur`` without head constants has one.  The programs outside the
kernel's fragment (:func:`fragment_violation` names why) compile to
``None`` and run on the general engines instead.

Evaluation (:meth:`KernelProgram.run`) is a worklist fixpoint in the style
of the Dowling-Gallier Horn-SAT solver (:mod:`repro.datalog.hornsat`),
generalized from propositional atoms to ``(predicate, node)`` pairs
*without materializing ground rules*: derived facts live in one
``bytearray`` lane per predicate (byte ``v`` is 1 when the fact holds at
node ``v``), the worklist is one stack of node ids per predicate, and
when a fact fires, each body occurrence of its predicate re-checks the
O(1) remaining atoms of that rule through column lookups (bodies are
constant-width after lowering, so re-checking preserves the
``O(|P| * |dom|)`` bound that the explicit Dowling-Gallier counters give;
it just never builds the counter table or any ground rule).  The worklist
is not interpreted: each lowering generates it once as straight-line
Python (:mod:`repro.datalog.worklist`) -- every rule body one nested
conjunction of column lookups, every ``child`` enumeration a ``while``
loop -- and each document passes its columns and masks in as arguments.
It is the kernel's one cold engine: a derived fact is pushed and popped
once, so no run pays per-round work over the whole document, however
deep the recursion goes.

:func:`repro.datalog.engine.evaluate` auto-selects this kernel for monadic
programs over tree-backed structures; :mod:`repro.datalog.grounding` stays
as the cross-check oracle (the test suite asserts kernel == ground ==
seminaive == compiled-plan on randomized programs and trees).

Incremental re-evaluation
-------------------------

:meth:`KernelProgram.evaluate` given ``previous`` re-evaluates a *changed
version* of a previously evaluated document without paying the full
fixpoint again.  A completed run returns a :class:`KernelState` (snapshot
+ each predicate's lane packed into one big int, byte ``v`` set when the
fact holds at node ``v``) in its :class:`KernelRun`; the next version is
matched subtree-by-subtree against that snapshot (:mod:`repro.trees.diff`
over the subtree signatures of :mod:`repro.trees.merkle`) and the fixpoint
restarts from the previous facts via delete-and-rederive, both halves on
the lowering's generated worklist (:mod:`repro.datalog.worklist`) and
nothing else:

* **over-delete** (old id space): one call of the generated *condemn*
  function over the old snapshot condemns every old fact whose
  derivation might touch a *bad* old node -- an unmatched one, or a
  matched subtree root whose cross edges changed.  Because every lowered
  rule connects its slots by 1-hop tree moves, any instance touching a
  bad node has its entry slot within ``nslots`` hops, so the walk starts
  with the facts at bad nodes cleared and every old fact in that
  neighbourhood on the stacks, and runs each sweep only over the
  anchors there.  Each fact it condemns is pushed in turn, which closes
  the set downstream, linear in the facts it condemns however deep the
  cone.
* **carry + re-derive** (new id space): surviving facts translate through
  the old→new id mapping (matched ranges are contiguous, so the whole
  mapping is a handful of mask/shift classes), and one run of the
  generated *derive* function resumes from them: the sweeps re-run as in
  a cold start (pushing only facts their lanes do not hold yet), and the
  stacks start with every carried fact within ``nslots`` hops of the
  changed region -- the only places a missing rule instance can have
  all-carried bodies.  Its finished lanes become the next state.

The fixpoint provably equals cold evaluation; the cold engines stay on as
the parity oracle (randomized edit tests assert incremental == cold
across kernel/seminaive/ground).
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.datalog.analysis import split_disconnected
from repro.datalog.program import Program, Rule
from repro.datalog.terms import Atom, Constant, Variable
from repro.errors import DatalogError
from repro.structures import Structure
from repro.trees.diff import diff_snapshots

Relations = Dict[str, Set[Tuple[int, ...]]]

#: Op kinds a warm-eligible lowering may contain (see
#: :attr:`_Lowering.warm_eligible`).
_WARM_OPS = frozenset(("step", "branch", "ubit", "ibit"))

#: Matches every node whose byte survived the mask conjunction.
_NONZERO = re.compile(rb"[^\x00]")

#: Unbound method for C-speed survivor extraction (``map`` over matches).
_MATCH_START = re.Match.start

#: Binary relation names the kernel can traverse.  Generic ``child`` is
#: backward-functional (parent) with forward traversal by enumeration over
#: *both* schemata (over ``tau_rk`` it is the union of the ``child_k``
#: bijections); ``child<k>`` and the ``tau_ur`` binaries resolve only over
#: their own schema -- the snapshot decides all of this at bind time.
_BINARY_NAME = re.compile(r"^(firstchild|nextsibling|lastchild|child\d*)$")

#: The ``tau_rk`` binaries ``child1``, ``child2``, ...: only ranked
#: snapshots supply them.
_RANKED_CHILD = re.compile(r"^child\d+$")

#: Name prefix of a constant's singleton relation: ``@const:c`` holds at
#: node ``c`` alone (see :func:`_constants_as_relations`).
_CONST = "@const:"

def _anchor_cost(name: Optional[str]) -> int:
    """Selectivity rank of a unary anchor relation (lower enumerates less)."""
    if name is None:
        return 5
    if name.startswith(_CONST):
        return -1  # a single node: the cheapest possible anchor
    if name == "root":
        return 0
    if name.startswith("label_"):
        return 1
    if name in ("leaf", "lastsibling", "firstsibling"):
        return 2
    if name.startswith("notlabel_"):
        return 3
    return 4  # dom or other broad masks


class _Block:
    """One compiled op program: a rule viewed from one entry point.

    ``anchor`` is ``None`` for fact-triggered blocks (entered with the
    fired node in ``start``), or a unary relation name / ``"*"`` (full
    domain) for enumerated blocks (seed rules and 0-ary-triggered rules).
    """

    __slots__ = (
        "anchor",
        "start",
        "nslots",
        "ops",
        "head_pred",
        "head_slot",
        "branches",
        "superlinear",
    )

    def __init__(self, anchor, start, nslots, ops, head_pred, head_slot):
        self.anchor = anchor
        self.start = start
        self.nslots = nslots
        self.ops = tuple(ops)
        self.head_pred = head_pred
        self.head_slot = head_slot
        self.branches = sum(1 for op in ops if op[0] == "branch")
        # A single branch step is linear overall only when every entry node
        # reaches a *distinct* branch source, so the enumerated fan-outs sum
        # to at most |dom|.  Functional steps over the partial bijections
        # preserve that injectivity; a ``child``-backward step (``parent``,
        # many-to-one) or a second branch does not -- such a block can
        # enumerate the same node's children once per entry and degrade to
        # quadratic time (e.g. sweeping the leaves of a star tree and
        # branching over their shared parent's children).
        non_injective_step = any(
            op[0] == "step" and op[1] == "child" for op in ops
        )
        self.superlinear = self.branches >= 2 or (
            self.branches >= 1 and non_injective_step
        )


class _Lowering:
    """One complete lowering of the source program along one route.

    A :class:`KernelProgram` holds one static lowering (direct Theorem 4.2
    or TMNF over ``tau_ur``) and compiles one TMNF over ``tau_rk`` per rank
    of the ranked documents it meets; binding picks the one whose
    relations the document's snapshot supplies.
    """

    __slots__ = (
        "lowered",
        "pred_index",
        "npreds",
        "sweeps",
        "triggers",
        "outputs",
        "route",
        "max_branches",
        "superlinear",
        "hops",
        "pushes",
        "resources",
        "warm_eligible",
        "_worklists",
    )

    def __init__(
        self,
        lowered: Program,
        pred_index: Dict[str, int],
        sweeps: List[_Block],
        triggers: List[List[_Block]],
        outputs: List[Tuple[str, int, int]],
        route: str,
    ):
        self.lowered = lowered
        self.pred_index = pred_index
        self.npreds = len(pred_index)
        self.sweeps = sweeps
        self.triggers = triggers
        self.outputs = outputs
        #: ``"direct"`` (Theorem 4.2 lowering), ``"tmnf"`` (Theorem 5.2
        #: over ``tau_ur``) or ``"tmnf-ranked"`` (Lemma 5.4 expansion +
        #: Theorem 5.2 over ``tau_rk``).
        self.route = route
        blocks = sweeps + [b for group in triggers for b in group]
        self.max_branches = max((b.branches for b in blocks), default=0)
        self.superlinear = any(b.superlinear for b in blocks)
        #: Locality radius for incremental re-evaluation: every slot of a
        #: rule instance sits within ``nslots - 1`` one-hop tree moves of
        #: every other, so an instance touching a changed node keeps all
        #: its slots within ``nslots`` hops of the change.
        self.hops = max((b.nslots for b in blocks), default=1) or 1
        #: Per predicate: whether its facts feed any trigger block (facts
        #: of the others are recorded but never pushed).
        self.pushes = tuple(bool(group) for group in triggers)
        #: Every per-document object the blocks read, as ``(kind, name)``
        #: keys (see :func:`_resource`); the generated worklist receives
        #: them positionally as ``R0, R1, ...``.
        keys: Dict[Tuple[str, str], None] = {}
        for block in blocks:
            keys.update(dict.fromkeys(_block_resources(block)))
        self.resources = tuple(keys)
        #: Whether a run packs a :class:`KernelState` for warm reuse: only
        #: lowerings whose facts are all unary node sets reached by tree
        #: moves from an enumerable anchor -- no 0-ary predicate, no
        #: constant, no ``bcheck`` edge -- because the over-delete
        #: (:func:`_over_delete`) reads no 0-ary lane and re-runs each
        #: sweep from anchors near the change, and a constant names a node
        #: id, which an edit shifts.
        self.warm_eligible = (
            self.npreds > 0
            and not any(name.startswith(_CONST) for _, name in self.resources)
            and all(
                block.head_slot >= 0
                and (block.anchor is None or block.nslots > 0)
                and all(op[0] in _WARM_OPS for op in block.ops)
                for block in blocks
            )
        )
        #: ``(source, derive, condemn)``: the generated worklist source and
        #: its two functions, built on the first run (both at once,
        #: while little else is live) and never pickled.
        self._worklists: Optional[tuple] = None

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_worklists"] = None
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)

    def worklists(self):
        """``(derive, condemn)``, generated by
        :func:`repro.datalog.worklist.worklist_source`."""
        if self._worklists is None:
            # Imported here: only documents that reach the worklist pay
            # for loading the generator.
            from repro.datalog.worklist import worklist_source

            namespace: Dict[str, object] = {}
            sources = []
            # One compile per function halves the compiler's peak memory.
            for condemn in (False, True):
                source = worklist_source(self, condemn)
                code = compile(source, f"<kernel worklist: {self.route}>", "exec")
                exec(code, namespace)
                sources.append(source)
            self._worklists = (
                "".join(sources),
                namespace["derive"],
                namespace["condemn"],
            )
        return self._worklists[1:]

    def bind_args(self, snapshot) -> Optional[list]:
        """Resolve :attr:`resources` against ``snapshot``; ``None`` if any
        is missing (the document does not supply a relation)."""
        args = []
        for kind, name in self.resources:
            value = _resource(snapshot, kind, name)
            if value is None:
                return None
            args.append(value)
        return args


def _block_resources(block: _Block):
    """``(kind, name)`` keys of the per-document objects ``block`` reads."""
    if block.anchor is not None:
        yield ("nodes", block.anchor if block.nslots else "")
    for op in block.ops:
        kind = op[0]
        if kind == "step":
            yield ("fwd" if op[2] else "bwd", op[1])
        elif kind == "bcheck":
            # ``child`` has no forward map: its edge is checked backward.
            yield ("bwd", op[1]) if op[1] == "child" else ("fwd", op[1])
        elif kind == "ubit":
            yield ("mask", op[1])


def _resource(snapshot, kind: str, name: str):
    """One per-document object of a lowering, or ``None`` if unsupported.

    ``fwd`` / ``bwd`` are functional maps, ``mask`` a unary byte mask and
    ``nodes`` an anchor's enumeration: ``"*"`` the whole domain, ``""``
    one pass for a slot-free rule, else the relation's node list.  The
    lowering supplies a constant's singleton ``@const:c`` itself, as a
    mask and as a node list, both empty when ``c`` is outside the domain.
    """
    if kind == "fwd":
        return snapshot.forward_map(name)
    if kind == "bwd":
        return snapshot.backward_map(name)
    if name.startswith(_CONST):
        value = int(name[len(_CONST) :])
        inside = 0 <= value < snapshot.size
        if kind == "nodes":
            return (value,) if inside else ()
        mask = bytearray(snapshot.size)
        if inside:
            mask[value] = 1
        return mask
    if kind == "mask":
        return snapshot.unary_mask(name)
    if name == "*":
        return range(snapshot.size)
    if not name:
        return (0,)
    return snapshot.unary_nodes(name)


#: Incremental runs only pay off while most of the document is reusable;
#: past this unmatched fraction the cold run wins outright.
_INCREMENTAL_DIRTY_LIMIT = 0.5

#: Cap on distinct id-shift classes in the old→new fact translation (a
#: heavily shredded diff translates fact masks in many pieces; cold wins).
_INCREMENTAL_SHIFT_CAP = 64


class KernelState:
    """Reusable residue of one completed kernel run.

    Holds the lowering variant that bound the document, the document's
    snapshot, and the derived big-int node set per predicate -- exactly
    what :meth:`KernelProgram.evaluate` needs, as ``previous``, to
    re-evaluate the next version of the same document.  Every run, cold
    or warm, packs one from its finished lanes (one ``int.from_bytes`` per
    predicate) when its lowering is :attr:`_Lowering.warm_eligible`; any
    other run leaves ``None``, which holders must treat as "start cold"
    -- so a state's lowering never has constants or 0-ary predicates.
    """

    __slots__ = ("variant", "snapshot", "derived")

    def __init__(self, variant: _Lowering, snapshot, derived: List[int]):
        self.variant = variant
        self.snapshot = snapshot
        self.derived = derived


class KernelRun:
    """The outcome of one :meth:`KernelProgram.evaluate` call.

    * ``unary_sets`` -- each unary output predicate's plain ``{node id}``
      set, read straight off the propagation lanes: the unary query's
      answer, which wrappers consume directly;
    * ``relations`` -- each output predicate's derived tuple set, built
      from ``unary_sets`` (and the 0-ary facts) on first read and kept,
      so a caller that reads only ``unary_sets`` never allocates one
      1-tuple per fact;
    * ``stats`` -- cheap per-run counters, one shape for cold and warm
      runs: ``engine`` (``"worklist"`` for a cold run, ``"incremental"``
      for a warm run; either way every sweep and trigger block ran in the
      lowering's generated worklist) and ``facts`` (derived facts at
      fixpoint).  Warm runs add ``dirty`` / ``dirty_fraction``
      (unmatched new nodes), ``carried`` (old facts kept) and
      ``deleted`` (old facts the over-delete condemned);
    * ``state`` -- the :class:`KernelState` to pass as ``previous`` for
      the document's next version, or ``None`` when the lowering is not
      :attr:`_Lowering.warm_eligible`.
    """

    __slots__ = ("unary_sets", "stats", "state", "_outputs", "_held", "_relations")

    def __init__(
        self,
        unary_sets: Dict[str, Set[int]],
        stats: Dict[str, object],
        state: Optional[KernelState],
        outputs: List[Tuple[str, int, int]],
        held: Tuple[str, ...] = (),
    ):
        self.unary_sets = unary_sets
        self.stats = stats
        self.state = state
        #: The lowering's ``(name, pred, arity)`` outputs, and the names of
        #: the 0-ary ones that hold: with ``unary_sets``, all ``relations``
        #: is built from.
        self._outputs = outputs
        self._held = held
        self._relations: Optional[Relations] = None

    @property
    def relations(self) -> Relations:
        relations = self._relations
        if relations is None:
            unary_sets = self.unary_sets
            relations = self._relations = {
                name: (
                    set(zip(unary_sets[name]))
                    if arity == 1
                    else {()} if name in self._held else set()
                )
                for name, _, arity in self._outputs
            }
        return relations


def _expand_hops(snapshot, mask: int, hops: int) -> int:
    """Close a byte-lane node set under ``hops`` one-hop tree moves.

    One hop adds every parent, child, and adjacent sibling of the set --
    the union of the images of every 1-hop relation the kernel can move
    along, in either direction -- read straight off the columns into a
    byte accumulator.
    """
    if not mask or hops <= 0:
        return mask
    size = snapshot.size
    full = snapshot.unary_int("dom")
    parent = snapshot.parent
    firstchild = snapshot.firstchild
    prevsibling = snapshot.prevsibling
    nextsibling = snapshot.nextsibling
    # Breadth-first by frontier: hop k only walks the nodes added in hop
    # k-1 (their neighbours were already folded in when *they* were the
    # frontier), so the whole walk visits each node and each child edge
    # at most once.  Broad documents saturate to the whole domain after a
    # few hops; the ``full`` check stops the walk there.
    frontier = mask
    for _ in range(hops):
        # One spare byte at the end: a missing neighbour (-1) marks it.
        grown = bytearray(size + 1)
        for v in _ids(frontier, size):
            grown[parent[v]] = grown[prevsibling[v]] = grown[nextsibling[v]] = 1
            child = firstchild[v]
            while child >= 0:
                grown[child] = 1
                child = nextsibling[child]
        del grown[size]
        frontier = int.from_bytes(grown, "little") & ~mask
        if not frontier:
            break
        mask |= frontier
        if mask == full:
            break
    return mask


def _ids(packed: int, size: int) -> List[int]:
    """Ascending node ids of a byte-lane big int (a regex scan: fastest on
    sparse sets, such as the frontiers a worklist is seeded from)."""
    if not packed:
        return []
    buffer = packed.to_bytes(size, "little")
    return list(map(_MATCH_START, _NONZERO.finditer(buffer)))


def _over_delete(variant: _Lowering, snapshot, derived: List[int], bad: int):
    """The old facts a warm run condemns, per predicate (old id space).

    One call of the generated condemn worklist over the old ``snapshot``:
    lanes start as the old facts ``derived`` minus those at ``bad``
    nodes, and the stacks hold every old fact within the lowering's
    ``hops`` of a bad node, so each trigger block runs from every entry
    a rule instance touching a bad node can have; sweeps run only over
    the anchors in that neighbourhood.  Every fact condemned on the way
    is pushed, which closes the set downstream.
    """
    if not bad:
        return [0] * len(derived)
    n = snapshot.size
    near = _expand_hops(snapshot, bad, variant.hops)
    lanes = [bytearray((facts & ~bad).to_bytes(n, "little")) for facts in derived]
    # Old-fixpoint lanes only for the predicates some body tests.
    tested = {
        op[1]
        for group in variant.triggers
        for block in group
        for op in block.ops
        if op[0] == "ibit"
    }
    old = [
        bytearray(facts.to_bytes(n, "little")) if p in tested else None
        for p, facts in enumerate(derived)
    ]
    stacks = [
        _ids(facts & near, n) if pushes else []
        for facts, pushes in zip(derived, variant.pushes)
    ]
    args = variant.bind_args(snapshot)
    for i, (kind, name) in enumerate(variant.resources):
        if kind == "nodes":
            anchors = snapshot.unary_int("dom" if name == "*" else name)
            args[i] = _ids(anchors & near, n)
    _, condemn = variant.worklists()
    condemn(
        n,
        snapshot.firstchild,
        snapshot.nextsibling,
        None,
        lanes,
        old,
        stacks,
        args,
    )
    return [
        facts & ~int.from_bytes(lane, "little")
        for facts, lane in zip(derived, lanes)
    ]


class KernelProgram:
    """A monadic program lowered to numeric propagation tables.

    Build with :func:`compile_kernel` (returns ``None`` for a program
    outside the kernel's fragment); evaluate with :meth:`evaluate` (or :meth:`run`).
    The artifact is program-only, keeps no per-run state and is reusable
    across documents.  It holds one linear :class:`_Lowering`, ``lowering``
    -- ``None`` only for a program that reads ``child<k>`` relations, which
    binds ranked documents alone -- and binding a document picks that
    lowering, or else for a ranked snapshot the ranked-TMNF lowering
    compiled for the snapshot's rank.

    Examples
    --------
    >>> from repro.datalog.parser import parse_program
    >>> from repro.trees import parse_sexpr
    >>> from repro.trees.unranked import UnrankedStructure
    >>> program = parse_program(
    ...     "p(x) :- label_a(x).\\np(y) :- p(x), firstchild(x, y).", query="p")
    >>> kernel = compile_kernel(program)
    >>> sorted(kernel.run(UnrankedStructure(parse_sexpr("a(b, c)")))["p"])
    [(0,), (1,)]
    """

    def __init__(self, source: Program, lowering: Optional[_Lowering]):
        self.source = source
        self.lowering = lowering
        #: Lazily compiled ranked-TMNF lowerings, keyed by snapshot
        #: ``max_rank`` (``None`` where the route does not apply).
        self._ranked_cache: Dict[int, Optional[_Lowering]] = {}

    def applicable(self, structure: Structure) -> bool:
        """Whether this kernel can evaluate over ``structure``."""
        return self._bind(structure) is not None

    # -- binding -----------------------------------------------------------

    def _ranked_variant(self, max_rank: int) -> Optional[_Lowering]:
        """The Lemma 5.4 + Theorem 5.2 lowering for rank-``K`` snapshots.

        Compiled lazily the first time a ranked snapshot of this rank
        fails to bind the static lowering: generic ``child`` atoms are
        expanded into the ``child1 | ... | childK`` disjunction, the
        result is normalized into TMNF over the *ranked* signature, and
        the TMNF output -- whose binaries are all bidirectionally
        functional partial bijections -- re-lowers with zero branch steps.
        Cached per rank (including failures).
        """
        if max_rank in self._ranked_cache:
            return self._ranked_cache[max_rank]
        expanded = _expand_generic_child(self.source, max_rank)
        variant = expanded and _tmnf_lowering(
            self.source, expanded, "tmnf-ranked", signature="ranked", max_rank=max_rank
        )
        self._ranked_cache[max_rank] = variant
        return variant

    def _bind(self, structure: Structure):
        """``(lowering, snapshot, args)``: the lowering that binds the
        document, and its resources resolved against the snapshot
        (:meth:`_Lowering.bind_args`), which a run passes to the worklist.

        The static lowering when the snapshot supplies its relations, else
        for a ranked snapshot the ranked-TMNF lowering compiled for the
        snapshot's own rank (a ``child1..childK`` expansion misses the
        children of a higher-rank tree), else ``None``.
        """
        build = getattr(structure, "snapshot", None)
        if build is None:
            return None
        snapshot = build()
        if snapshot is None:
            return None
        lowering = self.lowering
        args = None if lowering is None else lowering.bind_args(snapshot)
        if args is None and snapshot.schema == "ranked" and snapshot.max_rank >= 1:
            lowering = self._ranked_variant(snapshot.max_rank)
            args = None if lowering is None else lowering.bind_args(snapshot)
        return None if args is None else (lowering, snapshot, args)

    # -- evaluation --------------------------------------------------------

    def run(self, structure: Structure) -> Relations:
        """Evaluate over a tree-backed structure; raises if inapplicable."""
        out = self.evaluate(structure)
        if out is None:
            raise DatalogError(
                "kernel strategy does not apply: structure is not tree-backed "
                "or lacks a relation the program needs"
            )
        return out.relations

    def evaluate(
        self, structure: Structure, previous: Optional[KernelState] = None
    ) -> Optional[KernelRun]:
        """Evaluate over ``structure``, or ``None`` if the kernel does not apply.

        Binds the document once.  ``previous`` is the
        :attr:`KernelRun.state` of an earlier run of *this* program over an
        earlier version of the same document: the run goes warm
        (:meth:`_run_warm`) when that state is usable, and cold otherwise.
        A cold run is one call of the lowering's generated worklist.
        """
        bound = self._bind(structure)
        if bound is None:
            return None
        if previous is not None:
            warm = self._run_warm(bound, previous)
            if warm is not None:
                return warm
        return self._run_scalar(bound, "worklist")

    def _run_warm(self, bound, previous: KernelState) -> Optional[KernelRun]:
        """Warm re-evaluation against the previous version's fixpoint.

        Returns ``None`` whenever warm evaluation does not apply, and the
        caller runs cold:

        * the structure bound a different lowering, or either
          snapshot is not an unranked document (ranked ``child_k``
          positions are not edit-stable, so ranked snapshots always re-run
          cold);
        * the diff matched too little of the document
          (:data:`_INCREMENTAL_DIRTY_LIMIT`) or in too many shifted
          pieces (:data:`_INCREMENTAL_SHIFT_CAP`) for reuse to win.

        The result is exactly the cold fixpoint (see the module
        docstring's delete-and-rederive argument).  Both halves run on
        the generated worklist -- one condemn call over the old snapshot,
        one derive call resumed from the carried facts -- and the engine
        reports ``"incremental"``.
        """
        old_snap = previous.snapshot
        variant, snapshot, _ = bound
        if (
            variant is not previous.variant
            or snapshot.schema != "unranked"
            or old_snap.schema != "unranked"
            or not snapshot.size
            or not old_snap.size
        ):
            return None
        d = diff_snapshots(old_snap, snapshot)
        if d.dirty_fraction > _INCREMENTAL_DIRTY_LIMIT:
            return None
        if len({nw - ov for ov, nw, _ in d.ranges}) > _INCREMENTAL_SHIFT_CAP:
            return None
        P = variant.npreds
        hops = variant.hops
        derived_old = previous.derived
        deleted = _over_delete(variant, old_snap, derived_old, d.old_bad_int)

        # Carry the survivors into the new id space and resume the
        # fixpoint from them, with every carried fact near the changed
        # region on the stacks.
        translate = d.translator()
        derived = [0] * P
        deleted_count = carried_count = 0
        region = d.new_bad_int
        for p in range(P):
            dead = deleted[p]
            if dead:
                deleted_count += dead.bit_count()
                region |= translate(dead)
            keep = translate(derived_old[p] & ~dead)
            derived[p] = keep
            carried_count += keep.bit_count()
        pending = [0] * P
        if region:
            # Few survivors around a wide region (a deep cone condemns
            # nearly everything): re-seeding every carried fact costs less
            # than finding the ones near the region, and a re-seeded fact
            # only repeats work, never changes the fixpoint.
            if carried_count <= hops * region.bit_count():
                pending = derived
            else:
                seed_zone = _expand_hops(snapshot, region, hops)
                pending = [facts & seed_zone for facts in derived]
        out = self._run_scalar(bound, "incremental", resume=(derived, pending))
        out.stats = {
            "dirty": d.dirty_count,
            "dirty_fraction": d.dirty_fraction,
            "carried": carried_count,
            "deleted": deleted_count,
            **out.stats,
        }
        return out

    def _run_scalar(self, bound, engine: str, resume=None) -> KernelRun:
        """Run the lowering's generated worklist to the fixpoint.

        ``bound`` is what :meth:`_bind` returned: the document's resources
        are resolved there, once, and passed to the generated code as they
        are.  Cold, the run starts from empty lanes and the sweeps, all
        inside the generated code, seed it.  ``resume=(derived, pending)``
        starts it from a partial fixpoint instead: the derived big ints
        become the lanes, and the pending big ints -- every fact whose
        consequences may still be missing -- seed the stacks; the sweeps
        re-run, each pushing only the facts its lane does not hold yet.
        Either way the finished lanes pack into the run's state when the
        lowering is warm-eligible.  ``engine`` is the name the run's stats
        report.
        """
        variant, snapshot, args = bound
        P = variant.npreds
        n = snapshot.size
        if resume is None:
            lanes = [bytearray(n) for _ in range(P)]
            stacks: List[List[int]] = [[] for _ in range(P)]
        else:
            derived, pending = resume
            lanes = [bytearray(d.to_bytes(n, "little")) for d in derived]
            stacks = [
                _ids(facts, n) if pushes else []
                for facts, pushes in zip(pending, variant.pushes)
            ]
        gbits = bytearray(P)
        if P:
            derive, _ = variant.worklists()
            derive(
                n,
                snapshot.firstchild,
                snapshot.nextsibling,
                gbits,
                lanes,
                None,
                stacks,
                args,
            )
        state = None
        if variant.warm_eligible:
            state = KernelState(
                variant,
                snapshot,
                [int.from_bytes(lane, "little") for lane in lanes],
            )
        unary_sets: Dict[str, Set[int]] = {}
        held = []
        for name, pred, arity in variant.outputs:
            if arity == 1:
                lane = lanes[pred] if pred >= 0 else b""
                unary_sets[name] = set(itertools.compress(range(n), lane))
            elif pred >= 0 and gbits[pred]:
                held.append(name)
        stats = {
            "engine": engine,
            "facts": sum(lane.count(1) for lane in lanes) + gbits.count(1),
        }
        return KernelRun(unary_sets, stats, state, variant.outputs, tuple(held))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        lowering = self.lowering
        if lowering is None:
            return "KernelProgram(ranked-TMNF lowerings only)"
        return (
            f"KernelProgram({len(lowering.lowered.rules)} rules via "
            f"{lowering.route!r}, {lowering.npreds} predicate bits)"
        )


# -- compilation -----------------------------------------------------------


def _spanning(
    nslots: int,
    edges: List[Tuple[int, int, str, int]],
    sources: Set[int],
) -> Optional[Tuple[List[Tuple[str, tuple]], Set[int]]]:
    """Minimum-branch traversal order binding all slots from ``sources``.

    Edges come from binary body atoms ``R(a, b)``; each is traversable
    ``b -> a`` by the backward functional map (cost 0) and ``a -> b`` by
    the forward map (cost 0) or, for ``child``, by enumeration (cost 1).
    ``sources`` are the slots bound before any move runs -- the entry
    slot plus every constant's slot.  Returns
    ``(moves, tree_atom_indexes)`` where each move is
    ``("step"| "branch", (rel, forward, from, to))`` in bind order, via a
    0-1 BFS; ``None`` when some slot is unreachable (a disconnected rule,
    which :func:`split_disconnected` should have prevented).
    """
    if nslots == 0:
        return [], set()
    adjacency: List[List[Tuple[int, int, str, bool, int]]] = [
        [] for _ in range(nslots)
    ]
    for index, (a, b, rel, atom_idx) in enumerate(edges):
        if a == b:
            continue
        forward_cost = 1 if rel == "child" else 0
        adjacency[a].append((forward_cost, b, rel, True, atom_idx))
        adjacency[b].append((0, a, rel, False, atom_idx))
    INF = float("inf")
    dist = [INF] * nslots
    via: List[Optional[Tuple[int, str, bool, int, int]]] = [None] * nslots
    queue = deque()
    for start in sources:
        dist[start] = 0
        queue.append(start)
    while queue:
        u = queue.popleft()
        for cost, v, rel, forward, atom_idx in adjacency[u]:
            nd = dist[u] + cost
            if nd < dist[v]:
                dist[v] = nd
                via[v] = (u, rel, forward, atom_idx, cost)
                if cost:
                    queue.append(v)
                else:
                    queue.appendleft(v)
    if any(d is INF for d in dist):
        return None
    moves: List[Tuple[str, tuple]] = []
    tree_atoms: Set[int] = set()
    # Emit moves in an order where each move's source slot is already
    # bound: repeated passes over the predecessor tree (nslots is tiny).
    bound = set(sources)
    pending = set(range(nslots)) - bound
    while pending:
        progressed = False
        for v in sorted(pending):
            u, rel, forward, atom_idx, cost = via[v]
            if u in bound:
                kind = "branch" if cost else "step"
                payload = (rel, forward, u, v) if kind == "step" else (rel, u, v)
                moves.append((kind, payload))
                tree_atoms.add(atom_idx)
                bound.add(v)
                pending.discard(v)
                progressed = True
                break
        if not progressed:
            return None
    return moves, tree_atoms


class _RuleShape:
    """Symbolic per-rule tables shared by every entry point of the rule."""

    __slots__ = (
        "rule",
        "nslots",
        "edges",
        "unary_ext",
        "unary_int",
        "gbits",
        "head_pred",
        "head_slot",
    )


def _shape(rule: Rule, pred_index: Dict[str, int], intensional: Set[str]):
    """Extract the numeric shape of one rule of the kernel's fragment."""
    shape = _RuleShape()
    shape.rule = rule
    slot_of: Dict[Variable, int] = {}
    for variable in sorted(rule.variables(), key=lambda v: v.name):
        slot_of[variable] = len(slot_of)
    shape.edges = []
    shape.unary_ext = []
    shape.unary_int = []
    shape.gbits = []
    for atom_idx, atom in enumerate(rule.body):
        if atom.arity == 0:
            shape.gbits.append((pred_index[atom.pred], atom_idx))
        elif atom.arity == 1:
            slot = slot_of[atom.args[0]]
            if atom.pred in intensional:
                shape.unary_int.append((pred_index[atom.pred], slot, atom_idx))
            else:
                shape.unary_ext.append((atom.pred, slot, atom_idx))
        else:
            a, b = (slot_of[t] for t in atom.args)
            shape.edges.append((a, b, atom.pred, atom_idx))
    shape.nslots = len(slot_of)
    head = rule.head
    shape.head_pred = pred_index[head.pred]
    shape.head_slot = slot_of[head.args[0]] if head.arity == 1 else -1
    return shape


def _assemble(
    shape: _RuleShape, start: int, skip_atom: int
) -> Optional[List[tuple]]:
    """Full op list for one entry point, checks as early as possible."""
    # A constant's slot other than the entry one is bound before any move
    # (``cbind``), and the bind is its ``@const:`` atom's check.  One bind
    # per slot: any other constant on the slot stays a mask check.
    pins = {
        slot: (int(name[len(_CONST) :]), atom_idx)
        for name, slot, atom_idx in shape.unary_ext
        if name.startswith(_CONST) and slot != start
    }
    pinned_atoms = {atom_idx for _, atom_idx in pins.values()}
    sources = {start, *pins}
    result = _spanning(shape.nslots, shape.edges, sources)
    if result is None:
        return None
    moves, tree_atoms = result
    ops: List[tuple] = []
    for pred, atom_idx in shape.gbits:
        if atom_idx != skip_atom:
            ops.append(("gbit", pred))

    checks_by_slot: Dict[int, List[tuple]] = {}
    for name, slot, atom_idx in shape.unary_ext:
        if atom_idx != skip_atom and atom_idx not in pinned_atoms:
            checks_by_slot.setdefault(slot, []).append(("ubit", name, slot))
    for pred, slot, atom_idx in shape.unary_int:
        if atom_idx != skip_atom:
            checks_by_slot.setdefault(slot, []).append(("ibit", pred, slot))

    remaining_binary = [
        (a, b, rel, atom_idx)
        for a, b, rel, atom_idx in shape.edges
        if atom_idx not in tree_atoms
    ]
    bound: Set[int] = set(sources)

    def flush(slot: int) -> None:
        ops.extend(checks_by_slot.pop(slot, ()))
        for entry in list(remaining_binary):
            a, b, rel, _ = entry
            if a in bound and b in bound:
                ops.append(("bcheck", rel, a, b))
                remaining_binary.remove(entry)

    for slot, (value, _) in pins.items():
        ops.append(("cbind", value, slot))
    if shape.nslots:
        flush(start)
        for slot in pins:
            flush(slot)
    for kind, payload in moves:
        ops.append((kind, *payload))
        target = payload[-1]
        bound.add(target)
        flush(target)
    assert not remaining_binary and not checks_by_slot
    return ops


def _pick_anchor(shape: _RuleShape, skip_atom: int) -> Optional[_Block]:
    """Best enumerated entry point: fewest branches, then selectivity."""
    candidates: List[Tuple[Optional[str], int]] = [
        (name, slot) for name, slot, atom_idx in shape.unary_ext
    ]
    if shape.nslots:
        candidates.append((None, shape.head_slot if shape.head_slot >= 0 else 0))
    else:
        candidates.append((None, 0))
    best: Optional[Tuple[tuple, _Block]] = None
    for name, slot in candidates:
        ops = _assemble(shape, slot, skip_atom)
        if ops is None:
            continue
        if name is not None:
            # The enumeration guarantees one check of the anchor relation.
            ops.remove(("ubit", name, slot))
        block = _Block(
            name or "*", slot, shape.nslots, ops, shape.head_pred, shape.head_slot
        )
        key = (block.superlinear, block.branches, _anchor_cost(name), len(ops))
        if best is None or key < best[0]:
            best = (key, block)
    return None if best is None else best[1]


def _lower(source: Program, lowered: Program, route: str) -> Optional[_Lowering]:
    """Lower a connected monadic program into kernel tables."""
    intensional = lowered.intensional_predicates()
    pred_index = {name: i for i, name in enumerate(sorted(intensional))}
    sweeps: List[_Block] = []
    triggers: List[List[_Block]] = [[] for _ in pred_index]
    for rule in lowered.rules:
        shape = _shape(rule, pred_index, intensional)
        occurrences = [
            ("unary", pred, slot, atom_idx)
            for pred, slot, atom_idx in shape.unary_int
        ] + [("global", pred, -1, atom_idx) for pred, atom_idx in shape.gbits]
        if not occurrences:
            block = _pick_anchor(shape, skip_atom=-1)
            if block is None:
                return None
            sweeps.append(block)
            continue
        for kind, pred, slot, atom_idx in occurrences:
            if kind == "unary":
                ops = _assemble(shape, slot, atom_idx)
                if ops is None:
                    return None
                block = _Block(
                    None, slot, shape.nslots, ops, shape.head_pred, shape.head_slot
                )
            else:
                block = _pick_anchor(shape, skip_atom=atom_idx)
                if block is None:
                    return None
            triggers[pred].append(block)

    source_intensional = source.intensional_predicates()
    arities = {
        atom.pred: atom.arity
        for rule in source.rules
        for atom in (rule.head, *rule.body)
        if atom.pred in source_intensional
    }
    outputs = [
        (name, pred_index.get(name, -1), arities.get(name, 1))
        for name in sorted(source_intensional)
    ]
    return _Lowering(lowered, pred_index, sweeps, triggers, outputs, route)


def fragment_violation(program: Program) -> Optional[str]:
    """Why ``program`` lies outside the kernel's fragment, or ``None``.

    The fragment is the monadic programs over the tree signature whose
    heads hold no constant: every body relation is intensional, unary, or
    one of the tree binaries the kernel traverses (:data:`_BINARY_NAME`),
    and every intensional predicate keeps one arity.  The check runs
    before any lowering: the TMNF route would silently drop a rule over
    another relation (such as Elog-Delta's ``before[...]`` conditions) and
    bind a kernel that evaluates the wrong program.  A head constant
    stays outside: ``p(9) :- label_a(x).`` derives ``(9,)`` whether or
    not node 9 exists, which no node set represents.

    >>> from repro.datalog.parser import parse_program
    >>> fragment_violation(parse_program("p(x) :- label_a(y), docorder(y, x)."))
    "'docorder' is not a relation of the tree signature"
    """
    intensional = program.intensional_predicates()
    arities: Dict[str, int] = {}
    for rule in program.rules:
        if any(isinstance(term, Constant) for term in rule.head.args):
            return f"the head of {rule} holds a constant"
        for atom in (rule.head, *rule.body):
            if atom.pred in intensional:
                if atom.arity > 1:
                    return f"{atom.pred!r} has arity > 1: the program is not monadic"
                if arities.setdefault(atom.pred, atom.arity) != atom.arity:
                    return f"{atom.pred!r} is used with two arities"
            elif atom.arity != 1 and not (
                atom.arity == 2 and _BINARY_NAME.match(atom.pred)
            ):
                return f"{atom.pred!r} is not a relation of the tree signature"
    return None


def _constants_as_relations(program: Program) -> Program:
    """Every body constant ``c`` of a rule becomes a fresh variable ``v``
    and the atom ``@const:c(v)``.

    ``v`` is named ``@c`` (``@c5`` for 5), which no parsed program can
    use, and one variable serves every occurrence of ``c`` in the rule.
    Head constants are not rewritten (:func:`fragment_violation` keeps
    them out).  A program without body constants is returned as it is.
    """
    if not any(
        isinstance(t, Constant) for r in program.rules for a in r.body for t in a.args
    ):
        return program
    rules: List[Rule] = []
    for rule in program.rules:
        fresh: Dict[int, Variable] = {}

        def term(t):
            if isinstance(t, Constant):
                return fresh.setdefault(t.value, Variable(f"@c{t.value}"))
            return t

        body = [Atom(atom.pred, tuple(map(term, atom.args))) for atom in rule.body]
        body.extend(Atom(f"{_CONST}{c}", (v,)) for c, v in fresh.items())
        rules.append(Rule(rule.head, body))
    return Program(rules, query=program.query, declared=program.declared)


def compile_kernel(program: Program) -> Optional[KernelProgram]:
    """Compile ``program`` for the propagation kernel, or ``None``.

    Body constants first become unary relations
    (:func:`_constants_as_relations`).  The kernel then holds one linear
    lowering: the direct Theorem 4.2 lowering (connectedness split +
    functional propagation) unless some rule's best direct lowering is
    *superlinear* -- it chains two branching ``child`` traversals, or
    reaches a branch through the many-to-one ``parent`` map, either of
    which can exceed the linear bound -- and otherwise the Theorem 5.2
    TMNF normalization, whose rules only use bidirectionally functional
    relations.  A program with ``child<k>`` relations, which only ranked
    documents supply, may still compile without a static lowering:
    ranked documents then bind the ranked-TMNF lowering of their rank.
    Returns ``None`` for programs outside the fragment
    (:func:`fragment_violation`); callers then fall back to another
    strategy.

    >>> from repro.datalog.parser import parse_program
    >>> from repro.trees import parse_sexpr
    >>> from repro.trees.unranked import UnrankedStructure
    >>> anchored = compile_kernel(parse_program(
    ...     "p(x) :- firstchild(0, x).", query="p"))
    >>> sorted(anchored.run(UnrankedStructure(parse_sexpr("a(b, c)")))["p"])
    [(1,)]
    """
    if fragment_violation(program) is not None:
        return None
    program = _constants_as_relations(program)
    direct = _lower(program, split_disconnected(program), "direct")
    if direct is not None and not direct.superlinear:
        return KernelProgram(program, direct)
    normalized = _tmnf_lowering(program, program, "tmnf")
    if normalized is not None:
        return KernelProgram(program, normalized)
    # ``child<k>`` binds only ranked snapshots, and each of those gets the
    # linear ranked-TMNF lowering of its rank (:meth:`_ranked_variant`).
    if direct is not None and any(
        _RANKED_CHILD.match(atom.pred)
        for rule in program.rules
        for atom in rule.body
    ):
        return KernelProgram(program, None)
    return None


def _tmnf_lowering(
    source: Program, program: Program, route: str, **signature
) -> Optional[_Lowering]:
    """The lowering of ``program``'s Theorem 5.2 TMNF, or ``None`` unless
    the normalization succeeds and the lowering has no branch step.

    TMNF heads are unary, so each 0-ary predicate ``h`` is normalized as
    the unary ``h@`` pinned to the root, and the rule ``h :- h@(x)``,
    added after the normalization, reads it back.
    """
    from repro.errors import TMNFError
    from repro.tmnf.pipeline import to_tmnf

    nullary = sorted(
        {atom.pred for rule in program.rules for atom in (rule.head, *rule.body)
         if not atom.arity}
    )
    roots = itertools.count()

    def lift(atom: Atom) -> List[Atom]:
        if atom.arity:
            return [atom]
        v = Variable(f"@r{next(roots)}")
        return [Atom(f"{atom.pred}@", (v,)), Atom("root", (v,))]

    if nullary:
        program = Program(
            [
                Rule(head, [*pin, *(a for atom in rule.body for a in lift(atom))])
                for rule in program.rules
                for head, *pin in [lift(rule.head)]
            ],
            declared=program.declared | {f"{h}@" for h in nullary},
        )
    x = Variable("x")
    try:
        normalized = to_tmnf(program, **signature).program.extend(
            Rule(Atom(h), [Atom(f"{h}@", (x,))]) for h in nullary
        )
        lowering = _lower(source, split_disconnected(normalized), route)
    except (TMNFError, DatalogError):
        return None
    if lowering is not None and lowering.max_branches == 0:
        return lowering
    return None


def _expand_generic_child(program: Program, max_rank: int) -> Optional[Program]:
    """Lemma 5.4 preprocessing: expand ``child`` over a rank-``K`` signature.

    Every generic ``child(x, y)`` body atom is replaced by the disjunction
    ``child1(x, y) | ... | childK(x, y)`` -- one rule copy per choice, so
    a rule with ``m`` generic atoms yields ``K^m`` copies.  Returns
    ``None`` when ``max_rank`` is not positive or a rule would blow up
    past a small cap (such programs fall back to the general engine).
    """
    if max_rank < 1:
        return None
    rules: List[Rule] = []
    for rule in program.rules:
        positions = [
            index for index, atom in enumerate(rule.body) if atom.pred == "child"
        ]
        if not positions:
            rules.append(rule)
            continue
        if max_rank ** len(positions) > 64:
            return None
        for combo in itertools.product(
            range(1, max_rank + 1), repeat=len(positions)
        ):
            body = list(rule.body)
            for position, k in zip(positions, combo):
                body[position] = Atom(f"child{k}", body[position].args)
            rules.append(Rule(rule.head, body))
    return Program(rules, query=program.query, declared=program.declared)
