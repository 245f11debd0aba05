"""Wrappers: bundles of information extraction functions.

A :class:`Wrapper` maps extraction-predicate names to unary queries; it
hosts queries in the library's front-end formalisms (Elog- programs,
monadic datalog programs, MSO formulas), evaluates them all on a document,
and assembles the wrapped output tree of Section 6's introduction.  Every
front end lowers to monadic datalog at registration -- Elog- by
Definition 6.2, MSO by Theorem 4.4 -- so a wrapper holds one kind of
extraction function and runs it the same way on every document form.

The wrapper is a *compile-once* artifact: every registered datalog/Elog
program is compiled into a :class:`repro.datalog.plan.CompiledProgram` the
first time it runs and the plan is reused for every subsequent document.
Extraction functions registered from the *same* program object share one
plan and one evaluation per document, so a wrapper pulling several
patterns out of one Elog- program pays for a single fixpoint.

Documents come in two representations, interchangeable everywhere:

* classic :class:`repro.trees.node.Node` trees (``parse_html`` /
  ``parse_sexpr`` output), wrapped in a shared per-document
  :class:`repro.structures.IndexedStructure`;
* streaming :class:`repro.wrap.document.Document` facades -- snapshot
  columns straight from the HTML tokenizer events, **no Node objects**
  -- whose outputs are assembled by
  :func:`repro.wrap.output.build_output_from_snapshot`.

The batch entry points :meth:`Wrapper.extract_many` /
:meth:`Wrapper.wrap_many` accept either representation, and
:meth:`Wrapper.wrap_html_many` / :meth:`Wrapper.extract_html_many` run
the streaming path end to end from raw HTML strings.  Those two and the
warm :meth:`Wrapper.wrap_html_stateful` share one per-page core that
returns ``(output, state, stats)`` -- the same per-stage stats a serving
shard ships back to its router.  The batch entry points run serially in
the calling process; parallelism across documents belongs to the serving
layer (:class:`repro.serve.executor.ShardExecutor`), whose long-lived
shards receive the wrapper once, pickled.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.datalog.plan import CompiledProgram, compile_program
from repro.datalog.program import Program
from repro.elog.syntax import ElogProgram
from repro.elog.translate import elog_to_datalog
from repro.errors import AutomatonError, WrapError
from repro.structures import IndexedStructure, as_indexed
from repro.trees.node import Node
from repro.trees.stream import html_snapshot_warm
from repro.trees.unranked import UnrankedStructure
from repro.wrap.document import Document
from repro.wrap.output import (
    OutputNode,
    build_output_from_snapshot,
    build_output_tree,
)

#: Anything the wrapper can treat as one document.
DocumentLike = Union[Node, Document, UnrankedStructure, IndexedStructure]


class WrapperState:
    """Opaque per-document state for :meth:`Wrapper.wrap_html_stateful`.

    Holds what the previous version of one document left: its snapshot,
    the page :func:`repro.trees.stream.html_snapshot_warm` compares the
    next version with (the version's HTML, or
    :data:`~repro.trees.stream.GENERAL` when its build took the general
    scanner step, so the next version builds cold without comparing), the
    rank table that places changed text runs on text node ids (an
    ``array`` of one int per piece of the page split on ``<``; ``None``
    until a comparison needs it) and, per distinct compiled plan (in
    registration order), the plan's kernel state -- the snapshot plus the
    plan's answer ids.  Feed it back as ``prior`` when the *next* version
    of the same document arrives.  When the page's structure is
    unchanged, the new snapshot shares every column of the previous one
    but the texts; a plan reuses its answer when the page's tree (tags
    and nesting) is unchanged, and runs cold otherwise or when its
    previous run left no kernel state.
    """

    __slots__ = ("states", "snapshot", "page", "ranks")

    def __init__(self, states: Dict[int, object], snapshot, page, ranks):
        self.states = states
        self.snapshot = snapshot
        self.page = page
        self.ranks = ranks


class Wrapper:
    """A wrapper = an ordered set of named information extraction functions.

    Extraction functions are added through the ``add_*`` methods; the
    order of addition is the relabeling priority (when a node matches
    several predicates, the earliest-added wins -- wrappers that need
    multi-labels should merge names beforehand).

    Examples
    --------
    >>> from repro.trees import parse_sexpr
    >>> from repro.datalog import parse_program
    >>> w = Wrapper()
    >>> _ = w.add_datalog("item", parse_program(
    ...     "item(x) :- label_li(x).", query="item"))
    >>> tree = parse_sexpr("ul(li, li)")
    >>> w.wrap(tree).to_sexpr()
    'result(item, item)'
    >>> [out.to_sexpr() for out in w.wrap_many(
    ...     [parse_sexpr("ul(li)"), parse_sexpr("ul(li, li, li)")])]
    ['result(item)', 'result(item, item, item)']

    The streaming path wraps raw HTML without ever building a tree:

    >>> from repro.wrap.document import Document
    >>> w.wrap(Document.from_html("<ul><li>a<li>b</ul>")).to_sexpr()
    'result(item, item)'
    >>> [out.to_sexpr() for out in w.wrap_html_many(["<ul><li>a</ul>"])]
    ['result(item)']
    """

    def __init__(self):
        #: ``(name, program, predicate)`` per extraction function.
        self._functions: List[Tuple[str, Program, str]] = []
        #: The labels every MSO function's closed alphabet holds (``None``
        #: without MSO functions): documents with other labels are refused.
        self._alphabet: Optional[frozenset] = None
        #: Lazily compiled plans, keyed by position in ``self._functions``
        #: (functions registered from the same program object share the
        #: same plan instance).
        self._compiled: Dict[int, CompiledProgram] = {}
        #: Elog- translation cache: ``id(program) -> (program, datalog)``.
        #: The source program is retained in the value so a recycled
        #: object id can never alias a freed program (the hit is verified
        #: by identity); dropped on pickling (ids are not stable across
        #: processes).
        self._elog_cache: Dict[int, tuple] = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_elog_cache"] = {}
        return state

    # -- registration --------------------------------------------------------

    def add_datalog(self, name: str, program: Program, predicate: Optional[str] = None) -> "Wrapper":
        """Add an extraction function given by a monadic datalog program.

        ``predicate`` defaults to the program's query predicate.
        """
        pred = predicate or program.query
        if pred is None:
            raise WrapError("datalog extraction needs a query predicate")
        self._functions.append((name, program, pred))
        return self

    def add_elog(self, name: str, program: ElogProgram, pattern: Optional[str] = None) -> "Wrapper":
        """Add an extraction function given by an Elog- pattern.

        Registering several patterns of the *same* program object shares
        one translation, one compiled plan, and one evaluation per
        document.
        """
        pat = pattern or program.query
        if pat is None:
            raise WrapError("Elog extraction needs a query pattern")
        cached = self._elog_cache.get(id(program))
        if cached is not None and cached[0] is program:
            datalog = cached[1]
        else:
            datalog = elog_to_datalog(program)
            self._elog_cache[id(program)] = (program, datalog)
        self._functions.append((name, datalog, pat))
        return self

    def add_mso(self, name: str, formula, free_var: str, labels: Sequence[str]) -> "Wrapper":
        """Add an extraction function given by a unary MSO query.

        The query lowers to monadic datalog (Theorem 4.4,
        :func:`repro.mso.to_datalog.mso_to_datalog`).  Its alphabet
        ``labels`` is closed: wrapping a document with any other label
        raises :class:`repro.errors.AutomatonError`, on every path.
        """
        from repro.mso.to_datalog import mso_to_datalog

        program, _ = mso_to_datalog(formula, free_var, labels)
        alphabet = frozenset(labels)
        self._alphabet = alphabet if self._alphabet is None else self._alphabet & alphabet
        return self.add_datalog(name, program)

    # -- compilation ---------------------------------------------------------

    def compile(self) -> "Wrapper":
        """Eagerly compile every registered datalog/Elog program.

        Normally compilation happens lazily on first use; call this to
        move the cost out of the first document (e.g. before timing a
        batch, or before pickling the wrapper into a serving shard).  The
        kernel tables and join plans are fully materialized, so a shard
        receives a ready-to-run artifact.
        """
        for index, (_, program, _) in enumerate(self._functions):
            self._compiled_plan(index, program).prepare()
        return self

    def _compiled_plan(self, index: int, program: Program) -> CompiledProgram:
        plan = self._compiled.get(index)
        if plan is None:
            # Reuse the plan of any earlier function registered from the
            # same program object (identity, not equality: programs are
            # immutable artifacts held by ``self._functions``).
            for other, (_, earlier, _) in enumerate(self._functions[:index]):
                if earlier is program:
                    plan = self._compiled.get(other)
                    if plan is not None:
                        break
            if plan is None:
                plan = compile_program(program)
            self._compiled[index] = plan
        return plan

    # -- evaluation ----------------------------------------------------------

    def names(self) -> List[str]:
        """Extraction-function names in priority order."""
        return [name for name, _, _ in self._functions]

    def _extract_structure(
        self,
        structure: IndexedStructure,
        prior: Optional[WrapperState] = None,
    ) -> Tuple[Dict[str, Set[int]], Dict[int, object], List[Dict]]:
        """Evaluate all extraction functions against one shared runtime.

        Each distinct compiled plan is evaluated once, warm against its
        state in ``prior`` when there is one (a plan without a usable
        state runs cold; see :meth:`CompiledProgram.run_incremental`).
        Returns ``(ids, states, runs)``: node-id sets per name, the plans'
        kernel states for the document's next version (a
        :class:`WrapperState`'s ``states``), and one stats dict per plan
        evaluation (``EvaluationResult.stats``, or a minimal
        ``{"engine": ...}`` for non-kernel strategies).
        """
        if self._alphabet is not None:
            # The first unlisted label in document order, as select_ids.
            for label in structure.snapshot().labels:
                if label not in self._alphabet:
                    raise AutomatonError(
                        f"tree label {label!r} outside the automaton alphabet"
                    )
        prior_states = prior.states if prior is not None else {}
        out: Dict[str, Set[int]] = {}
        #: One evaluation per distinct compiled plan per document.
        results: Dict[int, object] = {}
        #: Kernel states by plan slot: distinct plans in order of first
        #: use, stable across calls because ``self._functions`` is fixed.
        states: Dict[int, object] = {}
        runs: List[Dict] = []
        for index, (name, program, pred) in enumerate(self._functions):
            plan = self._compiled_plan(index, program)
            result = results.get(id(plan))
            if result is None:
                slot = len(states)
                result, states[slot], _ = plan.run_incremental(
                    structure, prior_states.get(slot)
                )
                results[id(plan)] = result
                runs.append(
                    dict(result.stats)
                    if result.stats
                    else {"engine": result.engine or result.method}
                )
            ids = result.unary(pred)
            known = out.get(name)
            # Merge without mutating ``ids`` (it may be an engine-owned
            # set): the common single-contribution case stores it as is.
            out[name] = ids if known is None else known | ids
        return out, states, runs

    def _runtime(self, document: DocumentLike) -> IndexedStructure:
        """One shared :class:`IndexedStructure` for any document form."""
        if isinstance(document, Node):
            return as_indexed(UnrankedStructure(document))
        return as_indexed(document)

    def extract(
        self,
        document: DocumentLike,
        structure: Optional[UnrankedStructure] = None,
    ) -> Dict[str, Set[int]]:
        """Evaluate all extraction functions; node-id sets per name.

        ``document`` may be a parsed :class:`Node` tree or a streaming
        :class:`Document`; ``structure`` may supply an existing (possibly
        indexed) structure for the document so the relational view is not
        rebuilt.
        """
        if structure is None:
            runtime = self._runtime(document)
        else:
            runtime = as_indexed(structure)
        return self._extract_structure(runtime)[0]

    def extract_many(
        self, documents: Iterable[DocumentLike]
    ) -> List[Dict[str, Set[int]]]:
        """Batch :meth:`extract`: one shared indexed structure per document,
        all extraction programs compiled exactly once across the batch.
        """
        self.compile()
        return [self.extract(document) for document in documents]

    def wrap(self, document: DocumentLike, root_label: str = "result") -> OutputNode:
        """Wrap a document: extract, relabel, build the output tree."""
        runtime = self._runtime(document)
        ids = self._extract_structure(runtime)[0]
        return self._assemble(runtime, ids, root_label)

    def wrap_many(
        self,
        documents: Sequence[DocumentLike],
        root_label: str = "result",
    ) -> List[OutputNode]:
        """Batch :meth:`wrap` over a stream of documents.

        Builds exactly one :class:`repro.structures.IndexedStructure` per
        document and reuses every compiled extraction plan across the whole
        batch.
        """
        self.compile()
        return [self.wrap(document, root_label) for document in documents]

    # -- streaming HTML: one per-page core -----------------------------------

    def wrap_html_many(
        self, pages: Sequence[str], root_label: str = "result"
    ) -> List[OutputNode]:
        """Wrap raw HTML pages end to end on the streaming path.

        Each page goes HTML string -> tokenizer events -> snapshot columns
        -> propagation kernel -> output tree, with **zero Node objects**
        anywhere.
        """
        self.compile()
        return [self._wrap_page(page, None, root_label)[0] for page in pages]

    def wrap_html_stateful(
        self,
        page: str,
        prior: Optional[WrapperState] = None,
        root_label: str = "result",
    ) -> Tuple[OutputNode, WrapperState, Dict]:
        """Wrap one HTML page, warm against its previous version.

        This is the per-page core every raw-HTML entry point and every
        serving shard runs.  ``prior`` is the :class:`WrapperState`
        returned for an earlier version of the *same* document (``None``
        starts cold).  Returns ``(output, state, stats)``: the output
        tree, the state to feed the next version, and the per-stage
        stats a shard ships back to the router::

            {"snapshot_build_ms": float,   # HTML -> columnar snapshot
             "snapshot_reused": bool,      # the snapshot shares the prior
                                           # version's structure columns
             "kernel_ms": float,           # extraction + output assembly
             "runs": [...],                # one EvaluationResult.stats
                                           # dict per distinct plan
             "warm": bool,                 # some plan reused the prior
                                           # fixpoint (engine incremental)
             "dirty": int | None,          # 0 when a plan reused its
             "dirty_fraction": float | None}   # fixpoint, None when cold

        A warm attempt (``prior`` given) first compares the page with the
        prior version's, piece by piece on ``<``
        (:func:`repro.trees.stream.html_snapshot_warm`).  When every
        differing piece keeps its tag text and the blankness of its text
        run, the snapshot shares the prior's structural columns and only
        the changed texts are new (``snapshot_reused``); otherwise it
        builds cold.  A version with comments, raw text or tags that the
        general scanner step reads keeps no page, and its next version
        builds cold without a comparison.

        A plan reuses its previous fixpoint when the page's tree -- its
        elements, their nesting and their tags -- is unchanged, whatever
        happened to the text and attributes: a monadic datalog query over
        the tree reads neither (Theorem 4.2).  Any other version runs
        cold.  Plans outside the kernel fragment run cold on every
        version, so this is always safe to call.

        >>> from repro.datalog import parse_program
        >>> w = Wrapper().add_datalog("item", parse_program(
        ...     "item(x) :- label_li(x).", query="item"))
        >>> out, state, stats = w.wrap_html_stateful("<ul><li>a<li>b</ul>")
        >>> out.to_sexpr(), stats["warm"]
        ('result(item, item)', False)
        >>> stats["runs"][0]["engine"]
        'worklist'
        >>> stats["snapshot_build_ms"] >= 0.0
        True
        >>> out, state, stats = w.wrap_html_stateful(
        ...     "<ul><li>a<li>c</ul>", prior=state)
        >>> out.to_sexpr(), stats["warm"], stats["dirty"], stats["snapshot_reused"]
        ('result(item, item)', True, 0, True)
        >>> out, state, stats = w.wrap_html_stateful(
        ...     "<ul><li>a<li>c<li>d</ul>", prior=state)
        >>> out.to_sexpr(), stats["warm"], stats["snapshot_reused"]
        ('result(item, item, item)', False, False)
        """
        self.compile()
        return self._wrap_page(page, prior, root_label)

    def extract_html_many(self, pages: Sequence[str]) -> List[Dict[str, Set[int]]]:
        """Batch extraction from raw HTML pages on the streaming path."""
        self.compile()
        return [self._wrap_page(page, None, None)[0] for page in pages]

    # -- internals -----------------------------------------------------------

    def _wrap_page(
        self,
        page: str,
        prior: Optional[WrapperState],
        root_label: Optional[str],
    ):
        """HTML -> snapshot -> one evaluation per plan -> output tree.

        ``root_label=None`` skips assembly and returns the node-id sets
        as the output.  See :meth:`wrap_html_stateful` for the result.
        """
        started = time.perf_counter()
        if prior is None:
            snapshot, kept, ranks, reused = html_snapshot_warm(page)
        else:
            snapshot, kept, ranks, reused = html_snapshot_warm(
                page, prior.page, prior.snapshot, prior.ranks
            )
        runtime = as_indexed(Document(snapshot))
        built = time.perf_counter()
        ids, states, runs = self._extract_structure(runtime, prior)
        output = ids if root_label is None else self._assemble(runtime, ids, root_label)
        finished = time.perf_counter()
        dirtiest = max(
            (run for run in runs if run.get("dirty") is not None),
            key=lambda run: run["dirty"],
            default={},
        )
        stats = {
            "snapshot_build_ms": round((built - started) * 1e3, 3),
            "snapshot_reused": reused,
            "kernel_ms": round((finished - built) * 1e3, 3),
            "runs": runs,
            "warm": any(run.get("engine") == "incremental" for run in runs),
            "dirty": dirtiest.get("dirty"),
            "dirty_fraction": dirtiest.get("dirty_fraction"),
        }
        return output, WrapperState(states, snapshot, kept, ranks), stats

    def _assemble(
        self, structure: IndexedStructure, ids: Dict[str, Set[int]], root_label: str
    ) -> OutputNode:
        """Relabel by priority and build the output tree."""
        base = structure.base
        if isinstance(base, Document):
            assignment: Dict[int, str] = {}
            for name in self.names():
                for ident in ids.get(name, ()):
                    assignment.setdefault(ident, name)
            return build_output_from_snapshot(
                base.snapshot(), assignment, root_label=root_label
            )
        node_assignment: Dict[int, str] = {}
        for name in self.names():
            for ident in ids.get(name, ()):
                node_assignment.setdefault(id(structure.node(ident)), name)
        return build_output_tree(
            structure.root_node, node_assignment, root_label=root_label
        )
