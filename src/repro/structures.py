"""Finite relational structures.

The paper evaluates (monadic) datalog over two kinds of structures:

* arbitrary finite structures (Propositions 3.4-3.7), and
* tree structures presented by the schemata ``tau_rk`` / ``tau_ur``
  (Section 2).

This module defines the minimal interface the datalog engine needs
(:class:`Structure`) together with :class:`GenericStructure`, a plain
dictionary-backed implementation used for the "arbitrary finite structure"
results and in tests, and :class:`IndexedStructure`, the shared per-document
evaluation runtime: a caching wrapper that builds relation extensions,
functional maps and positional hash indexes once and serves them to every
query evaluated on the same document.  Trees have one implementation,
:class:`repro.trees.unranked.TreeStructure`, which reads every relation
from a tree's snapshot columns; :class:`repro.trees.unranked.UnrankedStructure`,
:class:`repro.trees.ranked.RankedStructure` and
:class:`repro.wrap.document.Document` are its three constructors.

Conventions
-----------
* The domain is always ``range(n)`` for some ``n >= 0``; domain elements are
  plain integers.
* ``relation(name)`` returns a set of tuples, regardless of arity; a unary
  fact for element ``v`` is the 1-tuple ``(v,)``.
* ``functional(name)`` exposes the bidirectional functional dependencies of
  Proposition 4.1 (each binary tree relation is a partial bijection); it
  returns ``None`` for relations that are not bidirectionally functional,
  which is how the engine decides whether Theorem 4.2's linear grounding
  strategy applies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import DatalogError

Fact = Tuple[int, ...]


class Structure:
    """Abstract finite relational structure over domain ``range(size)``."""

    @property
    def size(self) -> int:
        """Number of domain elements."""
        raise NotImplementedError

    @property
    def domain(self) -> range:
        """The domain, always ``range(self.size)``."""
        return range(self.size)

    def has_relation(self, name: str) -> bool:
        """Return whether this structure can supply relation ``name``."""
        raise NotImplementedError

    def relation(self, name: str) -> FrozenSet[Fact]:
        """Return the extension of relation ``name`` as a set of tuples."""
        raise NotImplementedError

    def arity(self, name: str) -> int:
        """Return the arity of relation ``name``."""
        raise NotImplementedError

    def functional(self, name: str) -> Optional[Tuple[Dict[int, int], Dict[int, int]]]:
        """Forward/backward maps for bidirectionally functional relations.

        Returns ``(forward, backward)`` dictionaries when relation ``name``
        is binary and satisfies both functional dependencies
        ``$1 -> $2`` and ``$2 -> $1`` (Proposition 4.1), else ``None``.
        """
        return None

    def relation_names(self) -> Iterable[str]:
        """Iterate over the names of all available relations."""
        raise NotImplementedError

    def snapshot(self):
        """Columnar :class:`repro.trees.snapshot.TreeSnapshot`, if any.

        A :class:`repro.trees.unranked.TreeStructure` returns the snapshot
        its relations are read from; the default ``None`` tells the
        propagation kernel the strategy does not apply here.
        """
        return None

    # -- convenience -------------------------------------------------------

    def facts(self) -> Set[Tuple[str, Fact]]:
        """All facts of the structure as ``(relation_name, tuple)`` pairs."""
        out: Set[Tuple[str, Fact]] = set()
        for name in self.relation_names():
            for tup in self.relation(name):
                out.add((name, tup))
        return out

    def total_size(self) -> int:
        """``|sigma|``: domain size plus the number of stored facts."""
        return self.size + sum(len(self.relation(n)) for n in self.relation_names())


class GenericStructure(Structure):
    """A finite structure given explicitly by its relations.

    Parameters
    ----------
    size:
        Domain size; the domain is ``range(size)``.
    relations:
        Mapping from relation name to an iterable of facts.  Unary facts may
        be given as bare integers; they are normalized to 1-tuples.
    arities:
        Optional mapping from relation name to its declared arity.  Without
        it, an *empty* relation silently reports arity 1, which can mask
        arity mismatches; declaring arities makes empty relations report
        their true arity and turns a declared-vs-stored mismatch into an
        error at construction time.

    Examples
    --------
    >>> s = GenericStructure(3, {"edge": [(0, 1), (1, 2)], "start": [0]})
    >>> sorted(s.relation("edge"))
    [(0, 1), (1, 2)]
    >>> s.arity("start")
    1
    >>> GenericStructure(3, {"edge": []}, arities={"edge": 2}).arity("edge")
    2
    """

    def __init__(
        self,
        size: int,
        relations: Dict[str, Iterable],
        arities: Optional[Dict[str, int]] = None,
    ):
        if size < 0:
            raise DatalogError("structure size must be non-negative")
        self._size = size
        self._relations: Dict[str, FrozenSet[Fact]] = {}
        self._arities: Dict[str, int] = {}
        for name, declared_arity in (arities or {}).items():
            if name not in relations:
                raise DatalogError(
                    f"declared arity for unknown relation {name!r}"
                )
            if declared_arity < 0:
                raise DatalogError(f"negative arity for relation {name!r}")
            self._arities[name] = declared_arity
        for name, tuples in relations.items():
            normalized: Set[Fact] = set()
            for item in tuples:
                if isinstance(item, int):
                    fact: Fact = (item,)
                else:
                    fact = tuple(item)
                for value in fact:
                    if not 0 <= value < size:
                        raise DatalogError(
                            f"fact {fact!r} of relation {name!r} is outside "
                            f"the domain range(0, {size})"
                        )
                normalized.add(fact)
            if normalized:
                stored = {len(f) for f in normalized}
                if len(stored) != 1:
                    raise DatalogError(f"relation {name!r} has mixed arities")
                arity = stored.pop()
                declared = self._arities.setdefault(name, arity)
                if declared != arity:
                    raise DatalogError(
                        f"relation {name!r} declared with arity {declared} "
                        f"but stores {arity}-tuples"
                    )
            self._relations[name] = frozenset(normalized)

    @property
    def size(self) -> int:
        return self._size

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation(self, name: str) -> FrozenSet[Fact]:
        if name not in self._relations:
            raise DatalogError(f"unknown relation {name!r}")
        return self._relations[name]

    def arity(self, name: str) -> int:
        if name not in self._arities:
            # An empty relation with no declared arity defaults to 1 (pass
            # ``arities=`` at construction to make the true arity known).
            if name in self._relations:
                return 1
            raise DatalogError(f"unknown relation {name!r}")
        return self._arities[name]

    def functional(self, name: str) -> Optional[Tuple[Dict[int, int], Dict[int, int]]]:
        if not self.has_relation(name) or self.arity(name) != 2:
            return None
        forward: Dict[int, int] = {}
        backward: Dict[int, int] = {}
        for a, b in self.relation(name):
            if forward.get(a, b) != b or backward.get(b, a) != a:
                return None
            forward[a] = b
            backward[b] = a
        return forward, backward

    def relation_names(self) -> Iterable[str]:
        return self._relations.keys()


class IndexedStructure(Structure):
    """Caching, index-building view of another :class:`Structure`.

    Every evaluation strategy keeps re-asking a structure for the same
    relations, functional maps, and positional lookups.  An
    ``IndexedStructure`` is built **once per document** and shared across
    all queries on that document (the :class:`repro.wrap.extraction.Wrapper`
    batch APIs and :class:`repro.datalog.plan.CompiledProgram` both rely on
    this): relation extensions, bidirectional-functional maps and hash
    indexes are each computed on first use and memoized for the lifetime of
    the wrapper.

    Attribute access not covered by the :class:`Structure` interface (for
    example :meth:`repro.trees.unranked.UnrankedStructure.node` or
    ``root_node``) is delegated to the underlying base structure, so an
    ``IndexedStructure`` can be passed anywhere the base structure is
    expected.

    Examples
    --------
    >>> base = GenericStructure(4, {"edge": [(0, 1), (1, 2), (1, 3)]})
    >>> s = IndexedStructure(base)
    >>> sorted(s.index("edge", (0,))[(1,)])
    [(1, 2), (1, 3)]
    >>> s.index("edge", (0, 1))[(0, 1)]
    [(0, 1)]
    """

    def __init__(self, base: Structure):
        if isinstance(base, IndexedStructure):
            base = base.base
        self._base = base
        self._relations: Dict[str, FrozenSet[Fact]] = {}
        self._has: Dict[str, bool] = {}
        self._functional: Dict[
            str, Optional[Tuple[Dict[int, int], Dict[int, int]]]
        ] = {}
        self._indexes: Dict[
            Tuple[str, Tuple[int, ...]], Dict[Fact, List[Fact]]
        ] = {}
        self._facts: Optional[Set[Tuple[str, Fact]]] = None
        self._total_size: Optional[int] = None
        self._snapshot_cache: Optional[tuple] = None

    @property
    def base(self) -> Structure:
        """The wrapped structure."""
        return self._base

    @property
    def size(self) -> int:
        return self._base.size

    def has_relation(self, name: str) -> bool:
        if name not in self._has:
            self._has[name] = self._base.has_relation(name)
        return self._has[name]

    def relation(self, name: str) -> FrozenSet[Fact]:
        if name not in self._relations:
            self._relations[name] = self._base.relation(name)
        return self._relations[name]

    def arity(self, name: str) -> int:
        return self._base.arity(name)

    def functional(self, name: str) -> Optional[Tuple[Dict[int, int], Dict[int, int]]]:
        if name not in self._functional:
            self._functional[name] = self._base.functional(name)
        return self._functional[name]

    def relation_names(self) -> Iterable[str]:
        return self._base.relation_names()

    def facts(self) -> Set[Tuple[str, Fact]]:
        """All facts of the structure, computed once and cached."""
        if self._facts is None:
            self._facts = self._base.facts()
        return self._facts

    def total_size(self) -> int:
        """``|sigma|``, computed once and cached (benchmarks sweep this)."""
        if self._total_size is None:
            self._total_size = self._base.total_size()
        return self._total_size

    def snapshot(self):
        """The base structure's columnar tree snapshot, cached here.

        Returns ``None`` when the base structure has no snapshot (it is not
        tree-backed), which the kernel treats as "not applicable".
        """
        if self._snapshot_cache is None:
            build = getattr(self._base, "snapshot", None)
            self._snapshot_cache = (build() if build is not None else None,)
        return self._snapshot_cache[0]

    def index(
        self, name: str, positions: Union[int, Tuple[int, ...]]
    ) -> Dict[Fact, List[Fact]]:
        """Hash index of relation ``name`` on the given argument positions.

        Maps the tuple of values at ``positions`` to the list of matching
        facts.  Works for any arity; built lazily and memoized per
        ``(name, positions)`` pair.
        """
        if isinstance(positions, int):
            positions = (positions,)
        key = (name, positions)
        if key not in self._indexes:
            index: Dict[Fact, List[Fact]] = {}
            for tup in self.relation(name):
                index.setdefault(tuple(tup[p] for p in positions), []).append(tup)
            self._indexes[key] = index
        return self._indexes[key]

    def __getattr__(self, attr: str):
        # Delegate extra capabilities of the base structure (node lookup,
        # root_node, labels, ...) so the wrapper is a drop-in replacement.
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self._base, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"IndexedStructure({self._base!r})"


def as_indexed(structure: Structure) -> IndexedStructure:
    """Wrap ``structure`` in an :class:`IndexedStructure` (idempotent)."""
    if isinstance(structure, IndexedStructure):
        return structure
    return IndexedStructure(structure)
