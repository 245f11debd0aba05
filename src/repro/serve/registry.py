"""Named, versioned, persistent registry of compiled wrappers.

A registry entry is *source text* (an Elog- program or a monadic datalog
program) plus the extraction patterns to expose; registration parses,
translates and fully compiles the wrapper once
(:meth:`repro.wrap.extraction.Wrapper.compile`), so serving never pays
compilation on a request.

With a ``cache_dir`` the registry is persistent: each ``name@version``
gets one JSON *spec* file (name, version, kind, source, patterns and
source hash).  On startup every spec is loaded and its wrapper compiled
from source again -- a few milliseconds per wrapper, so no compiled
artifact is stored beside the spec.  Other files in the directory (such
as the ``.pkl`` caches older releases wrote) are ignored and left as
they are.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datalog.kernel import fragment_violation
from repro.errors import ReproError, ServeError
from repro.wrap.extraction import Wrapper

#: Registry names must be filesystem- and URL-safe.
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def source_hash(kind: str, source: str, patterns: Sequence[str]) -> str:
    """Content hash identifying one compiled wrapper artifact."""
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    for pattern in patterns:
        digest.update(b"\x00")
        digest.update(pattern.encode("utf-8"))
    digest.update(b"\x00\x00")
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def _parse_and_choose(
    kind: str, source: str, patterns: Optional[Sequence[str]]
):
    """Parse one wrapper source; returns ``(program, chosen patterns)``."""
    if kind == "elog":
        from repro.elog.parser import parse_elog

        program = parse_elog(source)
        defined = program.patterns()
        chosen = tuple(patterns) if patterns else tuple(sorted(defined))
        unknown = [p for p in chosen if p not in defined]
        if unknown:
            raise ServeError(f"unknown Elog- patterns {unknown!r} in registration")
    elif kind == "datalog":
        from repro.datalog.parser import parse_program

        program = parse_program(source)
        defined = set(program.intensional_predicates())
        # Thm 4.2's linear time, which the serve deadlines rest on, holds
        # for the programs the kernel lowers; any other runs on seminaive.
        reason = fragment_violation(program)
        if reason is not None:
            raise ServeError(f"datalog wrapper outside the linear-time kernel: {reason}")
        if patterns:
            chosen = tuple(patterns)
        elif program.query is not None:
            chosen = (program.query,)
        else:
            raise ServeError(
                "datalog registration needs explicit patterns or a query predicate"
            )
        unknown = [p for p in chosen if p not in defined]
        if unknown:
            raise ServeError(
                f"unknown datalog predicates {unknown!r} in registration"
            )
    else:
        raise ServeError(f"unknown wrapper kind {kind!r} (use 'elog' or 'datalog')")
    if not chosen:
        raise ServeError("wrapper registration exposes no extraction patterns")
    return program, chosen


def resolve_patterns(
    kind: str, source: str, patterns: Optional[Sequence[str]] = None
) -> Tuple[str, ...]:
    """Parse-only resolution of the exposed patterns (no compilation).

    The cheap probe the registry uses to decide whether a registration
    is an idempotent no-op before paying for a compile.
    """
    return _parse_and_choose(kind, source, patterns)[1]


def build_wrapper(
    kind: str, source: str, patterns: Optional[Sequence[str]] = None
) -> Tuple[Wrapper, Tuple[str, ...]]:
    """Parse + compile one wrapper; returns ``(wrapper, patterns used)``.

    ``kind`` is ``"elog"`` (Definition 6.2 source) or ``"datalog"``
    (monadic datalog source).  All patterns are registered against *one*
    program object, so the whole wrapper costs a single kernel fixpoint
    per document.  ``patterns=None`` exposes every defined Elog- pattern
    (sorted), or the datalog program's query predicate.

    A datalog program must compile for the propagation kernel: a source
    outside its fragment (not monadic, a head constant, a relation
    outside the tree signature) raises a :class:`ServeError` that names
    the reason, and the compiled plan is the last word.
    """
    program, chosen = _parse_and_choose(kind, source, patterns)
    wrapper = Wrapper()
    for pattern in chosen:
        if kind == "elog":
            wrapper.add_elog(pattern, program, pattern=pattern)
        else:
            wrapper.add_datalog(pattern, program, predicate=pattern)
    wrapper.compile()
    # Every pattern shares the one plan just compiled, kernel included.
    if kind == "datalog" and wrapper._compiled[0]._kernel is None:
        raise ServeError("datalog wrapper has no linear-time kernel lowering")
    return wrapper, chosen


class RegisteredWrapper:
    """One immutable ``name@version`` registry entry."""

    __slots__ = ("name", "version", "kind", "source", "patterns", "source_hash", "wrapper")

    def __init__(
        self,
        name: str,
        version: int,
        kind: str,
        source: str,
        patterns: Tuple[str, ...],
        digest: str,
        wrapper: Wrapper,
    ):
        self.name = name
        self.version = version
        self.kind = kind
        self.source = source
        self.patterns = patterns
        self.source_hash = digest
        self.wrapper = wrapper

    @property
    def key(self) -> str:
        """The canonical reference, ``name@version``."""
        return f"{self.name}@{self.version}"

    @property
    def cache_key(self) -> str:
        """Cache/shard key: reference plus a source-hash prefix, so a
        replaced registration can never serve stale cached results."""
        return f"{self.name}@{self.version}:{self.source_hash[:12]}"

    def describe(self) -> dict:
        """JSON-serializable summary (no compiled artifact)."""
        return {
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "patterns": list(self.patterns),
            "source_hash": self.source_hash,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RegisteredWrapper({self.key}, kind={self.kind!r})"


class WrapperRegistry:
    """Named + versioned compiled wrappers with optional disk persistence.

    Examples
    --------
    >>> registry = WrapperRegistry()
    >>> entry = registry.register(
    ...     "items", "item(x) :- label_li(x).", kind="datalog",
    ...     patterns=["item"])
    >>> entry.key
    'items@1'
    >>> registry.resolve("items").version
    1
    >>> registry.register("items", "item(x) :- label_td(x).",
    ...                   kind="datalog", patterns=["item"]).key
    'items@2'
    >>> [w["version"] for w in registry.list() if w["name"] == "items"]
    [1, 2]
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self._by_name: Dict[str, Dict[int, RegisteredWrapper]] = {}
        #: Registration may run off the event loop (the HTTP handler
        #: compiles in a worker thread); lookups stay consistent under it.
        self._lock = threading.RLock()
        self._cache_dir: Optional[Path] = Path(cache_dir) if cache_dir else None
        if self._cache_dir is not None:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
            self._warm_load()

    # -- registration --------------------------------------------------------

    def register(
        self,
        name: str,
        source: str,
        kind: str = "elog",
        patterns: Optional[Sequence[str]] = None,
        version: Optional[int] = None,
    ) -> RegisteredWrapper:
        """Compile and store a wrapper; returns the registry entry.

        ``version=None`` is idempotent against the *newest* stored
        version: unchanged source/kind/patterns return it as-is (so a
        server registering its wrappers on every boot does not grow the
        registry), while changed source allocates the next version.  An
        explicit ``version`` replaces that entry when the source changed
        and is a no-op when it did not.
        """
        if not _NAME.match(name or ""):
            raise ServeError(
                f"invalid wrapper name {name!r} (letters, digits, '_', '.', '-')"
            )
        if not isinstance(source, str) or not source.strip():
            raise ServeError("wrapper registration needs non-empty source text")
        if version is not None and (not isinstance(version, int) or version < 1):
            raise ServeError(f"wrapper versions are integers >= 1, got {version!r}")
        with self._lock:
            versions = self._by_name.setdefault(name, {})
            if version is None:
                candidate = versions[max(versions)] if versions else None
            else:
                candidate = versions.get(version)
        # Idempotency probe without compiling (and without the lock, so
        # concurrent lookups never stall behind a parse): explicit
        # identical patterns short-circuit outright; otherwise a cheap
        # parse resolves the default patterns for the digest comparison.
        if (
            candidate is not None
            and candidate.kind == kind
            and candidate.source == source
        ):
            if patterns is not None and tuple(patterns) == candidate.patterns:
                return candidate
            chosen = resolve_patterns(kind, source, patterns)
            if source_hash(kind, source, chosen) == candidate.source_hash:
                return candidate
        # The expensive part -- parse + full compile -- runs outside the
        # lock; only the commit below re-synchronizes.
        wrapper, chosen = build_wrapper(kind, source, patterns)
        digest = source_hash(kind, source, chosen)
        with self._lock:
            versions = self._by_name.setdefault(name, {})
            if version is None:
                current = versions[max(versions)] if versions else None
                if current is not None and current.source_hash == digest:
                    return current  # raced with an identical registration
                version = max(versions, default=0) + 1
            else:
                current = versions.get(version)
                if current is not None and current.source_hash == digest:
                    return current
            entry = RegisteredWrapper(
                name, version, kind, source, chosen, digest, wrapper
            )
            versions[version] = entry
            self._persist(entry)
            return entry

    # -- lookup --------------------------------------------------------------

    def get(self, name: str, version: Optional[int] = None) -> RegisteredWrapper:
        """The entry for ``name`` (latest version when unspecified)."""
        with self._lock:
            versions = self._by_name.get(name)
            if not versions:
                raise ServeError(f"unknown wrapper {name!r}")
            if version is None:
                return versions[max(versions)]
            entry = versions.get(version)
        if entry is None:
            raise ServeError(f"unknown wrapper version {name}@{version}")
        return entry

    def resolve(self, ref: str) -> RegisteredWrapper:
        """Resolve a ``name`` or ``name@version`` reference."""
        name, sep, version_text = (ref or "").partition("@")
        if not sep:
            return self.get(name)
        if not version_text.isdigit():
            raise ServeError(f"bad wrapper reference {ref!r} (want name@version)")
        return self.get(name, int(version_text))

    def list(self) -> List[dict]:
        """Summaries of every entry, ordered by name then version."""
        with self._lock:
            out: List[dict] = []
            for name in sorted(self._by_name):
                for version in sorted(self._by_name[name]):
                    out.append(self._by_name[name][version].describe())
            return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._by_name.values())

    # -- persistence ---------------------------------------------------------

    def _spec_path(self, name: str, version: int) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"{name}@{version}.json"

    def _persist(self, entry: RegisteredWrapper) -> None:
        if self._cache_dir is None:
            return
        spec = {
            "name": entry.name,
            "version": entry.version,
            "kind": entry.kind,
            "source": entry.source,
            "patterns": list(entry.patterns),
            "source_hash": entry.source_hash,
        }
        path = self._spec_path(entry.name, entry.version)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(json.dumps(spec, indent=2).encode("utf-8"))
        os.replace(tmp, path)

    def _warm_load(self) -> None:
        """Load every persisted spec, compiling each wrapper from source."""
        assert self._cache_dir is not None
        for spec_path in sorted(self._cache_dir.glob("*.json")):
            try:
                spec = json.loads(spec_path.read_text("utf-8"))
                name = spec["name"]
                version = int(spec["version"])
                kind = spec["kind"]
                source = spec["source"]
                wrapper, patterns = build_wrapper(kind, source, spec["patterns"])
            except (OSError, ValueError, KeyError, TypeError, ReproError):
                # One unreadable spec, or source that no longer parses,
                # must not abort the whole warm load: leave the file for
                # inspection.
                continue
            digest = source_hash(kind, source, patterns)
            self._by_name.setdefault(name, {})[version] = RegisteredWrapper(
                name, version, kind, source, patterns, digest, wrapper
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        where = str(self._cache_dir) if self._cache_dir else "in-memory"
        return f"WrapperRegistry({len(self)} entries, {where})"
