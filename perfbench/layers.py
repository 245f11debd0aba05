"""Outside-in layer timing: each layer timed around its public function.

Nothing inside ``src/`` is instrumented.  A page is taken through the
same steps :meth:`Wrapper.wrap_html_many` and
:meth:`Wrapper.wrap_html_stateful` take, one public call per layer, with
a clock read between calls:

* ``html.scan``       -- :func:`repro.html.tokenizer.scan_into`, no-op
  callbacks (a separate pass: html_snapshot's own scan is not separable);
* ``snapshot.build``  -- :func:`repro.trees.stream.html_snapshot` minus
  the scan pass;
* ``kernel.bind``     -- :meth:`CompiledProgram.kernel_applicable` on a
  fresh :class:`Document` (binding caches on the snapshot, so the run
  that follows does not repay it);
* ``kernel.fixpoint`` -- :meth:`CompiledProgram.run` (cold);
* ``trees.diff``      -- :func:`repro.trees.diff.diff_snapshots`
  (memoized on the old snapshot, so the warm run does not repay it);
* ``kernel.delta``    -- :meth:`CompiledProgram.run_incremental` after
  the diff;
* ``output.assemble`` -- :func:`build_output_from_snapshot`, with the
  assignment built in :meth:`Wrapper.names` order.

Known limit: the vector move-map tiers are built lazily inside the run,
so they land in ``kernel.fixpoint``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

from repro.datalog.plan import compile_program
from repro.elog import elog_to_datalog, parse_elog
from repro.html.tokenizer import scan_into
from repro.structures import as_indexed
from repro.trees.diff import diff_snapshots
from repro.trees.stream import html_snapshot
from repro.wrap import Document, Wrapper, build_output_from_snapshot

from perfbench.common import ROOT, SRC, median

_clock = time.perf_counter


def build_wrapper(source: str, patterns: Sequence[str]) -> Wrapper:
    """Elog- parse plus :meth:`Wrapper.compile` (the library set-up)."""
    program = parse_elog(source)
    wrapper = Wrapper()
    for pattern in patterns:
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper.compile()


#: Run in a fresh interpreter by :func:`fresh_setup_seconds`: imports are
#: done first and not timed; lazy imports and tables that the first
#: parse and compile build are timed, as a starting process pays them.
#: The time is scaled by the host speed measured right after it.
_SETUP_SNIPPET = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from perfbench.common import HostSpeed
from perfbench.layers import build_wrapper
import repro.workloads as workloads
source = getattr(workloads, sys.argv[3])
patterns = sys.argv[4].split(",")
start = time.perf_counter()
build_wrapper(source, patterns)
elapsed = time.perf_counter() - start
print(elapsed * HostSpeed().measure(15))
"""


def fresh_setup_seconds(source_name: str, patterns: Sequence[str], repeats: int) -> float:
    """Median set-up time over ``repeats`` fresh interpreters (scaled to
    the reference host speed)."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(ROOT), source_name,
             ",".join(patterns)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


def _ignore(*_args) -> None:
    return None


class LayerProbe:
    """One wrapper's pipeline, split into separately timed public calls."""

    def __init__(self, source: str, patterns: Sequence[str]):
        self.names = list(patterns)
        self.plan = compile_program(elog_to_datalog(parse_elog(source))).prepare()

    def scan_ms(self, html: str) -> float:
        start = _clock()
        scan_into(html, _ignore, _ignore, _ignore)
        return (_clock() - start) * 1e3

    def _assemble(self, snapshot, result):
        assignment: Dict[int, str] = {}
        for name in self.names:
            for ident in result.unary(name):
                assignment.setdefault(ident, name)
        return build_output_from_snapshot(snapshot, assignment)

    def wrap(self, html: str, state=None, warm: bool = False):
        """Wrap one page layer by layer.

        Cold (``warm=False``) mirrors ``wrap_html_many``; warm mirrors
        ``wrap_html_stateful`` with ``state`` (a kernel state or
        ``None``).  Returns ``(output, next_state, timings)`` where
        ``timings`` holds per-layer ms, the whole traced wall time
        (``total``), the kernel stats dict and, for warm runs, the reuse
        info (``None`` when the run went cold).
        """
        t0 = _clock()
        snapshot = html_snapshot(html)
        t1 = _clock()
        document = Document(snapshot)
        if not self.plan.kernel_applicable(document):
            raise RuntimeError("wrapper is outside the kernel fragment")
        t2 = _clock()
        runtime = as_indexed(document)
        timings: Dict[str, object] = {"snapshot": (t1 - t0) * 1e3, "bind": (t2 - t1) * 1e3}
        next_state = None
        if not warm:
            result = self.plan.run(runtime)
            t3 = _clock()
            timings["fixpoint"] = (t3 - t2) * 1e3
            info = None
        else:
            if state is not None:
                diff_snapshots(state.snapshot, snapshot)
            t_diff = _clock()
            result, next_state, info = self.plan.run_incremental(runtime, state)
            t3 = _clock()
            if state is not None:
                timings["diff"] = (t_diff - t2) * 1e3
            timings["delta" if info is not None else "fixpoint"] = (t3 - t_diff) * 1e3
        output = self._assemble(snapshot, result)
        t4 = _clock()
        timings["assemble"] = (t4 - t3) * 1e3
        timings["total"] = (t4 - t0) * 1e3
        timings["stats"] = result.stats or {}
        timings["info"] = info
        return output, next_state, timings


#: Layers on the wrapped path, in pipeline order.
PATH_LAYERS = (
    "html.scan_ms",
    "snapshot.build_ms",
    "kernel.bind_ms",
    "kernel.fixpoint_ms",
    "trees.diff_ms",
    "kernel.delta_ms",
    "output.assemble_ms",
)


class LayerLog:
    """Per-page layer samples, reduced to the per-layer metrics (raw ms)."""

    def __init__(self):
        self.rows: List[Dict[str, float]] = []
        self.rounds: List[int] = []
        self.frontier_runs = 0
        self.warm_runs = 0
        self.warm_attempts = 0
        self.dirty: List[float] = []

    def record(self, scan_ms: float, timings: Dict, warm_attempt: bool = False) -> None:
        row = {
            "html.scan_ms": scan_ms,
            "snapshot.build_ms": timings["snapshot"] - scan_ms,
            "kernel.bind_ms": timings["bind"],
            "output.assemble_ms": timings["assemble"],
            "total": timings["total"],
        }
        for part, name in (
            ("fixpoint", "kernel.fixpoint_ms"),
            ("diff", "trees.diff_ms"),
            ("delta", "kernel.delta_ms"),
        ):
            if part in timings:
                row[name] = timings[part]
        self.rows.append(row)
        stats = timings["stats"]
        if str(stats.get("engine", "")) in ("frontier", "incremental"):
            self.frontier_runs += 1
        if "fixpoint" in timings:
            self.rounds.append(int(stats.get("rounds", 0)))
        if warm_attempt:
            self.warm_attempts += 1
            info = timings["info"]
            if info is not None:
                self.warm_runs += 1
                self.dirty.append(float(info["dirty_fraction"]))

    def _median(self, name: str, rows=None) -> float:
        return median(row[name] for row in (rows or self.rows) if name in row)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out = {name: (self._median(name), "ms") for name in PATH_LAYERS}
        runs = len(self.rows)
        out["kernel.rounds"] = (median(self.rounds), "count")
        out["kernel.frontier_share"] = (self.frontier_runs / runs if runs else 0.0, "share")
        out["incremental.warm_share"] = (
            self.warm_runs / self.warm_attempts if self.warm_attempts else 0.0,
            "share",
        )
        out["incremental.dirty_fraction"] = (median(self.dirty), "share")
        return out

    def traced_p50_ms(self) -> float:
        return self._median("total")

    def residual(self) -> float:
        """1 - (sum of layer medians / traced end-to-end p50).

        Taken over the pages that share the median page's path (cold
        pages run no diff, warm pages no cold fixpoint), so that every
        summed layer ran on every page of the population.
        """
        ordered = sorted(self.rows, key=lambda row: row["total"])
        middle = ordered[(len(ordered) - 1) // 2]
        path = frozenset(middle) & frozenset(PATH_LAYERS)
        rows = [row for row in self.rows if frozenset(row) & frozenset(PATH_LAYERS) == path]
        layers = sum(self._median(name, rows) for name in path)
        return 1.0 - layers / self._median("total", rows)
