"""Regenerate the measured numbers that the README's Benchmarks section
cites.

Runs each experiment's parameter sweep directly (no pytest), prints the
series and linear-fit diagnostics.  Usage::

    python benchmarks/report.py            # full sweep
    python benchmarks/report.py --smoke    # quick CI smoke subset

Both modes additionally emit ``benchmarks/BENCH_compiled.json`` (the
compile-once evaluation path of :mod:`repro.datalog.plan` against per-call
interpreted evaluation), ``benchmarks/BENCH_kernel.json`` (the
linear-time propagation kernel of :mod:`repro.datalog.kernel` against
both, with a document-size doubling sweep and an empirical-linearity
column ``time(2n)/time(n)``), ``benchmarks/BENCH_stream.json`` (the
Node-free streaming ingestion pipeline end to end against the PR-2
Node-tree path, plus a hostile tag-soup
depth sweep whose ``time(2n)/time(n)`` column the smoke run guards),
``benchmarks/BENCH_incremental.json`` (warm re-extraction, which reuses
the previous fixpoint of an unchanged tree, against cold kernel runs on
an edit-ratio sweep), and
``benchmarks/BENCH_delta.json`` (the Theorem 6.6 Elog-Delta workload).
Smoke runs write each file as ``BENCH_*.smoke.json`` instead
(:func:`benchio._write_bench`), so they never overwrite a committed
full-mode file.
"""

from __future__ import annotations

import sys
import time

from benchio import _write_bench
from repro.datalog.engine import compile_program, evaluate
from repro.datalog.seminaive import evaluate_seminaive
from repro.structures import as_indexed
from repro.datalog.grounding import evaluate_ground
from repro.datalog.guarded import evaluate_lit
from repro.datalog.hornsat import solve_horn
from repro.elog.delta import anbn_program, evaluate_elog_delta
from repro.elog.parser import parse_elog
from repro.elog.translate import elog_to_datalog
from repro.html import parse_html
from repro.mso import compile_query, parse_mso
from repro.paper import even_a_program
from repro.qa.examples import a_beta_qa
from repro.qa.to_datalog import ranked_qa_to_datalog
from repro.tmnf import to_tmnf
from repro.trees.generate import (
    chain_tree,
    complete_binary_tree,
    flat_tree,
    random_tree,
)
from repro.trees.ranked import RankedStructure
from repro.trees.unranked import UnrankedStructure
from repro.workloads import CATALOG_WRAPPER, catalog_page, catalog_pages
from repro.workloads.programs import wide_program
from repro.wrap import Document, Wrapper


def _timed(fn, *args, repeat: int = 3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def report_t42() -> None:
    print("== E-T4.2: combined complexity O(|P| * |dom|) ==")
    program = even_a_program(labels=("a", "b"))
    print("  data scaling (fixed program, 29 rules incl. atoms):")
    base = None
    for nodes in (250, 500, 1000, 2000, 4000):
        structure = UnrankedStructure(random_tree(42, nodes, labels=("a", "b")))
        seconds, _ = _timed(evaluate_ground, program, structure)
        base = base or seconds / nodes
        print(f"    n={nodes:>5}  t={seconds * 1e3:8.2f} ms   t/n={seconds / nodes * 1e6:6.2f} us (ratio to smallest {seconds / nodes / base:4.2f})")
    print("  program scaling (fixed tree, 300 nodes):")
    structure = UnrankedStructure(random_tree(43, 300, labels=("a", "b")))
    base = None
    for copies in (2, 4, 8, 16, 32):
        program = wide_program(copies)
        size = program.size()
        seconds, _ = _timed(evaluate_ground, program, structure)
        base = base or seconds / size
        print(f"    |P|={size:>5} copies={copies:>3}  t={seconds * 1e3:8.2f} ms   t/|P|={seconds / size * 1e6:6.2f} us (ratio {seconds / size / base:4.2f})")


def report_p35() -> None:
    print("== E-P3.5: Horn-SAT linear ==")
    import random as _random

    for atoms in (2000, 8000, 32000):
        rng = _random.Random(atoms)
        rules = [
            (rng.randrange(atoms), [rng.randrange(atoms) for _ in range(rng.randint(0, 3))])
            for _ in range(3 * atoms)
        ]
        facts = {rng.randrange(atoms) for _ in range(atoms // 50)}
        seconds, _ = _timed(solve_horn, atoms, rules, facts)
        print(f"    atoms={atoms:>6} rules={3 * atoms:>6}  t={seconds * 1e3:8.2f} ms  t/rule={seconds / (3 * atoms) * 1e9:7.1f} ns")


def report_p37() -> None:
    print("== E-P3.7: Datalog LIT O(|P| * |sigma|) ==")
    program = even_a_program(labels=("a", "b"))
    for nodes in (250, 1000, 4000):
        structure = UnrankedStructure(random_tree(17, nodes, labels=("a", "b")))
        seconds, _ = _timed(evaluate_lit, program, structure)
        print(f"    n={nodes:>5}  t={seconds * 1e3:8.2f} ms   t/n={seconds / nodes * 1e6:6.2f} us")


def report_ex421() -> None:
    print("== E-EX4.21: QA runs vs datalog simulation ==")
    for alpha in (1, 2):
        qa = a_beta_qa(alpha)
        program = ranked_qa_to_datalog(qa)
        print(f"  alpha={alpha} (beta={2 ** alpha}), program rules={len(program.rules)}:")
        for depth in (3, 4, 5, 6):
            if alpha == 2 and depth > 5:
                continue
            tree = complete_binary_tree(depth)
            n = tree.subtree_size()
            qa_seconds, run = _timed(qa.run, tree, repeat=1)
            structure = RankedStructure(tree, max_rank=2)
            dl_seconds, _ = _timed(evaluate, program, structure, repeat=1)
            print(
                f"    depth={depth} n={n:>4}  QA steps={run.steps:>8} "
                f"QA t={qa_seconds * 1e3:9.2f} ms   datalog t={dl_seconds * 1e3:8.2f} ms"
            )


def report_t52() -> None:
    print("== E-T5.2: TMNF normalization linear ==")
    for copies in (2, 8, 32):
        program = wide_program(copies)
        seconds, result = _timed(to_tmnf, program)
        print(
            f"    |P| rules={len(program.rules):>4}  t={seconds * 1e3:8.2f} ms  "
            f"output rules={len(result.program.rules):>5} "
            f"(ratio {len(result.program.rules) / len(program.rules):4.2f})"
        )


def report_c64() -> None:
    print("== E-C6.4: Elog- evaluation linear ==")
    program = parse_elog(CATALOG_WRAPPER, query="price")
    datalog = elog_to_datalog(program)
    normalized = to_tmnf(datalog).program
    for items in (20, 80, 320):
        structure = UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
        direct, _ = _timed(evaluate, datalog, structure, "seminaive")
        ground, _ = _timed(evaluate, normalized, structure, "ground")
        print(
            f"    items={items:>4} dom={structure.size:>6}  "
            f"seminaive t={direct * 1e3:8.2f} ms   TMNF+ground t={ground * 1e3:8.2f} ms"
        )


def report_msoblowup() -> None:
    print("== E-MSOBLOWUP: MSO compilation vs evaluation ==")
    ladder = {
        1: "exists y (child(x, y) & label_a(y))",
        2: "forall y (child(x, y) -> exists z (child(y, z) & label_a(z)))",
        3: (
            "forall y (child(x, y) -> exists z (child(y, z) & "
            "forall w (child(z, w) -> label_a(w))))"
        ),
    }
    for depth, text in ladder.items():
        seconds, query = _timed(compile_query, parse_mso(text), "x", ["a", "b"], repeat=1)
        structure = UnrankedStructure(random_tree(3, 800, labels=("a", "b")))
        eval_seconds, _ = _timed(query.select_ids, structure)
        print(
            f"    alternations={depth}  compile t={seconds * 1e3:9.2f} ms  "
            f"(minimized states={query.dta.num_states})  "
            f"evaluate 800 nodes t={eval_seconds * 1e3:7.2f} ms"
        )


def report_compiled(smoke: bool = False) -> None:
    """Compiled vs. interpreted evaluation on the catalog-wrapper workload.

    Emits ``benchmarks/BENCH_compiled.json`` with one row per document
    size: interpreted per-call seconds (fresh join orders and positional
    indexes every call), compiled seconds (plan and indexed document built
    once, reused), and the resulting speedup.
    """
    print("== E-COMPILED: compile-once plans vs per-call interpretation ==")
    datalog = elog_to_datalog(parse_elog(CATALOG_WRAPPER, query="price"))
    compiled = compile_program(datalog)
    rows = []
    sizes = (20, 80) if smoke else (20, 80, 320)
    repeat = 2 if smoke else 5
    for items in sizes:
        structure = UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
        interpreted_s, interpreted_out = _timed(
            evaluate_seminaive, datalog, structure, repeat=repeat
        )
        indexed = as_indexed(structure)
        compiled.run(indexed, method="seminaive")  # warm the document indexes
        compiled_s, compiled_out = _timed(
            compiled.run, indexed, "seminaive", repeat=repeat
        )
        if compiled_out.relations != interpreted_out:
            raise SystemExit(
                "compiled and interpreted evaluation disagree on "
                f"items={items}; refusing to report timings"
            )
        speedup = interpreted_s / compiled_s if compiled_s else float("inf")
        rows.append(
            {
                "items": items,
                "dom": structure.size,
                "interpreted_s": interpreted_s,
                "compiled_s": compiled_s,
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"    items={items:>4} dom={structure.size:>6}  "
            f"interpreted t={interpreted_s * 1e3:8.2f} ms   "
            f"compiled t={compiled_s * 1e3:8.2f} ms   "
            f"speedup={speedup:5.2f}x"
        )
    payload = {
        "experiment": "compiled_vs_interpreted",
        "workload": "elog catalog wrapper (E-C6.4 sweep)",
        "engine": {
            "interpreted": "repro.datalog.seminaive.evaluate_seminaive",
            "compiled": "repro.datalog.plan.CompiledProgram.run",
        },
        "smoke": smoke,
        "rows": rows,
    }
    _write_bench("BENCH_compiled.json", payload)


def report_kernel(smoke: bool = False) -> None:
    """Propagation kernel vs compiled joins vs interpreted evaluation.

    Emits ``benchmarks/BENCH_kernel.json``: one row per document size on
    the elog catalog sweep with interpreted, compiled and kernel seconds,
    the kernel-over-compiled speedup, and ``linearity`` -- the ratio
    ``kernel_time(this row) / kernel_time(previous row)`` across a
    doubling item sweep, which should stay near 2.0 for a linear-time
    engine (Theorem 4.2 / Corollary 6.4).  The kernel runs its one cold
    engine, the generated Dowling-Gallier worklist.  ``deep_rows`` adds a
    chain workload (depth >> breadth, the document-spanner successor
    shape), where an engine paying per-round work over the whole
    document would go quadratic.
    """
    print("== E-KERNEL: linear-time propagation kernel (Thm 4.2 hot path) ==")
    datalog = elog_to_datalog(parse_elog(CATALOG_WRAPPER, query="price"))
    compiled = compile_program(datalog)
    rows = []
    sizes = (20, 40, 80) if smoke else (40, 80, 160, 320, 640)
    repeat = 3 if smoke else 7
    kernel_repeat = max(repeat, 3) * 2
    previous_kernel_s = None
    for items in sizes:
        structure = UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
        interpreted_s, interpreted_out = _timed(
            evaluate_seminaive, datalog, structure, repeat=repeat
        )
        indexed = as_indexed(structure)
        compiled.run(indexed, method="seminaive")  # warm document indexes
        compiled_s, compiled_out = _timed(
            compiled.run, indexed, "seminaive", repeat=repeat
        )
        compiled.run(indexed, method="kernel")  # warm the columnar snapshot
        kernel_s, kernel_out = _timed(
            compiled.run, indexed, "kernel", repeat=kernel_repeat
        )
        if kernel_out.engine != "worklist":
            raise SystemExit(
                f"unexpected kernel engine on items={items}: {kernel_out.engine!r}"
            )
        if not (kernel_out.relations == compiled_out.relations == interpreted_out):
            raise SystemExit(
                f"kernel/compiled/interpreted disagree on items={items}; "
                "refusing to report timings"
            )
        speedup = compiled_s / kernel_s if kernel_s else float("inf")
        linearity = (
            round(kernel_s / previous_kernel_s, 2)
            if previous_kernel_s
            else None
        )
        previous_kernel_s = kernel_s
        rows.append(
            {
                "items": items,
                "dom": structure.size,
                "interpreted_s": interpreted_s,
                "compiled_s": compiled_s,
                "kernel_s": kernel_s,
                "speedup_vs_compiled": round(speedup, 2),
                "linearity": linearity,
            }
        )
        print(
            f"    items={items:>4} dom={structure.size:>6}  "
            f"compiled t={compiled_s * 1e3:8.2f} ms   "
            f"kernel t={kernel_s * 1e3:8.2f} ms   "
            f"t(2n)/t(n)={linearity if linearity is not None else '  --'}"
        )
    # Deep-tree workload: a root-to-leaf descent over a unary chain, which
    # derives one fact per chain node, one after another.
    from repro.datalog.parser import parse_program

    deep_program = parse_program(
        """
        mark(x) :- root(x).
        mark(y) :- mark(x), child(x, y).
        deep(x) :- mark(x), leaf(x).
        """,
        query="deep",
    )
    deep_compiled = compile_program(deep_program)
    deep_rows = []
    depths = (500, 1000) if smoke else (1000, 2000, 4000)
    previous_deep_s = None
    for depth in depths:
        indexed = as_indexed(UnrankedStructure(chain_tree(depth)))
        deep_compiled.run(indexed, method="kernel")  # warm the snapshot
        deep_s, deep_out = _timed(
            deep_compiled.run, indexed, "kernel", repeat=kernel_repeat
        )
        if deep_out.query_result() != {depth - 1}:
            raise SystemExit(f"wrong answer on the depth={depth} chain")
        linearity = (
            round(deep_s / previous_deep_s, 2) if previous_deep_s else None
        )
        previous_deep_s = deep_s
        deep_rows.append(
            {"depth": depth, "kernel_s": deep_s, "linearity": linearity}
        )
        print(
            f"    chain depth={depth:>5}  "
            f"kernel t={deep_s * 1e3:8.2f} ms   "
            f"t(2n)/t(n)={linearity if linearity is not None else '  --'}"
        )
    if not smoke:
        # Empirical linearity: doubling the document must not much more
        # than double the time (noise allowance on millisecond rows).
        for row in rows[2:]:
            if row["linearity"] is not None and row["linearity"] > 3.2:
                raise SystemExit(
                    f"kernel linearity broken on the catalog sweep: "
                    f"t(2n)/t(n)={row['linearity']} at items={row['items']}"
                )
        for row in deep_rows[1:]:
            if row["linearity"] is not None and row["linearity"] > 3.2:
                raise SystemExit(
                    f"kernel linearity broken on the chain sweep: "
                    f"t(2n)/t(n)={row['linearity']} at depth={row['depth']}"
                )
    payload = {
        "experiment": "kernel_vs_compiled_vs_interpreted",
        "workload": "elog catalog wrapper (E-C6.4 sweep, doubling items)",
        "engine": {
            "interpreted": "repro.datalog.seminaive.evaluate_seminaive",
            "compiled": "repro.datalog.plan.CompiledProgram.run(seminaive)",
            "kernel": (
                "repro.datalog.kernel (CompiledProgram.run(kernel)): "
                "generated Dowling-Gallier worklist"
            ),
        },
        "smoke": smoke,
        "rows": rows,
        "deep_rows": deep_rows,
    }
    _write_bench("BENCH_kernel.json", payload)


def _catalog_wrapper(shared: bool) -> Wrapper:
    """The catalog wrapper, built two ways.

    ``shared=False`` reproduces the PR-2 configuration: one independently
    parsed program per extraction function, so every function compiles
    and evaluates its own plan (the pre-streaming baseline behavior).
    ``shared=True`` registers three patterns of one program object, so
    the whole wrapper costs a single kernel fixpoint per document.
    """
    wrapper = Wrapper()
    if shared:
        program = parse_elog(CATALOG_WRAPPER, query="record")
        for pattern in ("record", "name", "price"):
            wrapper.add_elog(pattern, program, pattern=pattern)
    else:
        for pattern in ("record", "name", "price"):
            wrapper.add_elog(pattern, parse_elog(CATALOG_WRAPPER, query=pattern))
    return wrapper.compile()


#: Hostile tag-soup footers, by nesting depth: each tag of the run makes
#: a quadratic tree-construction policy scan the whole open-element stack.
HOSTILE_SOUP = {
    "stray_end": lambda depth: "<div>" * depth + "</span>" * depth,
    "p_runs": lambda depth: "<div>" * depth
    + "".join(f"<p>r{i}" for i in range(depth)),
}

#: Smoke-run bound on the hostile sweep's time(2n)/time(n): linear is ~2.
HOSTILE_MAX_RATIO = 2.5

#: Back-to-back (n, 2n) CPU-time sample pairs per hostile ratio, and the
#: shortest sample (short ones are repeated).
HOSTILE_PAIRS = 5
HOSTILE_MIN_SAMPLE_S = 0.004

#: Smoke-run bound on the streaming path's serial speedup over the Node
#: path at the largest catalog size (BENCH_stream.json records ~2.1x on
#: a 2-core x86 VM with Python 3.11).
STREAM_MIN_SPEEDUP = 1.5


def _hostile_page(kind: str, depth: int) -> str:
    """A 64-item catalog page whose footer is ``depth``-deep tag soup."""
    page = catalog_page(seed=1, items=64)
    junk = HOSTILE_SOUP[kind](depth)
    return page.replace('<div id="footer">', '<div id="footer">' + junk, 1)


def _hostile_sweep(wrapper: Wrapper, smoke: bool) -> list:
    """Wrap hostile pages at doubling depths; returns rows with t(2n)/t(n).

    Times are CPU seconds (``time.process_time``), so time the host gives
    to other work does not count, measured as in ``tests/test_scaling.py``:
    each ratio is the median of :data:`HOSTILE_PAIRS` back-to-back
    (n, 2n) sample pairs, so a change of host speed that outlasts a pair
    scales both of its samples alike.  A ratio above
    :data:`HOSTILE_MAX_RATIO` is measured again from fresh pairs, up to
    twice; in smoke mode a ratio still above the bound fails the run,
    since the size-derived serve deadlines assume linear ingestion.  A
    row's ``wrap_s`` is the median of every sample taken at its depth.
    """
    import gc
    from statistics import median

    depths = (1000, 2000, 4000) if smoke else (2000, 4000, 8000, 16000)

    def cpu(page, repeats):
        start = time.process_time()
        for _ in range(repeats):
            wrapper.wrap_html_many([page])
        return (time.process_time() - start) / repeats

    rows = []
    for kind in HOSTILE_SOUP:
        pages = {depth: _hostile_page(kind, depth) for depth in depths}
        samples = {depth: [] for depth in depths}
        linearity = {depths[0]: None}
        gc.collect()
        gc.disable()
        try:
            for page in pages.values():
                wrapper.wrap_html_many([page])
            for small, large in zip(depths, depths[1:]):
                # Repeat short samples so each lasts a few milliseconds.
                once = max(cpu(pages[small], 1), 1e-6)
                repeats = max(1, int(HOSTILE_MIN_SAMPLE_S / once))
                for attempt in range(3):
                    if attempt:
                        time.sleep(0.1)
                    ratios = []
                    for _ in range(HOSTILE_PAIRS):
                        t_small = cpu(pages[small], repeats)
                        t_large = cpu(pages[large], repeats)
                        samples[small].append(t_small)
                        samples[large].append(t_large)
                        ratios.append(t_large / t_small)
                    linearity[large] = round(median(ratios), 2)
                    if linearity[large] <= HOSTILE_MAX_RATIO:
                        break
                if smoke and linearity[large] > HOSTILE_MAX_RATIO:
                    raise SystemExit(
                        f"tag-soup ingestion no longer linear: {kind} "
                        f"t(2n)/t(n)={linearity[large]} at depth={large}"
                    )
        finally:
            gc.enable()
        wrap_s = {depth: median(times) for depth, times in samples.items()}
        for depth in depths:
            ratio = linearity[depth]
            rows.append(
                {
                    "kind": kind,
                    "depth": depth,
                    "bytes": len(pages[depth]),
                    "wrap_s": wrap_s[depth],
                    "linearity": ratio,
                }
            )
            print(
                f"    hostile {kind:>9} depth={depth:>6} "
                f"bytes={len(pages[depth]):>7}  "
                f"wrap t={wrap_s[depth] * 1e3:8.2f} ms   "
                f"t(2n)/t(n)={ratio if ratio is not None else '  --'}"
            )
    return rows


def report_stream(smoke: bool = False) -> None:
    """E-STREAM: the Node-free streaming ingestion pipeline end to end.

    Emits ``benchmarks/BENCH_stream.json``: each row times wrapping a
    batch of raw catalog pages from HTML strings to output trees through

    * the PR-2 baseline path (``parse_html`` -> ``Node`` tree ->
      ``UnrankedStructure`` -> per-function plans -> Node output walk),
    * the streaming path (one scan loop from HTML text to snapshot
      columns -> one shared kernel fixpoint -> snapshot-native output;
      zero ``Node`` objects).

    Paths alternate inside each repetition (best-of-N per path) so the
    comparison is robust to machine noise, and both paths' outputs are
    asserted identical before any timing is reported.  In smoke mode a
    speedup under :data:`STREAM_MIN_SPEEDUP` at the largest size
    fails the run.  A second sweep
    (``hostile_rows``) wraps catalog pages with deep tag-soup footers at
    doubling depths and records ``t(2n)/t(n)``; see :func:`_hostile_sweep`.
    """
    import gc

    print("== E-STREAM: streaming ingestion (bytes -> columns -> output) ==")
    baseline = _catalog_wrapper(shared=False)
    streaming = _catalog_wrapper(shared=True)
    # 640 is the largest size of the established catalog sweep (E-KERNEL).
    sweep = ((160, 6), (320, 6), (640, 6)) if smoke else ((160, 8), (320, 8), (640, 8))
    repeat = 4 if smoke else 6
    rows = []
    for items, batch in sweep:
        pages = catalog_pages(batch, items=items)
        reference = baseline.wrap_many([parse_html(page) for page in pages])
        streamed = streaming.wrap_html_many(pages)
        if [out.to_sexpr() for out in streamed] != [out.to_sexpr() for out in reference]:
            raise SystemExit(
                f"streaming output diverges from the Node path at "
                f"items={items}; refusing to report timings"
            )
        # Both paths: per-page best-of-N, summed, with the two paths
        # alternating page by page so they sample the same machine-noise
        # windows; the per-page minima then recover steady-state
        # throughput, and the reported ratio is robust to load drift.
        node_best = [float("inf")] * batch
        stream_best = [float("inf")] * batch
        for _ in range(repeat):
            gc.collect()
            for index, page in enumerate(pages):
                start = time.perf_counter()
                baseline.wrap_many([parse_html(page)])
                elapsed = time.perf_counter() - start
                if elapsed < node_best[index]:
                    node_best[index] = elapsed
                start = time.perf_counter()
                streaming.wrap_html_many([page])
                elapsed = time.perf_counter() - start
                if elapsed < stream_best[index]:
                    stream_best[index] = elapsed
        node_s, stream_s = sum(node_best), sum(stream_best)
        speedup_stream = node_s / stream_s
        rows.append(
            {
                "items": items,
                "pages": batch,
                "dom_per_page": Document.from_html(pages[0]).size,
                "node_s": node_s,
                "stream_s": stream_s,
                "pages_per_s_node": round(batch / node_s, 2),
                "pages_per_s_stream": round(batch / stream_s, 2),
                "speedup_stream": round(speedup_stream, 2),
            }
        )
        print(
            f"    items={items:>5} pages={batch}  node t={node_s * 1e3:8.2f} ms   "
            f"stream t={stream_s * 1e3:8.2f} ms   speedup={speedup_stream:5.2f}x"
        )
        if smoke and items == sweep[-1][0] and speedup_stream < STREAM_MIN_SPEEDUP:
            raise SystemExit(
                f"streaming path only {speedup_stream:.2f}x the Node path at "
                f"items={items} (bound {STREAM_MIN_SPEEDUP}x)"
            )
    hostile_rows = _hostile_sweep(streaming, smoke)
    payload = {
        "experiment": "streaming_ingestion_end_to_end",
        "workload": "catalog batch, raw HTML -> wrapped output trees",
        "engine": {
            "node": "parse_html -> UnrankedStructure -> per-function plans (PR-2 baseline path)",
            "stream": "Wrapper.wrap_html_many (html_snapshot scan loop -> snapshot columns -> kernel -> snapshot output)",
            "hostile": "Wrapper.wrap_html_many on 64-item catalog pages with a depth-n tag-soup footer",
        },
        "smoke": smoke,
        "rows": rows,
        "hostile_rows": hostile_rows,
    }
    _write_bench("BENCH_stream.json", payload)


def report_delta(smoke: bool = False) -> None:
    """E-T6.6: the a^n b^n Elog-Delta program as a tracked artifact.

    Emits ``benchmarks/BENCH_delta.json``: one row per word length with
    auto-selected and forced-seminaive timings (the reserved delta
    relations sit outside the kernel fragment, so auto must settle on the
    same grounded/semi-naive strategies -- the row asserts result parity
    between the two before reporting any timing) plus the acceptance
    verdicts on and off the ``n = m`` diagonal.
    """
    print("== E-T6.6: a^n b^n (Elog-Delta) ==")
    program = anbn_program()
    rows = []
    sizes = (5, 20) if smoke else (5, 20, 60)
    repeat = 2 if smoke else 3
    for n in sizes:
        tree = flat_tree("a" * n + "b" * n)
        off_tree = flat_tree("a" * n + "b" * (n + 1))
        auto_s, result = _timed(
            evaluate_elog_delta, program, tree, repeat=repeat
        )
        semi_s, semi = _timed(
            evaluate_elog_delta, program, tree, "seminaive", repeat=repeat
        )
        for pred in ("a0", "b0", "anbn"):
            if result.unary(pred) != semi.unary(pred):
                raise SystemExit(
                    f"delta auto/seminaive parity broken on n={n} ({pred})"
                )
        accepted = 0 in result.unary("anbn")
        rejected = 0 not in evaluate_elog_delta(program, off_tree).unary("anbn")
        if not (accepted and rejected):
            raise SystemExit(f"anbn acceptance wrong at n={n}")
        rows.append(
            {
                "n": n,
                "nodes": tree.subtree_size(),
                "auto_s": auto_s,
                "seminaive_s": semi_s,
                "accepted_diagonal": accepted,
                "rejected_off_diagonal": rejected,
            }
        )
        print(
            f"    n={n:>3}  auto t={auto_s * 1e3:8.2f} ms  "
            f"seminaive t={semi_s * 1e3:8.2f} ms  accepted={accepted}"
        )
    payload = {
        "experiment": "elog_delta_anbn",
        "workload": "Theorem 6.6 a^n b^n program, flat word trees",
        "engine": {
            "auto": "evaluate_elog_delta (strategy auto-selection)",
            "seminaive": "evaluate_elog_delta(method='seminaive')",
        },
        "smoke": smoke,
        "rows": rows,
    }
    _write_bench("BENCH_delta.json", payload)


def _thread_chains(root):
    """The interior nodes of each comment chain, top down."""
    chains = []
    for thread in root.children:
        chain = []
        node = thread
        while node.children:
            chain.append(node)
            node = node.children[0]
        chains.append(chain)
    return chains


def _thread_tail_nodes(root, per_thread: int):
    """The deepest ``per_thread`` interior nodes of each comment chain."""
    return [node for chain in _thread_chains(root) for node in chain[-per_thread:]]


def _assert_incremental_exercised() -> None:
    """CI guard: warm runs reuse exactly when the tree is unchanged.

    A text-only re-crawl must take the reuse route (``engine=
    "incremental"``), or every warm call silently degrades to a cold run
    and the benchmark measures cold against cold.  Conversely, a one-node
    relabel must run cold and equal a cold run: a reuse check that missed
    a label change would hand back the previous version's answer.
    """
    from repro.trees.generate import thread_tree

    program = parse_program_incremental()
    _, state, _ = program.run_incremental(
        as_indexed(UnrankedStructure(thread_tree(4, 6))), None
    )
    new_tree = thread_tree(4, 6)
    _thread_tail_nodes(new_tree, 1)[0].text = "edited"
    result, _, info = program.run_incremental(
        as_indexed(UnrankedStructure(new_tree)), state
    )
    if info is None or result.engine != "incremental":
        raise SystemExit(
            "incremental path no longer exercised: warm re-run reported "
            f"engine={result.engine!r}, info={info!r}"
        )
    relabelled = thread_tree(4, 6)
    _thread_tail_nodes(relabelled, 1)[0].label = "leafc"
    doc = as_indexed(UnrankedStructure(relabelled))
    result, _, info = program.run_incremental(doc, state)
    cold = program.run(doc, method="kernel")
    if (
        info is not None
        or result.engine != "worklist"
        or result.unary("deep") != cold.unary("deep")
        or result.unary("mark") != cold.unary("mark")
    ):
        raise SystemExit(
            "a one-node relabel must run cold and equal cold: got "
            f"engine={result.engine!r}, info={info!r}"
        )
    _assert_snapshot_reuse_exercised()
    print(
        "    incremental guard: text edit -> engine=incremental, "
        "relabel -> engine=worklist == cold; second text-only page version "
        "-> snapshot_reused, third -> output_reused == cold, appended reply "
        "and one-tag relabel -> cold build == cold, crawl-stamped versions "
        "-> warm by same_tree == cold ok"
    )


def _assert_snapshot_reuse_exercised() -> None:
    """CI guard: a text-only page version reuses the previous structure
    and, from the third version on, the previous output's shape.

    Through :meth:`Wrapper.wrap_html_stateful` on a forum page: the second
    version, text-only, must report ``snapshot_reused`` (its prior-less
    first version keeps its page for the comparison), or every warm page
    silently pays a cold HTML build.  A third text-only version must
    report ``output_reused`` and equal a cold wrap, or every warm page
    silently pays a cold output assembly.  A next version with one
    appended reply, and one with a one-tag relabel, must each build and
    assemble cold and equal a cold wrap.

    Then a chain of three versions, each stamped with a new crawl-stamp
    comment: the comment sends every build through the general scanner
    step, so no snapshot is reused, and only the page's
    :meth:`~repro.trees.snapshot.TreeSnapshot.same_tree` test can find
    the unchanged tree.  The second and third versions must report
    ``warm`` without ``snapshot_reused``, the third ``output_reused``,
    and each must equal a cold wrap, or reuse silently depends on the
    page comparison alone.
    """
    import re

    from repro.workloads import FORUM_WRAPPER, forum_page

    program = parse_elog(FORUM_WRAPPER)
    wrapper = Wrapper()
    for pattern in ("thread", "comment", "body"):
        wrapper.add_elog(pattern, program, pattern=pattern)
    v1 = forum_page(seed=4, threads=3, depth=8)
    v2 = v1.replace("Comment 2.7 by", "Comment 2.7 (edited) by", 1)
    v3 = v2.replace("Comment 0.3 by", "Comment 0.3 (edited) by", 1)
    _, state, _ = wrapper.wrap_html_stateful(v1)
    out, state, stats = wrapper.wrap_html_stateful(v2, state)
    if not stats["snapshot_reused"] or not stats["warm"]:
        raise SystemExit(
            "snapshot reuse no longer exercised: a text-only second version "
            f"reported {stats!r}"
        )
    out, state, stats = wrapper.wrap_html_stateful(v3, state)
    if (
        not stats["output_reused"]
        or out.to_dict() != wrapper.wrap_html_many([v3])[0].to_dict()
    ):
        raise SystemExit(
            "output reuse no longer exercised: a text-only third version must "
            f"report output_reused and equal a cold wrap: got {stats!r}"
        )
    # One reply appended to the thread list, and one comment body's <p>
    # turned into an <h4>: the wrapper's answer changes either way.
    appended = v3.replace(
        "</ul></div>", '<li class="comment"><p>A new reply.</p></li></ul></div>', 1
    )
    relabelled = re.sub(r"<p>(Comment 1\.2 [^<]*)</p>", r"<h4>\1</h4>", v3, count=1)
    for name, edited in (("appended reply", appended), ("one-tag relabel", relabelled)):
        if edited == v3:
            raise SystemExit(f"snapshot reuse guard: the {name} edit found no tag")
        out, _, stats = wrapper.wrap_html_stateful(edited, state)
        cold = wrapper.wrap_html_many([edited])[0]
        if (
            stats["snapshot_reused"]
            or stats["warm"]
            or stats["output_reused"]
            or out.to_dict() != cold.to_dict()
        ):
            raise SystemExit(
                f"the {name} version must build cold and equal cold: got {stats!r}"
            )
    state = None
    for k, version in enumerate((v1, v2, v3)):
        stamped = f"<!-- crawled at {1000 + k} -->{version}"
        out, state, stats = wrapper.wrap_html_stateful(stamped, state)
        expected = (k > 0, False, k > 1)
        got = (stats["warm"], stats["snapshot_reused"], stats["output_reused"])
        if (
            got != expected
            or out.to_dict() != wrapper.wrap_html_many([stamped])[0].to_dict()
        ):
            raise SystemExit(
                f"stamped version {k + 1} must report (warm, snapshot_reused, "
                f"output_reused) == {expected} and equal a cold wrap: got {stats!r}"
            )


def parse_program_incremental():
    """The recursive descent program of the incremental sweep, compiled."""
    from repro.datalog.parser import parse_program

    return compile_program(
        parse_program(
            """
            mark(x) :- root(x).
            mark(y) :- mark(x), child(x, y).
            deep(x) :- mark(x), label_leafc(x).
            """,
            query="deep",
        )
    )


def _thread_spread_nodes(root, edits: int):
    """``edits`` chain nodes spread over all threads and all depths.

    Edit ``k`` lands in thread ``k mod threads`` at depth ``k * depth /
    edits``, so the first edits sit at the tops of their chains, above
    every fact of the chain below them.
    """
    chains = _thread_chains(root)
    picked = []
    for k in range(edits):
        chain = chains[k % len(chains)]
        picked.append(chain[k * len(chain) // edits])
    return picked


def report_incremental(smoke: bool = False) -> None:
    """E-INCR: warm re-extraction of unchanged trees vs cold runs.

    Emits ``benchmarks/BENCH_incremental.json``.  The workload is a
    comment-thread page (:func:`repro.trees.generate.thread_tree`: many
    unary chains under one root) with a recursive descent program, so a
    cold kernel run (bind plus the generated worklist) derives every fact
    of the page.  Each version edits comment text only, so the tree is
    unchanged and a warm run reuses the previous fixpoint: it compares
    five snapshot columns and copies the answer sets.  The rows edit the
    *deepest* comments of each thread (the re-crawl recency model, new
    activity at thread bottoms) at three edit ratios, plus one row per
    size of 1% edits scattered over all depths.  A structural edit runs
    cold; :func:`_assert_incremental_exercised` checks that route.

    Guards (SystemExit): cold/warm result parity on every row; every
    warm row must report ``engine="incremental"`` with no dirty node;
    and in full mode the ≤1%-edit deepest-comment rows at the largest
    size must be at least 5x faster than cold.
    """
    import random as _random

    from repro.trees.generate import thread_tree

    print("== E-INCR: incremental re-extraction (unchanged-tree reuse) ==")
    compiled = parse_program_incremental()
    sizes = ((20, 40), (40, 80)) if smoke else ((50, 100), (100, 200), (150, 400))
    ratios = (0.001, 0.01, 0.1)
    scattered_ratio = 0.01
    repeat = 2 if smoke else 3
    rows = []
    for threads, depth in sizes:
        old_doc = as_indexed(UnrankedStructure(thread_tree(threads, depth)))
        _, state, _ = compiled.run_incremental(old_doc, None)
        if state is None:
            raise SystemExit(
                f"no reusable plan state at threads={threads} depth={depth}"
            )
        nodes = old_doc.base.snapshot().size
        edit_sets = []
        for ratio in ratios:
            edits = max(1, round(ratio * nodes))
            per_thread = max(1, -(-edits // threads))
            new_tree = thread_tree(threads, depth)
            pool = _thread_tail_nodes(new_tree, per_thread)
            rng = _random.Random(threads * 7 + int(ratio * 1000))
            chosen = rng.sample(pool, min(edits, len(pool)))
            edit_sets.append(("deepest", ratio, new_tree, chosen))
        new_tree = thread_tree(threads, depth)
        edits = max(1, round(scattered_ratio * nodes))
        chosen = _thread_spread_nodes(new_tree, edits)
        edit_sets.append(("scattered", scattered_ratio, new_tree, chosen))
        for placement, ratio, new_tree, chosen in edit_sets:
            for node in chosen:
                node.text = (node.text or "") + " (edited)"
            new_doc = as_indexed(UnrankedStructure(new_tree))
            compiled.run(new_doc, method="kernel")  # warm document caches
            cold_s, cold = _timed(
                compiled.run, new_doc, "kernel", repeat=repeat
            )
            warm_s = float("inf")
            warm = info = None
            for _ in range(repeat):
                start = time.perf_counter()
                warm, _, info = compiled.run_incremental(new_doc, state)
                warm_s = min(warm_s, time.perf_counter() - start)
            where = f"threads={threads} {placement} ratio={ratio}"
            if (
                warm.unary("deep") != cold.unary("deep")
                or warm.unary("mark") != cold.unary("mark")
            ):
                raise SystemExit(
                    f"warm/cold disagree at {where}; refusing to report timings"
                )
            if info is None or warm.engine != "incremental" or info["dirty"]:
                raise SystemExit(
                    f"incremental path not exercised at {where}: "
                    f"engine={warm.engine!r}, info={info!r}"
                )
            speedup = cold_s / warm_s if warm_s else float("inf")
            rows.append(
                {
                    "threads": threads,
                    "depth": depth,
                    "nodes": nodes,
                    "placement": placement,
                    "edit_ratio": ratio,
                    "edits": len(chosen),
                    "dirty_fraction": info["dirty_fraction"],
                    "engine": warm.engine,
                    "cold_s": cold_s,
                    "warm_s": warm_s,
                    "speedup": round(speedup, 2),
                }
            )
            print(
                f"    n={nodes:>6} {placement:>9} edits={ratio * 100:5.1f}%  "
                f"cold t={cold_s * 1e3:8.2f} ms   warm t={warm_s * 1e3:8.2f} ms   "
                f"speedup={speedup:5.2f}x"
            )
    _assert_incremental_exercised()
    if not smoke:
        biggest = max(rows, key=lambda r: r["nodes"])["nodes"]
        small_edit = [
            r
            for r in rows
            if r["nodes"] == biggest
            and r["placement"] == "deepest"
            and r["edit_ratio"] <= 0.01
        ]
        if not any(r["speedup"] >= 5.0 for r in small_edit):
            raise SystemExit(
                "incremental bar missed: no >=5x speedup on <=1%-edited "
                f"pages at n={biggest}: "
                + ", ".join(f"{r['edit_ratio']}:{r['speedup']}x" for r in small_edit)
            )
    payload = {
        "experiment": "incremental_vs_cold",
        "workload": (
            "comment-thread page (thread_tree), recursive descent program, "
            "text edits on the deepest comments (re-crawl recency model), "
            "plus one row per size of 1% edits scattered over all depths"
        ),
        "engine": {
            "cold": "CompiledProgram.run(method='kernel') (worklist)",
            "warm": (
                "CompiledProgram.run_incremental: the tree is unchanged "
                "(schema, max_rank, labels, label_ids and parent equal), so "
                "the previous fixpoint is reused (engine='incremental')"
            ),
        },
        "smoke": smoke,
        "rows": rows,
    }
    _write_bench("BENCH_incremental.json", payload)


def _assert_remote_path_exercised() -> None:
    """CI guard: the socket transport must still carry real fixpoints.

    Boots one :class:`~repro.serve.shard.ShardDaemon` on loopback,
    installs the catalog wrapper through the framed RPC protocol and
    streams a page through ``RemoteShardExecutor``.  If the daemon's own
    ``pages`` counter stays at zero, the remote path has silently
    stopped being exercised (e.g. a refactor made the executor fall back
    to local shards) -- the cluster benchmarks and chaos suite would
    then be measuring the wrong stack, so the smoke job must fail
    loudly.
    """
    import asyncio

    from repro.serve import (
        DaemonThread,
        RemoteShardExecutor,
        ShardDaemon,
        WrapperRegistry,
    )

    registry = WrapperRegistry()
    registry.register(
        "catalog", CATALOG_WRAPPER, kind="elog",
        patterns=["record", "name", "price"],
    )
    entry = registry.get("catalog")
    daemon = DaemonThread(ShardDaemon("127.0.0.1"))
    host, port = daemon.start()
    try:
        async def probe():
            executor = RemoteShardExecutor([f"{host}:{port}"])
            try:
                for future in executor.ensure_installed(
                    entry.cache_key, entry.wrapper
                ):
                    await future
                page = catalog_page(seed=7, items=3)
                return await executor.submit(0, entry.cache_key, [page])
            finally:
                await executor.aclose()

        results = asyncio.run(probe())
        pages = daemon.daemon.stats["pages"]
        if RemoteShardExecutor.mode != "remote" or pages < 1 or not results:
            raise SystemExit(
                "remote shard path no longer exercised: daemon served "
                f"{pages} pages and the executor returned {results!r}"
            )
    finally:
        daemon.stop()
    print("    remote-path guard: framed RPC wrap -> daemon fixpoint ok")


def _assert_tracing_overhead_bounded() -> None:
    """CI guard: request tracing must stay within its <= 5% budget.

    Runs the ``tracing_overhead`` measurement from
    :mod:`benchmarks.bench_serve` (identical HTTP stacks with tracing on
    vs ``tracing=False``, interleaved min-of-N) at smoke scale.  Tracing
    is on by default in production, so a regression that makes spans
    expensive -- an allocation on the kernel hot loop, a lock on the
    request path -- taxes every request; fail the smoke job instead of
    letting it land silently.
    """
    import bench_serve

    row = bench_serve.bench_tracing_overhead(requests=32, repeat=3, shards=1)
    if row["overhead_fraction"] > 0.05:
        raise SystemExit(
            "tracing overhead above the 5% budget: "
            f"{row['overhead_fraction'] * 100:+.1f}% "
            f"({row['untraced_rps']} req/s untraced vs "
            f"{row['traced_rps']} req/s traced)"
        )
    print(
        "    tracing-overhead guard: "
        f"{row['overhead_fraction'] * 100:+.1f}% <= 5% ok"
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    if "--kernel-only" in sys.argv[1:]:
        # The CI kernel-bench job re-runs just the kernel sweep, on its
        # own runner; everything else is measured by the main smoke job.
        report_kernel(smoke=smoke)
    elif smoke:
        report_compiled(smoke=True)
        report_kernel(smoke=True)
        report_stream(smoke=True)
        report_incremental(smoke=True)
        report_delta(smoke=True)
        _assert_remote_path_exercised()
        _assert_tracing_overhead_bounded()
    else:
        report_t42()
        report_p35()
        report_p37()
        report_ex421()
        report_t52()
        report_c64()
        report_msoblowup()
        report_delta()
        report_compiled()
        report_kernel()
        report_stream()
        report_incremental()
        _assert_remote_path_exercised()
        _assert_tracing_overhead_bounded()
