"""Linear time on adversarial HTML and deep reply chains.

The paper's evaluation bound (Thm 4.2) is linear in the document, and
the serving deadlines are derived from document size on the strength of
it.  Each generator below builds hostile input of size proportional to
``n``: tag soup that makes the tree-construction policy look far down
the open-element stack, start tags that make the attribute scanner
retry, wide, commented or rawtext documents, and documents with more
distinct tag names than a byte holds.  For each one, doubling ``n`` must
not much more than double the time of both HTML builders, of output
assembly on the page's snapshot, and of the full wrapping path, for an
Elog- wrapper, for an MSO one lowered to datalog and for a datalog rule
whose body constant once sent it to seminaive (a quadratic shape gives
~4).  Reply trees that are both wide and deep hold the cold
kernel to the same bound: an engine that advances the fixpoint
one round per chain level, at a cost that grows with the document,
would go quadratic there.  Forum pages whose reply chains double in
depth hold the whole wrapping path to it, cold and on a warm re-run
whose edits sit at the top of every chain (the text-only edit reuses
the previous fixpoint and, compared piece by piece with the previous
page, the previous structure), and on the next text-only version.  The snapshot diff is held to the bound on every
generator's page, one character edited, and so are the catalog
wrapper's kernel bind and the tree relations the general engines read.

Each attempt times the two sizes in back-to-back pairs and takes the
median of the pairs' ratios.  A change of host speed that outlasts a
pair (a busy neighbour, a frequency step) scales both of its samples
alike, and the median drops the few pairs such a change splits.  An
attempt over the bound is repeated after a pause, from fresh samples,
up to ``ATTEMPTS`` times: a quadratic shape exceeds the bound in every
attempt, while a linear one only does when a busy host slows most of
one attempt's large samples and not their small partners.  (Minima
kept across attempts would pair a sample from a fast spell of the host
with ones from a slow spell, and could fail a linear path in every
attempt.)
"""

import functools
import gc
import statistics
import time

import pytest

from repro.datalog.parser import parse_program
from repro.html import parse_html
from repro.mso import parse_mso
from repro.structures import as_indexed
from repro.trees.diff import diff_snapshots
from repro.trees.generate import thread_tree
from repro.trees.stream import html_snapshot
from repro.trees.unranked import UnrankedStructure
from repro.workloads import forum_page
from repro.wrap import Document, Wrapper, build_output_from_snapshot
from tests.test_incremental import descent_program, forum_wrapper
from tests.test_stream import catalog_plan, catalog_wrapper

#: Base size; every generator is timed at N and 2N.
N = 1000

#: Allowed t(2N)/t(N): linear is ~2, quadratic ~4.
MAX_RATIO = 2.5

#: A timed sample is repeated until it lasts at least this long, so
#: small inputs are not lost in timer noise.
MIN_SAMPLE_S = 0.004

#: Sample pairs in one attempt, and attempts before a ratio over the
#: bound fails.
SAMPLES = 5
ATTEMPTS = 5

GENERATORS = {
    "stray_end_tags": lambda n: "<div>" * n + "</span>" * n,
    "p_runs_deep": lambda n: "<div>" * n + "".join(f"<p>r{i}" for i in range(n)),
    "td_behind_table": lambda n: "<table>" + "<div>" * n + "<td>c" * n,
    "nested_ul_li": lambda n: "<ul><li>" * n + "<li>i" * n + "</ul>" * n,
    "whitespace_junk_attrs": lambda n: "<a" + " " * (4 * n) + "=x>t" + "<b  =>u" * n,
    "attribute_flood": lambda n: "<div "
    + " ".join(f'a{i}="{i}" b{i}=x c{i}' for i in range(n))
    + ">t</div>",
    "wide_fan_out": lambda n: "<ul>" + "<li>x" * n + "</ul>",
    "comments": lambda n: "<div><!-- c -->t</div>" * n + "<!-- unterminated",
    "unclosed_script": lambda n: "<p>t" * n + "<script>" + "if(a<b)x();" * n,
    # Two attributes are more than the tag grammar takes: the tag text is
    # cached as a miss, so every start tag goes through the general step
    # and the split on '<' resyncs after it.
    "two_attribute_tags": lambda n: 't<a x="1" y="2">u</a>' * n,
    # Every start tag's text is new, so every lookup misses the
    # per-document tag cache and the cache grows with the page.
    "distinct_tag_texts": lambda n: "".join(f'<a href="/p{i}">x</a>' for i in range(n)),
    # A '>' in a quoted value cuts the tag text short: every start tag
    # goes through the general step and the resync after it.
    "gt_in_quoted_values": lambda n: '<a t="x>y">u</a>' * n,
    "text_then_comment": lambda n: "t<!-- c -->" * n,
    # n // 5 distinct tag names: 200 at N, 400 at 2N, so the pair spans
    # the 256-label switch from byte-lane to array('i') label ids and
    # both forms are timed.
    "distinct_labels": lambda n: "".join(f"<t{i}>x</t{i}>" for i in range(n // 5)) * 5,
}


#: The catalog wrapper plus a pure unary seed rule (an anchor relation and
#: a mask check on the anchored node), so the wrapping path also times
#: that sweep shape on every generator's page.
WRAPPER = catalog_wrapper().add_datalog(
    "last_leaf", parse_program("p(x) :- leaf(x), lastsibling(x).", query="p")
)


@functools.lru_cache(maxsize=2)
def snapshot_and_even_ids(page):
    """The page's snapshot and an assignment keeping every even id
    (built once per page, outside the timed output assembly)."""
    snapshot = html_snapshot(page)
    return snapshot, dict.fromkeys(range(0, snapshot.size, 2), "kept")


@functools.lru_cache(maxsize=2)
def snapshot_pair(page):
    """Snapshots of the page and of the page with one character appended
    (built once per page, outside the timed diff)."""
    return html_snapshot(page), html_snapshot(page + "x")


@functools.lru_cache(maxsize=2)
def page_snapshot(page):
    """The page's snapshot (built once per page, outside the timed bind)."""
    return html_snapshot(page)


#: A unary MSO query lowered to monadic datalog (Thm 4.4).  Its alphabet
#: is closed, so it lists every label the generators emit, the tags of
#: "distinct_labels" at 2N included.
MSO_WRAPPER = Wrapper().add_mso(
    "inner_li",
    parse_mso("label_li(x) & ~leaf(x)"),
    "x",
    ["#text", "a", "b", "div", "document", "li", "p", "script", "table", "td", "ul"]
    + [f"t{i}" for i in range(2 * N // 5)],
)

#: A body constant in a rule with two ``child`` enumerations from one
#: node: the direct lowering is superlinear, so the rule lowers through
#: TMNF with the constant as its singleton relation ``@const:0``.  On
#: seminaive, which ran it before constants lowered, it was quadratic.
CONSTANT_WRAPPER = Wrapper().add_datalog(
    "p",
    parse_program(
        "p(x) :- child(y, x), child(y, z), label_li(z), child(x2, y), "
        "child(0, x2).",
        query="p",
    ),
)

CATALOG_PLAN = catalog_plan()


def fresh_document(page):
    """A new :class:`Document` over the page's snapshot, with the
    snapshot's memo slots cleared so that every call recomputes the
    relation columns it reads."""
    snapshot = page_snapshot(page)
    snapshot._unary_masks.clear()
    snapshot._unary_nodes.clear()
    snapshot._forward.clear()
    snapshot._backward.clear()
    snapshot._child_index = snapshot._label_nodes = None
    return Document(snapshot)


def bind_from_scratch(page):
    """Bind the catalog plan's kernel to a fresh document of the page."""
    return CATALOG_PLAN.kernel_applicable(fresh_document(page))


#: The linear relations the seminaive and grounding engines read.
LINEAR_RELATIONS = (
    "child", "firstchild", "nextsibling", "lastchild",
    "leaf", "lastsibling", "label_td", "notlabel_td",
)


def relations_from_scratch(page):
    """Read every linear relation of a fresh document of the page."""
    document = fresh_document(page)
    return [document.relation(name) for name in LINEAR_RELATIONS]


def diff_from_scratch(page):
    """Diff the page's snapshot against its one-character edit, with the
    signature and diff memos cleared first so that every call computes both
    signature tables (inside :func:`diff_snapshots`) and the match."""
    old, new = snapshot_pair(page)
    for snapshot in (old, new):
        snapshot._sig = snapshot._diff = None
    return diff_snapshots(old, new)


PATHS = {
    "html_snapshot": html_snapshot,
    "parse_html": parse_html,
    "wrap_html_many": lambda page: WRAPPER.wrap_html_many([page]),
    "wrap_html_many_mso": lambda page: MSO_WRAPPER.wrap_html_many([page]),
    "wrap_html_many_constant": lambda page: CONSTANT_WRAPPER.wrap_html_many([page]),
    "output_assembly": lambda page: build_output_from_snapshot(
        *snapshot_and_even_ids(page)
    ),
    "snapshot_diff": diff_from_scratch,
    "kernel_bind": bind_from_scratch,
    "tree_relations": relations_from_scratch,
}


def sample(run, page, repeats: int) -> float:
    """Mean CPU time of ``repeats`` runs (time the host gave to other
    work does not count).

    The collector is off while timing; the young generation is collected
    first, so that Node trees (cyclic through parent links) left by the
    previous sample are freed rather than piling up.
    """
    gc.collect(0)
    start = time.process_time()
    for _ in range(repeats):
        run(page)
    return (time.process_time() - start) / repeats


def doubling_ratios(run, small, large):
    """``t(large)/t(small)`` per attempt (median of back-to-back pairs),
    stopping at the first attempt within :data:`MAX_RATIO`."""
    ratios = []
    gc.collect()
    gc.disable()
    try:
        run(small)
        run(large)
        repeats = max(1, int(MIN_SAMPLE_S / sample(run, small, 1)))
        for _ in range(ATTEMPTS):
            if ratios:
                time.sleep(0.1)
            ratios.append(
                statistics.median(
                    sample(run, large, repeats) / sample(run, small, repeats)
                    for _ in range(SAMPLES)
                )
            )
            if ratios[-1] <= MAX_RATIO:
                break
    finally:
        gc.enable()
    return ratios


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_doubling_input_at_most_doubles_time(generator, path):
    run = PATHS[path]
    ratios = doubling_ratios(
        run, GENERATORS[generator](N), GENERATORS[generator](2 * N)
    )
    assert ratios[-1] <= MAX_RATIO, (
        f"{generator} via {path}: t(2n)/t(n) = "
        + ", ".join(f"{ratio:.2f}" for ratio in ratios)
    )


#: Wide, deep reply trees for the cold kernel alone: KERNEL_THREADS
#: chains of KERNEL_DEPTH nodes at n, twice as deep at 2n.  Sixteen
#: chains keep every level of the descent wide, so an engine that pays
#: one pass over the document per level is quadratic here (the deleted
#: frontier-at-a-time engine read t(2n)/t(n) = 3.3-3.5), while the
#: worklist derives each fact once.
KERNEL_THREADS = 16
KERNEL_DEPTH = 200

DESCENT = descent_program()


@functools.lru_cache(maxsize=2)
def thread_document(depth):
    """The reply tree as an indexed document with its snapshot built
    (once per depth, outside the timed fixpoint)."""
    document = as_indexed(UnrankedStructure(thread_tree(KERNEL_THREADS, depth)))
    document.snapshot()
    return document


def test_doubling_thread_depth_at_most_doubles_cold_kernel_time():
    def run(depth):
        return DESCENT.run(thread_document(depth), method="kernel")

    for depth in (KERNEL_DEPTH, 2 * KERNEL_DEPTH):
        result = run(depth)
        assert result.engine == "worklist"
        assert len(result.unary("mark")) == thread_document(depth).size
    ratios = doubling_ratios(run, KERNEL_DEPTH, 2 * KERNEL_DEPTH)
    assert ratios[-1] <= MAX_RATIO, (
        "cold kernel on thread_tree: t(2n)/t(n) = "
        + ", ".join(f"{ratio:.2f}" for ratio in ratios)
    )


#: Deep-chain forum pages: FORUM_THREADS reply chains of FORUM_DEPTH
#: comments at n, twice as deep at 2n; the warm version edits the text
#: at depth 0 of every thread, above every chain.
FORUM_THREADS = 4
FORUM_DEPTH = 60

FORUM = forum_wrapper()


@functools.lru_cache(maxsize=2)
def forum_versions(depth):
    """A forum page, the page with depth 0 of every thread edited, the
    page's warm state, the page edited again and the edited page's warm
    state, which holds its rank table (built once per depth, outside the
    timing)."""
    base = forum_page(seed=5, threads=FORUM_THREADS, depth=depth)
    edited = again = base
    for t in range(FORUM_THREADS):
        edited = edited.replace(f"Comment {t}.0 by", f"Comment {t}.0 (edited) by", 1)
        again = again.replace(f"Comment {t}.0 by", f"Comment {t}.0 (again) by", 1)
    _, state, _ = FORUM.wrap_html_stateful(base)
    _, keyed, _ = FORUM.wrap_html_stateful(edited, state)
    return base, edited, state, again, keyed


FORUM_PATHS = {
    # (timed call, whether it runs warm, whether its snapshot is reused,
    # what its kernel run must report)
    "cold": (
        lambda depth: FORUM.wrap_html_stateful(forum_versions(depth)[0]),
        False,
        False,
        {"engine": "worklist"},
    ),
    # The second version: a piece comparison, no structure build.
    "deep_cone": (
        lambda depth: FORUM.wrap_html_stateful(*forum_versions(depth)[1:3]),
        True,
        True,
        {"engine": "incremental"},
    ),
    # The third text-only version: its rank table is already built.
    "reused_structure": (
        lambda depth: FORUM.wrap_html_stateful(*forum_versions(depth)[3:]),
        True,
        True,
        {"engine": "incremental"},
    ),
}


@pytest.mark.parametrize("path", sorted(FORUM_PATHS))
def test_doubling_chain_depth_at_most_doubles_time(path):
    run, warm, reused, expected = FORUM_PATHS[path]
    for depth in (FORUM_DEPTH, 2 * FORUM_DEPTH):
        _, _, stats = run(depth)
        (kernel_run,) = stats["runs"]
        assert stats["warm"] == warm
        assert stats["snapshot_reused"] == reused
        assert {key: kernel_run[key] for key in expected} == expected
    ratios = doubling_ratios(run, FORUM_DEPTH, 2 * FORUM_DEPTH)
    assert ratios[-1] <= MAX_RATIO, (
        f"forum chains via {path}: t(2n)/t(n) = "
        + ", ".join(f"{ratio:.2f}" for ratio in ratios)
    )
