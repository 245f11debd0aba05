"""Seeded page generators for the workloads.

Everything here is a pure function of its seed, so the same ``--seed``
gives the same inputs on every run and every commit.
"""

from __future__ import annotations

from typing import List

from repro.workloads import catalog_page, forum_page

#: Nesting depth of the hostile tag-soup pages.
HOSTILE_DEPTH = 1000

#: The two hostile kinds, cheaper first (on a 2-core x86 host with
#: Python 3.11: ~45 ms and ~60 ms against ~15 ms for a 640-item catalog
#: page).
HOSTILE_KINDS = ("stray_end", "p_runs")


def hostile_page(seed: int, kind: str, depth: int = HOSTILE_DEPTH) -> str:
    """A 64-item catalog page whose footer is hostile tag soup.

    ``stray_end``: ``depth`` unclosed ``<div>`` then ``depth`` stray
    ``</span>`` end tags (each end tag searches the whole open stack).
    ``p_runs``: ``depth`` unclosed ``<div>`` then ``depth`` ``<p>`` runs
    (each ``<p>`` implies closing the previous one).  The catalog table
    comes first, so the wrapper still extracts 64 records.
    """
    if kind == "stray_end":
        junk = "<div>" * depth + "</span>" * depth
    elif kind == "p_runs":
        junk = "<div>" * depth + "".join(f"<p>r{i}" for i in range(depth))
    else:
        raise ValueError(f"unknown hostile kind {kind!r}")
    page = catalog_page(seed=seed, items=64)
    return page.replace('<div id="footer">', '<div id="footer">' + junk, 1)


def _edit_comment(page: str, thread: int, depth: int, tag: str) -> str:
    """Change one comment body of a :func:`forum_page` (unique marker)."""
    marker = f"Comment {thread}.{depth} by"
    edited = page.replace(marker, f"Comment {thread}.{depth} {tag} by", 1)
    if edited == page:
        raise ValueError(f"comment {thread}.{depth} not found")
    return edited


def edit_deepest(page: str, threads: int, depth: int, version: int) -> str:
    """Edit the deepest comment of every thread (new activity lands at
    thread bottoms); ``version`` tags the edit, so versions differ."""
    for t in range(threads):
        page = _edit_comment(page, t, depth - 1, f"(edit {version})")
    return page


def forum_versions(
    seed: int, threads: int, depth: int, deep_versions: int, scattered: int
) -> List[str]:
    """Successive crawls of one forum page.

    Version 0 is the page as first crawled.  Versions ``1..deep_versions``
    each re-edit the deepest comment of every thread (:func:`edit_deepest`).
    The last version adds ``scattered`` edits spread
    evenly over all threads and depths on top of the previous one (fixed
    positions: the cost of a warm run depends on where edits land, and
    seeded positions would move the tail from seed to seed).
    """
    base = forum_page(seed=seed, threads=threads, depth=depth)
    versions = [base]
    for k in range(1, deep_versions + 1):
        versions.append(edit_deepest(base, threads, depth, k))
    if scattered:
        spots = [(t, d) for d in range(depth - 1) for t in range(threads)]
        spots = spots[:: max(1, len(spots) // scattered)][:scattered]
        page = versions[-1]
        for t, d in spots:
            page = _edit_comment(page, t, d, "(moved)")
        versions.append(page)
    return versions
