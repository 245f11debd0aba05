"""Snapshot diffs: match unchanged subtrees between document versions.

Given the columnar snapshots of two versions of a document, produce the
ingredients the incremental kernel (a warm :meth:`KernelProgram.evaluate`)
needs to avoid re-deriving facts over unchanged regions:

* ``new_from_old[v]`` -- the new preorder id of old node ``v``, or -1
  when ``v`` has no counterpart.  Two kinds of nodes map: whole subtrees
  with identical content (mapped as contiguous preorder ranges, since
  a subtree of ``v`` occupies exactly ``[v, v + size(v))``), and
  *aligned* nodes -- pairs on the recursion spine above an edit whose
  subtrees differ but whose own label/text/attrs are unchanged (the
  ``table`` above an edited row).  Without spine alignment every
  ancestor of an edit would count as changed and deletion would cascade
  through the whole document;
* ``dirty_new_int`` / ``dirty_count`` -- the *new* nodes with no
  counterpart at all (the region that must be evaluated from scratch);
* ``old_bad_int`` / ``new_bad_int`` -- the nodes whose *local
  neighborhood* changed: unmapped nodes, plus mapped nodes whose cross
  edges (parent / prevsibling / nextsibling) are not preserved by the
  mapping or whose leaf status flipped.  Every rule instance that is
  valid on one version but not the other must touch such a node (edges
  and unary statuses elsewhere are preserved -- by content identity
  inside matched subtrees, by the explicit checks at subtree roots and
  aligned nodes), so these sets seed the kernel's delete-and-rederive
  pass.

Matching is top-down over the signature columns of
:func:`repro.trees.merkle.signature_table`: "these two subtrees are
identical" is a couple of byte-slice comparisons (label and shape lanes)
plus a bisected payload-range comparison, so a matched subtree costs
O(its size) in C, not per-node Python.  Differing pairs strip the common
structural prefix and suffix of their child sequences by bisection over
the lane bytes, then let :class:`difflib.SequenceMatcher` align the
(typically tiny) middle window, recursing only into replaced pairs.
For a page where k subtrees changed, the Python-level work is
O(k · branching · depth); everything proportional to document size runs
in C.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from difflib import SequenceMatcher
from typing import Callable, List, Tuple

from repro.trees.merkle import signature_table


class SnapshotDiff:
    """Result of :func:`diff_snapshots` (see module docstring)."""

    __slots__ = (
        "new",
        "new_from_old",
        "ranges",
        "dirty_new_int",
        "dirty_count",
        "old_bad_int",
        "new_bad_int",
        "matched_roots",
    )

    def __init__(self, new, new_from_old, ranges, dirty_new_int,
                 dirty_count, old_bad_int, new_bad_int, matched_roots):
        # No reference back to the old snapshot: the old snapshot memoizes
        # this diff, so one would make every replaced version cyclic
        # garbage that only the collector frees.
        self.new = new
        #: array('i'): new id per old id, -1 where unmapped.
        self.new_from_old = new_from_old
        #: mapped contiguous ranges as ``(old_start, new_start, size)``
        #: (matched subtrees plus size-1 aligned spine nodes).
        self.ranges = ranges
        self.dirty_new_int = dirty_new_int
        self.dirty_count = dirty_count
        self.old_bad_int = old_bad_int
        self.new_bad_int = new_bad_int
        #: top-level matched subtree pairs ``(old_root, new_root)``.
        self.matched_roots = matched_roots

    @property
    def dirty_fraction(self) -> float:
        """Unmapped fraction of the *new* document (0.0 = identical)."""
        return self.dirty_count / self.new.size if self.new.size else 0.0

    def translator(self) -> Callable[[int], int]:
        """Bulk old→new translation of byte-lane big-int node sets.

        Mapped nodes come in contiguous ranges, so the whole mapping
        decomposes into one shift class per distinct ``new - old`` id
        delta -- translating a derived-fact mask is a handful of big-int
        mask/shift ops, exactly like the snapshot's own move maps.
        Unmapped old nodes are dropped (their bytes fall outside every
        class mask).
        """
        classes = {}
        old_size = len(self.new_from_old)
        for ov, nw, size in self.ranges:
            delta = nw - ov
            mask = classes.get(delta)
            if mask is None:
                mask = classes[delta] = bytearray(old_size)
            mask[ov : ov + size] = b"\x01" * size
        pairs = tuple(
            (8 * delta, int.from_bytes(mask, "little"))
            for delta, mask in classes.items()
        )

        def translate(s: int) -> int:
            out = 0
            for shift, mask in pairs:
                part = s & mask
                if part:
                    out |= (part << shift) if shift >= 0 else (part >> -shift)
            return out

        return translate


def _edge_preserved(old_arr, new_arr, new_from_old, ov: int, nw: int) -> bool:
    """Whether one cross-edge column agrees at a mapped pair."""
    ou = old_arr[ov]
    nu = new_arr[nw]
    if ou < 0 or nu < 0:
        return ou < 0 and nu < 0
    return new_from_old[ou] == nu


def _mismatch_positions(a, b) -> List[int]:
    """Indices where equal-length sequences differ, by bisection.

    Equal slices are dismissed with one C-speed comparison, so the cost
    is O(d log n) slice compares for d mismatches -- not a per-element
    Python loop.

    >>> _mismatch_positions((1, 2, 3, 4), (1, 9, 3, 8))
    [1, 3]
    """
    out: List[int] = []
    stack = [(0, len(a))]
    while stack:
        lo, hi = stack.pop()
        if a[lo:hi] == b[lo:hi]:
            continue
        if hi - lo == 1:
            out.append(lo)
            continue
        mid = (lo + hi) // 2
        stack.append((mid, hi))
        stack.append((lo, mid))
    out.sort()
    return out


def _payload_only_diff(new, keys, otex, ntex, oatt, natt) -> SnapshotDiff:
    """The :func:`diff_snapshots` result for structurally identical
    snapshots: identity mapping with holes at changed payload nodes."""
    n = new.size
    dirty_ids = sorted(
        {keys[i] for i in _mismatch_positions(otex, ntex)}
        | {keys[i] for i in _mismatch_positions(oatt, natt)}
    )
    new_from_old = array("i", range(n))
    dirty = bytearray(n)
    bad = bytearray(n)
    ranges: List[Tuple[int, int, int]] = []
    prev = 0
    firstchild, nextsibling, prevsibling = (
        new.firstchild,
        new.nextsibling,
        new.prevsibling,
    )
    for v in dirty_ids:
        new_from_old[v] = -1
        dirty[v] = 1
        bad[v] = 1
        # Mirror the generic path's bad set: the dirty node's adjacent
        # siblings and children sit on edges into an unmapped node.
        for u in (prevsibling[v], nextsibling[v]):
            if u >= 0:
                bad[u] = 1
        u = firstchild[v]
        while u >= 0:
            bad[u] = 1
            u = nextsibling[u]
        if v > prev:
            ranges.append((prev, prev, v - prev))
        prev = v + 1
    if n > prev:
        ranges.append((prev, prev, n - prev))
    bad_int = int.from_bytes(bad, "little")
    return SnapshotDiff(
        new,
        new_from_old,
        ranges,
        int.from_bytes(dirty, "little"),
        len(dirty_ids),
        bad_int,
        bad_int,
        [(0, 0)] if not dirty_ids else [],
    )


def diff_snapshots(old, new) -> SnapshotDiff:
    """Diff two snapshots of (versions of) one document.

    >>> from repro.trees.stream import sexpr_snapshot
    >>> a = sexpr_snapshot("r(x(p, q), y(s))")
    >>> b = sexpr_snapshot("r(x(p, q), y(t))")
    >>> d = diff_snapshots(a, b)
    >>> [v for v in range(b.size) if d.dirty_new_int >> (8 * v) & 1]
    [5]
    >>> list(d.new_from_old)  # r and y aligned, x(p, q) matched, s gone
    [0, 1, 2, 3, 4, -1]
    >>> [v for v in range(b.size) if d.new_bad_int >> (8 * v) & 1]
    [5]
    >>> diff_snapshots(a, b) is d  # memoized on the old snapshot
    True
    """
    memo = old._diff
    if memo is not None and memo[0] is new:
        return memo[1]
    old_sig = signature_table(old)
    new_sig = signature_table(new)
    old_lab, old_shape, okeys, odelta, otex, oatt = old_sig
    new_lab, new_shape, nkeys, ndelta, ntex, natt = new_sig
    if (
        old.size == new.size
        and old.size
        and old_lab == new_lab
        and old_shape == new_shape
        and okeys == nkeys
    ):
        # Payload-only fast path: equal label lanes, shape lanes and
        # payload positions mean the two structures are *identical* node
        # for node -- the re-crawl common case where only some text or
        # attribute values changed.  The mapping is the identity with
        # holes at the changed payload nodes, found by divide-and-conquer
        # slice comparison (O(changed * log n) C-speed compares) instead
        # of the generic per-subtree recursion, which pays O(depth) Python
        # rounds per edit spine.
        result = _payload_only_diff(new, okeys, otex, ntex, oatt, natt)
        old._diff = (new, result)
        return result
    new_from_old = array("i", [-1]) * old.size
    dirty = bytearray(b"\x01" * new.size)
    ranges: List[Tuple[int, int, int]] = []
    matched_roots: List[Tuple[int, int]] = []
    #: deferred safety checks per mapped pair: bit 1 = parent edge,
    #: 2 = prevsibling edge, 4 = nextsibling edge, 8 = unconditionally bad
    #: (an aligned pair whose leaf status flipped).
    checks: List[Tuple[int, int, int]] = []
    old_first, old_next = old.firstchild, old.nextsibling
    new_first, new_next = new.firstchild, new.nextsibling
    old_labels, old_label_ids = old.labels, old.label_ids
    new_labels, new_label_ids = new.labels, new.label_ids
    old_text_get = (old.texts or {}).get
    new_text_get = (new.texts or {}).get
    old_attr_get = (old.attrs or {}).get
    new_attr_get = (new.attrs or {}).get

    # Plain bytes for the bisection helpers: slice + compare are both
    # memcpy-class; memoryview equality is element-wise and far slower.
    old_lab_v, new_lab_v = old_lab, new_lab
    old_shape_v, new_shape_v = old_shape, new_shape

    def common_len(a, a0, b, b0, limit: int) -> int:
        # Longest k <= limit with a[a0:a0+k] == b[b0:b0+k], by bisection:
        # O(log) slice comparisons, each C-speed.
        lo, hi = 0, limit
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a[a0 : a0 + mid] == b[b0 : b0 + mid]:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def common_len_end(a, a1, b, b1, limit: int) -> int:
        # Longest k <= limit with a[a1-k:a1] == b[b1-k:b1].
        lo, hi = 0, limit
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a[a1 - mid : a1] == b[b1 - mid : b1]:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def payload_equal(ov: int, oe: int, nw: int, ne: int) -> bool:
        # The ranges carry equal text/attr payloads iff the same number
        # of payload nodes sit at the same offsets (first offset checked
        # directly, the rest via the position-independent gap lanes)
        # with equal values -- compared by value, not digest.
        i1 = bisect_left(okeys, ov)
        i2 = bisect_left(okeys, oe)
        j1 = bisect_left(nkeys, nw)
        j2 = bisect_left(nkeys, ne)
        if i2 - i1 != j2 - j1:
            return False
        if i1 == i2:
            return True
        return (
            okeys[i1] - ov == nkeys[j1] - nw
            and odelta[4 * i1 + 4 : 4 * i2] == ndelta[4 * j1 + 4 : 4 * j2]
            and otex[i1:i2] == ntex[j1:j2]
            and oatt[i1:i2] == natt[j1:j2]
        )

    def subtree_equal(ov: int, oe: int, nw: int, ne: int) -> bool:
        # Slice comparisons over the signature lanes; the shape slice
        # skips the roots' own lanes (their parents lie outside).
        return (
            oe - ov == ne - nw
            and old_lab[8 * ov : 8 * oe] == new_lab[8 * nw : 8 * ne]
            and old_shape[4 * ov + 4 : 4 * oe] == new_shape[4 * nw + 4 : 4 * ne]
            and payload_equal(ov, oe, nw, ne)
        )

    ident = array("i", range(new.size))
    zeros = bytes(new.size)

    def map_range(ov: int, nw: int, size: int) -> None:
        new_from_old[ov : ov + size] = ident[nw : nw + size]
        dirty[nw : nw + size] = zeros[:size]
        ranges.append((ov, nw, size))

    def match_run(old_kids, new_kids, i1, i2, j1, j2, safe_parent) -> None:
        # A run of consecutive children matching pairwise: equal content
        # means equal subtree sizes, so the whole run is ONE contiguous
        # range pair.  Interior roots need no edge checks -- their
        # siblings are inside the run and their shared parent pair is
        # mapped (``safe_parent``) -- so only the run boundary defers
        # sibling checks.  Under an unmapped parent every run root's
        # parent edge is broken: mark them all for the bad set instead.
        first_ov = old_kids[i1][0]
        first_nw = new_kids[j1][0]
        total = old_kids[i2 - 1][1] - first_ov
        map_range(first_ov, first_nw, total)
        matched_roots.append((first_ov, first_nw))
        if safe_parent:
            checks.append((first_ov, first_nw, 2))
            checks.append((old_kids[i2 - 1][0], new_kids[j2 - 1][0], 4))
        else:
            for i, j in zip(range(i1, i2), range(j1, j2)):
                checks.append((old_kids[i][0], new_kids[j][0], 8))

    # Stack entries carry the subtree *ends* (one past the last
    # descendant) so sizes never need a per-node pass: a child's end
    # is its next sibling's id, the last child's end is the parent's.
    stack: List[Tuple[int, int, int, int]] = []

    def emit_run(old_kids, new_kids, i1, i2, j1, j2, safe_parent) -> None:
        # kids i1..i2 / j1..j2 match pairwise *structurally*; verify
        # payloads, matching maximal payload-equal sub-runs and recursing
        # into offenders (usually the one edited child).  Equality over a
        # range implies equality over any prefix of it, so the longest
        # clean sub-run bisects.
        while i1 < i2:
            base_o = old_kids[i1][0]
            base_n = new_kids[j1][0]
            lo, hi = 0, i2 - i1
            if payload_equal(
                base_o, old_kids[i2 - 1][1], base_n, new_kids[j2 - 1][1]
            ):
                lo = hi
            else:
                hi -= 1
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if payload_equal(
                        base_o,
                        old_kids[i1 + mid - 1][1],
                        base_n,
                        new_kids[j1 + mid - 1][1],
                    ):
                        lo = mid
                    else:
                        hi = mid - 1
            if lo:
                match_run(old_kids, new_kids, i1, i1 + lo, j1, j1 + lo,
                          safe_parent)
                i1 += lo
                j1 += lo
            if i1 < i2:
                c0, c1 = old_kids[i1]
                d0, d1 = new_kids[j1]
                stack.append((c0, c1, d0, d1))
                i1 += 1
                j1 += 1

    if old.size and new.size:
        stack.append((0, old.size, 0, new.size))
        while stack:
            ov, oe, nw, ne = stack.pop()
            if subtree_equal(ov, oe, nw, ne):
                map_range(ov, nw, oe - ov)
                matched_roots.append((ov, nw))
                checks.append((ov, nw, 1 | 2 | 4))
                continue
            old_kids: List[Tuple[int, int]] = []
            v = old_first[ov]
            while v >= 0:
                w = old_next[v]
                old_kids.append((v, w if w >= 0 else oe))
                v = w
            new_kids: List[Tuple[int, int]] = []
            v = new_first[nw]
            while v >= 0:
                w = new_next[v]
                new_kids.append((v, w if w >= 0 else ne))
                v = w
            # The subtrees differ, but when the pair's own label, text and
            # attrs agree the nodes themselves still correspond -- aligning
            # them keeps an edit's ancestor spine reusable instead of
            # letting every ancestor count as changed.
            pair_aligned = (
                old_labels[old_label_ids[ov]] == new_labels[new_label_ids[nw]]
                and old_text_get(ov) == new_text_get(nw)
                and old_attr_get(ov) == new_attr_get(nw)
            )
            if pair_aligned:
                new_from_old[ov] = nw
                dirty[nw] = 0
                ranges.append((ov, nw, 1))
                leaf_flip = bool(old_kids) != bool(new_kids)
                checks.append((ov, nw, 8 if leaf_flip else 1 | 2 | 4))
            if not old_kids or not new_kids:
                continue
            if len(old_kids) == 1 and len(new_kids) == 1:
                # Spine fast path: a single child on each side can only
                # pair positionally, so skip the prefix/suffix bisection
                # and SequenceMatcher entirely.  Deep unary spines (long
                # comment threads) would otherwise pay the full alignment
                # machinery at every level above an edit.
                stack.append((*old_kids[0], *new_kids[0]))
                continue
            # Align child sequences: strip the (typically long) common
            # structural prefix and suffix, then let SequenceMatcher sort
            # out the small middle window.  The kid region is the
            # contiguous node range [ov+1, oe) / [nw+1, ne); at equal
            # offsets into the two regions both lane kinds compare
            # meaningfully (kid roots have parent offset ``-1 - t`` on
            # both sides), so the longest common lane prefix -- found by
            # bisection, in C -- bounds how many whole kid subtrees match
            # pairwise from the front.  Payloads are verified per matched
            # run by emit_run.
            na, nb = len(old_kids), len(new_kids)
            lim = min(na, nb)
            ob, nbase = ov + 1, nw + 1
            span = min(oe - ob, ne - nbase)
            k = min(
                common_len(old_lab_v, 8 * ob, new_lab_v, 8 * nbase, 8 * span)
                // 8,
                common_len(
                    old_shape_v, 4 * ob, new_shape_v, 4 * nbase, 4 * span
                )
                // 4,
            )
            # A kid pair only counts when BOTH subtrees sit entirely
            # inside the verified prefix -- one-sided containment would
            # pair an old leaf with a new kid whose inserted descendants
            # lie just past the verified bytes.
            pre = 0
            while (
                pre < lim
                and old_kids[pre][1] - ob <= k
                and new_kids[pre][1] - nbase <= k
            ):
                pre += 1
            suf = 0
            if oe - ov == ne - nw:
                # Equal subtree sizes: suffix offsets from the end align
                # too (kid-root parent offsets agree), so the same trick
                # works from the back.
                k = min(
                    common_len_end(
                        old_lab_v, 8 * oe, new_lab_v, 8 * ne, 8 * span
                    )
                    // 8,
                    common_len_end(
                        old_shape_v, 4 * oe, new_shape_v, 4 * ne, 4 * span
                    )
                    // 4,
                )
                while (
                    suf < lim - pre
                    and oe - old_kids[na - 1 - suf][0] <= k
                    and ne - new_kids[nb - 1 - suf][0] <= k
                ):
                    suf += 1
            else:
                # Unequal sizes: kid-root parent offsets differ from the
                # back, so fall back to pairwise subtree comparison.
                while suf < lim - pre:
                    a0, a1 = old_kids[na - 1 - suf]
                    b0, b1 = new_kids[nb - 1 - suf]
                    if not subtree_equal(a0, a1, b0, b1):
                        break
                    suf += 1
            if pre:
                emit_run(old_kids, new_kids, 0, pre, 0, pre, pair_aligned)
            if suf:
                emit_run(
                    old_kids, new_kids, na - suf, na, nb - suf, nb, pair_aligned
                )
            if pre + suf == na or pre + suf == nb:
                continue
            # Middle window: one hashable key per child subtree (its
            # structural signature slices), aligned by SequenceMatcher;
            # payloads again verified per equal run by emit_run.
            a_keys = [
                (
                    e - c,
                    old_lab[8 * c : 8 * e],
                    old_shape[4 * c + 4 : 4 * e],
                )
                for c, e in old_kids[pre : na - suf]
            ]
            b_keys = [
                (
                    e - c,
                    new_lab[8 * c : 8 * e],
                    new_shape[4 * c + 4 : 4 * e],
                )
                for c, e in new_kids[pre : nb - suf]
            ]
            sm = SequenceMatcher(a=a_keys, b=b_keys, autojunk=False)
            for tag, i1, i2, j1, j2 in sm.get_opcodes():
                if tag == "equal":
                    emit_run(
                        old_kids,
                        new_kids,
                        pre + i1,
                        pre + i2,
                        pre + j1,
                        pre + j2,
                        pair_aligned,
                    )
                elif tag == "replace":
                    # Pair the replaced runs positionally and recurse:
                    # typically one changed child whose own children
                    # mostly still match.
                    for i, j in zip(range(i1, i2), range(j1, j2)):
                        c0, c1 = old_kids[pre + i]
                        d0, d1 = new_kids[pre + j]
                        stack.append((c0, c1, d0, d1))
                # delete: old children stay unmapped; insert: new
                # children stay dirty -- nothing to record either way.

    # Bad nodes: unmapped ones, plus mapped pairs whose deferred checks
    # fail -- cross edges (parent / prevsibling / nextsibling) that the
    # mapping does not preserve (two matched siblings swapped, a matched
    # subtree re-parented), or an aligned pair whose leaf status flipped
    # (the only unary that edge checks plus signature equality do not
    # already pin down; matched subtrees carry leaf status inside their
    # shape lanes).
    old_bad = bytearray(b"\x01" * old.size)
    for ov, nw, size in ranges:
        old_bad[ov : ov + size] = bytes(size)
    new_bad = bytearray(dirty)
    for ov, nw, kind in checks:
        ok = (
            kind & 8 == 0
            and (
                not kind & 1
                or _edge_preserved(old.parent, new.parent, new_from_old, ov, nw)
            )
            and (
                not kind & 2
                or _edge_preserved(
                    old.prevsibling, new.prevsibling, new_from_old, ov, nw
                )
            )
            and (
                not kind & 4
                or _edge_preserved(
                    old.nextsibling, new.nextsibling, new_from_old, ov, nw
                )
            )
        )
        if not ok:
            old_bad[ov] = 1
            new_bad[nw] = 1

    result = SnapshotDiff(
        new,
        new_from_old,
        ranges,
        int.from_bytes(dirty, "little"),
        sum(dirty),
        int.from_bytes(old_bad, "little"),
        int.from_bytes(new_bad, "little"),
        matched_roots,
    )
    old._diff = (new, result)
    return result
