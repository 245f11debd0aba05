"""Subtree signatures over the columnar snapshot.

Incremental re-extraction (see :mod:`repro.trees.diff`) needs to decide,
for any two document versions, which subtrees are *identical* -- same
shape, same labels, same text payloads, same attributes.
:func:`signature_table` builds the columns the snapshot diff matches on,
entirely by C-speed primitives, so the per-document cost is a few
big-int expressions and joins, not a per-node loop.
Because a subtree of ``v`` occupies exactly the contiguous preorder
range ``[v, v + size(v))``, "are these two subtrees identical?" becomes
a handful of slice comparisons.  The pieces:

* ``labels[8v:8v+8]`` -- 64-bit digest of the label *string* (interning
  ids differ between snapshots, strings are canonical), fanned out over
  the ``label_ids`` column with ``bytes.join``;
* ``shape[4v:4v+4]`` -- ``parent[v] + 2^31 - v`` as an unsigned 32-bit
  lane.  Corresponding interior nodes of equal subtrees have equal
  parent *offsets*, so equal slices (excluding the root's own lane,
  whose parent lies outside the subtree) mean equal shape.  The bias
  keeps every lane positive and the preorder invariant ``parent[v] < v``
  keeps it below 2^32, so one whole-column big-int expression computes
  every lane at once with no carries between lanes;
* the payload columns: the sorted node ids carrying text or attrs
  (``pay_keys``), their position-independent gaps as 32-bit lanes
  (``pay_delta``, again one big-int subtract -- ids are strictly
  increasing so no lane borrows), and the text / attr values fanned out
  with ``map`` (``pay_texts`` / ``pay_attrs``).  Two preorder ranges
  carry equal payloads iff they hold the same number of payload nodes,
  at the same first offset, with equal gap lanes and equal value
  slices -- all bisect + slice comparisons, and *exact*: text and
  attribute payloads are compared by value, never by digest.

Label digests are deterministic across processes and Python versions:
label strings go through ``zlib.crc32``, never the randomized builtin
``hash``.  Two distinct labels with equal digests would make the diff
reuse stale facts -- the trade every content-addressed system makes.
The table is cached on the snapshot (``snapshot._sig``), so repeated
diffs against the same cached version pay the pass once.
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple
from zlib import crc32

_M64 = (1 << 64) - 1

#: Domain tag of the label lanes.
_TAG_LABEL = 0x9E3779B97F4A7C15


class SignatureTable(NamedTuple):
    """Per-node signature columns (see module docstring for the layout)."""

    labels: bytes
    shape: bytes
    pay_keys: array
    pay_delta: bytes
    pay_texts: tuple
    pay_attrs: tuple


def signature_table(snapshot) -> SignatureTable:
    """Bulk-comparison signature columns for ``snapshot`` (cached).

    Subtrees ``[v, v + s)`` of one snapshot and ``[w, w + s)`` of
    another are identical (same shape, labels, texts, attrs) iff their
    ``labels`` slices agree, their ``shape`` slices agree *excluding the
    roots' own lanes*, and their payload ranges agree (see
    :mod:`repro.trees.diff` for the range comparison):

    >>> from repro.trees.stream import sexpr_snapshot
    >>> a = sexpr_snapshot("r(x(p, q), y(s))")
    >>> b = sexpr_snapshot("z(x(p, q))")
    >>> sa, sb = signature_table(a), signature_table(b)
    >>> sa.labels[8 * 1 : 8 * 4] == sb.labels[8 * 1 : 8 * 4]  # x(p, q)
    True
    >>> sa.shape[4 * 2 : 4 * 4] == sb.shape[4 * 2 : 4 * 4]
    True
    >>> sa.labels[:8] == sb.labels[:8]  # r vs z
    False
    """
    cached = snapshot._sig
    if cached is None:
        cached = snapshot._sig = _compute_signature(snapshot)
    return cached


def _fast_string_hash(s: str) -> int:
    """Cheap deterministic 64-bit string digest for label lanes.

    Two independent-ish crc32s (whole string, odd-byte subsequence) plus
    the length.  Only label strings go through this (a handful per
    document); payloads are compared by value, not digest.
    """
    data = s.encode("utf-8", "surrogatepass")
    return (crc32(data) << 32) ^ (crc32(data[1::2]) << 12) ^ len(data)


def _lanes_int(values, n: int) -> int:
    """Pack an ``array('i')`` of non-negatives into 32-bit little lanes."""
    arr = array("i", values) if not isinstance(values, array) else values
    if sys.byteorder != "little":
        arr = array("i", arr)
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


def _compute_signature(snapshot) -> SignatureTable:
    n = snapshot.size
    if n == 0:
        return SignatureTable(b"", b"", array("i"), b"", (), ())
    # Label lanes: one digest per interned label, fanned out over the
    # label_ids column by a C-speed map/join.
    lane = [
        ((_fast_string_hash(label) ^ _TAG_LABEL) & _M64).to_bytes(8, "little")
        for label in snapshot.labels
    ]
    labels = b"".join(map(lane.__getitem__, snapshot.label_ids))
    # Shape lanes, all at once: parent[v] + 2^31 - v per 32-bit lane.
    parent = snapshot.parent
    if parent[0] < 0:
        parent = array("i", parent)
        parent[0] = 0  # root lane becomes the constant 2^31
    parent_int = _lanes_int(parent, n)
    ramp_int = _lanes_int(array("i", range(n)), n)
    bias_int = int.from_bytes(b"\x00\x00\x00\x80" * n, "little")
    shape = (parent_int + bias_int - ramp_int).to_bytes(4 * n, "little")
    # Payload columns: sorted ids, position-independent gaps (strictly
    # increasing ids mean every 32-bit lane of keys - (keys << 32) is
    # positive, so no borrows cross lanes; lane 0 holds the first id
    # itself and is skipped by range comparisons), values via map.
    texts = snapshot.texts or {}
    attrs = snapshot.attrs or {}
    if texts or attrs:
        ids = sorted(texts.keys() | attrs.keys())
        m = len(ids)
        pay_keys = array("i", ids)
        keys_int = _lanes_int(pay_keys, m)
        # Subtracting the lane-shifted copy leaves k_i - k_{i-1} in lane
        # i; the shifted copy's extra top lane makes the raw difference
        # negative, so reduce mod 2^(32m) to drop it (no borrows below:
        # ids strictly increase).
        delta_int = (keys_int - (keys_int << 32)) & ((1 << (32 * m)) - 1)
        pay_delta = delta_int.to_bytes(4 * m, "little")
        pay_texts = tuple(map(texts.get, ids))
        pay_attrs = tuple(map(attrs.get, ids))
    else:
        pay_keys = array("i")
        pay_delta = b""
        pay_texts = pay_attrs = ()
    return SignatureTable(labels, shape, pay_keys, pay_delta, pay_texts, pay_attrs)
