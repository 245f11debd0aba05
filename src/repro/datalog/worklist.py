"""Generated scalar worklists for the propagation kernel.

:mod:`repro.datalog.kernel` evaluates a lowering's scalar Dowling-Gallier
worklist as Python source generated once per lowering, not through an
interpreter: :func:`worklist_source` turns the lowering's sweep and
trigger blocks into straight-line functions -- ``derive`` runs the
fixpoint, ``condemn`` a warm run's over-delete -- which the kernel
compiles on the lowering's first run and then calls once per document
with the document's columns and masks as arguments.  ``derive`` is the
kernel's one cold engine, and a warm run calls each function once.
"""

from typing import List, Optional, Tuple

#: Inline levels of the generated worklist: a fact that only one block
#: derives, and whose trigger blocks are straight-line, runs them in place
#: of a push and a pop, up to this many levels below a popped fact (each
#: level indents the code once more).
INLINE_DEPTH = 8


def worklist_source(variant, condemn: bool) -> str:
    """Source of the generated ``derive`` function, or with ``condemn``
    of the ``condemn`` function.

    The Dowling-Gallier worklist as straight-line code over byte lanes:
    ``L<p>`` is predicate ``p``'s lane (byte ``v`` is 1 when ``p(v)``
    holds; a warm state's big ints, byte for byte) and ``S<p>`` its
    stack of fired nodes.  Each block becomes one conjunction per run of
    ops between ``child`` enumerations, each enumeration a ``while`` over
    ``FC`` / ``NS`` (``firstchild`` / ``nextsibling``), and the head a
    lane test, a lane set and a push -- or, when that block is the only
    one deriving the predicate and the predicate's trigger blocks are
    straight-line, those blocks in place (see :data:`INLINE_DEPTH`).
    Every sweep block runs first, once; then each predicate's stack is
    drained through its trigger blocks until every stack is empty.

    With ``condemn`` the same blocks run an over-delete: body tests read
    the old fixpoint's lanes ``O<p>``, ``L<p>`` holds the old facts not
    yet condemned, and a head -- a sweep's too -- condemns one of those
    (clears its byte and pushes it).  The caller restricts the sweeps
    through their anchor lists in ``R``.  Over-deletes only run for
    warm-eligible lowerings, which have no 0-ary predicates and no
    constants.

    The source holds integer literals and fixed names only: every
    document object arrives as an argument.
    """
    index = {key: i for i, key in enumerate(variant.resources)}
    pushes = variant.pushes
    test = "O" if condemn else "L"
    blocks = variant.sweeps + [b for group in variant.triggers for b in group]
    sites = [0] * variant.npreds  # blocks deriving each predicate
    for block in blocks:
        sites[block.head_pred] += 1
    # A new fact runs its predicate's trigger blocks in place when one
    # block alone derives the predicate and those blocks are straight-line:
    # the code is not duplicated, except by the predicate's own drain
    # loop, which only serves facts seeded from outside and so pushes
    # instead of inlining further.
    inlinable = [
        sites[p] == 1
        and pushes[p]
        and all(b.anchor is None and not b.branches for b in variant.triggers[p])
        for p in range(variant.npreds)
    ]
    function = "condemn" if condemn else "derive"
    lines = [f"def {function}(n, FC, NS, G, L, O, S, R):"]

    def emit(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    def cond(op, name) -> str:
        kind = op[0]
        if kind == "step":
            _, rel, forward, f, t = op
            arr = index["fwd" if forward else "bwd", rel]
            return f"({name(t)} := R{arr}[{name(f)}]) >= 0"
        if kind == "ubit":
            return f"R{index['mask', op[1]]}[{name(op[2])}]"
        if kind == "ibit":
            return f"{test}{int(op[1])}[{name(op[2])}]"
        if kind == "bcheck":
            _, rel, a, b = op
            if rel == "child":
                return f"R{index['bwd', rel]}[{name(b)}] == {name(a)}"
            return f"R{index['fwd', rel]}[{name(a)}] == {name(b)}"
        if kind == "cbind":
            # A constant outside ``range(n)`` names no node: never bound.
            value = int(op[1])
            return f"({name(op[2])} := {value}) < n" if value >= 0 else "False"
        return f"G[{int(op[1])}]"  # gbit

    def head(block, depth: int, name, conds: List[str], chain, inline) -> None:
        h = block.head_pred
        if block.head_slot < 0:
            conds.append(f"not G[{h}]")
            emit(depth, f"if {' and '.join(conds)}:")
            emit(depth + 1, f"G[{h}] = 1")
            if pushes[h]:
                emit(depth + 1, f"a{h}(0)")
            return
        x = name(block.head_slot)
        conds.append(f"L{h}[{x}]" if condemn else f"not L{h}[{x}]")
        emit(depth, f"if {' and '.join(conds)}:")
        emit(depth + 1, f"L{h}[{x}] = {0 if condemn else 1}")
        if not pushes[h]:
            return
        if inline and inlinable[h] and h not in chain and len(chain) < INLINE_DEPTH:
            # Run h's trigger blocks right here: no push, no pop.
            below = chain + (h,)
            for b in variant.triggers[h]:
                body(b, 0, depth + 1, names(below, b.start, x), below)
        else:
            emit(depth + 1, f"a{h}({x})")

    def body(block, first: int, depth: int, name, chain, inline=True) -> None:
        conds: List[str] = []
        ops = block.ops
        for i in range(first, len(ops)):
            op = ops[i]
            if op[0] != "branch":
                conds.append(cond(op, name))
                continue
            if conds:
                emit(depth, f"if {' and '.join(conds)}:")
                depth += 1
            _, _rel, f, t = op
            emit(depth, f"{name(t)} = FC[{name(f)}]")
            emit(depth, f"while {name(t)} >= 0:")
            body(block, i + 1, depth + 1, name, chain, inline)
            emit(depth + 1, f"{name(t)} = NS[{name(t)}]")
            return
        head(block, depth, name, conds, chain, inline)

    def names(chain: Tuple[int, ...], start: int, entry: Optional[str]):
        """Slot variable names of a block run at inline level ``len(chain)``
        (levels never share a name); ``entry`` names the start slot."""
        level = len(chain)
        return lambda s: entry if s == start and entry else f"x{level}_{s}"

    def anchored(block, depth: int, chain: Tuple[int, ...]) -> None:
        key = ("nodes", block.anchor if block.nslots else "")
        name = names(chain, block.start, None)
        emit(depth, f"for {name(block.start)} in R{index[key]}:")
        body(block, 0, depth + 1, name, chain)

    def unpack(prefix: str, count: int, value: str) -> None:
        if count:
            emit(1, f"{', '.join(f'{prefix}{i}' for i in range(count))}, = {value}")

    P = variant.npreds
    unpack("L", P, "L")
    unpack("S", P, "S")
    unpack("a", P, "[s.append for s in S]")
    unpack("o", P, "[s.pop for s in S]")
    unpack("R", len(variant.resources), "R")
    if condemn:
        for p in sorted({op[1] for b in blocks for op in b.ops if op[0] == "ibit"}):
            emit(1, f"O{p} = O[{p}]")
    for block in variant.sweeps:
        anchored(block, 1, ())
    order = _drain_order(variant)
    if order:
        emit(1, f"while {' or '.join(f'S{p}' for p in order)}:")
    for p in order:
        emit(2, f"while S{p}:")
        emit(3, f"v = o{p}()")
        for block in variant.triggers[p]:
            if block.anchor is None:
                name = names((p,), block.start, "v")
                body(block, 0, 3, name, (p,), not inlinable[p])
            else:
                anchored(block, 3, (p,))
    return "\n".join(lines) + "\n"


def _drain_order(variant) -> List[int]:
    """Pushing predicates in reverse DFS postorder of the trigger graph.

    Producers come before their consumers wherever the graph is acyclic,
    so one pass of the drain loop settles acyclic programs and each extra
    pass is paid only along a recursive cycle.
    """
    pushes = variant.pushes
    succ = [
        [b.head_pred for b in group if pushes[b.head_pred]]
        for group in variant.triggers
    ]
    seen = [False] * variant.npreds
    post: List[int] = []
    for root in range(variant.npreds):
        if seen[root] or not pushes[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, edges = stack[-1]
            for nxt in edges:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                post.append(node)
    post.reverse()
    return post
