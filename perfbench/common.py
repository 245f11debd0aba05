"""Shared helpers: percentiles, run stamps, memory, output comparison."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def output_shape(node) -> tuple:
    """Comparable form of an :class:`OutputNode`: labels, texts, order.

    ``source_id`` is left out on purpose: the Node path does not set it,
    and the streaming path's ids are checked through the serve path's
    ``to_dict`` comparison instead.
    """
    return (
        node.label,
        node.text,
        tuple(output_shape(child) for child in node.children),
    )


def source_digest() -> str:
    """Short content hash of ``src/`` (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    """Identity of one run, so results form a trajectory."""
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "mode": "traced" if trace else "untraced",
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_children() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2 :].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def tree_peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak RSS (VmHWM) of ``pids`` and all their descendants."""
    children = _proc_children()
    seen = set()
    stack = list(pids)
    total_kb = 0
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        stack.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def log(message: str) -> None:
    """Progress notes go to stderr; stdout carries only the report."""
    print(message, file=sys.stderr, flush=True)


#: The host speed every reported timing is scaled to, as the reference
#: task's time in ms: about its time on a calm 2-vCPU x86 host with
#: Python 3.11.  It is a fixed constant, so scaled figures compare
#: across runs and commits.
REFERENCE_MS = 1.0

_REFERENCE_TEXT = "abcdefghijklmnopqrstuvwxyz" * 8


def reference_task() -> int:
    """Fixed pure-Python work that runs no code of the program under test.

    String slicing, dict updates, list appends and a sort: the kind of
    interpreter work the wrapping stack does.  It allocates no objects the
    garbage collector tracks, so its time does not depend on the heap the
    program left behind, and it hashes no strings, so its time does not
    depend on the process's hash seed.
    """
    counts: Dict[int, int] = {}
    words: List[str] = []
    for i in range(3000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + i
        j = key % 180
        words.append(_REFERENCE_TEXT[j : j + 6])
    words.sort()
    return len(counts) + len(words[0])


class HostSpeed:
    """How fast the host runs right now, read from the reference task.

    Shared hosts run 1.2-1.7x slower for seconds to many minutes at a
    time, on every CPU at once.  A timing multiplied by the factor
    ``REFERENCE_MS / (reference time measured next to it)`` reads as it
    would on the undisturbed host, so runs made in different host phases
    compare.  The reference task uses no code of the program, so a change
    to the program moves the scaled timings exactly as it moves the raw ones.
    """

    def __init__(self):
        #: Reference-task times in ms, in the order they were taken.
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_task()
            self.samples.append((time.perf_counter() - start) * 1e3)

    def factor(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Scale factor from the median of ``samples[start:stop]``."""
        return REFERENCE_MS / statistics.median(self.samples[start:stop])

    def measure(self, repeats: int) -> float:
        """Take ``repeats`` fresh samples; the factor they give."""
        start = len(self.samples)
        self.sample(repeats)
        return self.factor(start)

    def rolling(self, half_window: int) -> List[float]:
        """One factor per sample, from the samples within ``half_window``."""
        return [
            self.factor(max(0, i - half_window), i + half_window + 1)
            for i in range(len(self.samples))
        ]
