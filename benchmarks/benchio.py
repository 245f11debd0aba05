"""Stamped ``benchmarks/BENCH_*.json`` files.

Every payload a benchmark script writes gains ``git_sha`` (with a
``-dirty`` suffix when the work tree has uncommitted changes), ``cores``,
``python`` and ``mode`` (``"smoke"`` or ``"full"``, from the payload's
``smoke`` flag), so committed runs can be compared rather than read in
isolation.  A smoke payload is written to ``<name>.smoke.json`` instead
of ``<name>.json`` (those files are git-ignored), so a smoke run never
overwrites a committed full-mode file.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

HERE = pathlib.Path(__file__).resolve().parent


def _git_sha():
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return described.stdout.strip() or None


def _write_bench(name: str, payload: dict) -> pathlib.Path:
    """Write ``payload`` plus the run stamp to ``benchmarks/<name>``
    (``BENCH_x.smoke.json`` for ``name="BENCH_x.json"`` in smoke mode)."""
    smoke = bool(payload.get("smoke"))
    if smoke:
        name = name[: -len(".json")] + ".smoke.json"
    payload = {
        "git_sha": _git_sha(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "mode": "smoke" if smoke else "full",
        **payload,
    }
    out_path = HERE / name
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"    wrote {out_path}")
    return out_path
