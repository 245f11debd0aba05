"""Benchmark-suite configuration.

Every module measures one experiment; run with::

    pytest benchmarks/ --benchmark-only

``benchmarks/report.py`` runs the same sweeps without pytest and writes
the ``BENCH_*.json`` files, and the README's Benchmarks section says what
each of them records.

The sizes are chosen so the full suite finishes in a couple of minutes
while still exposing the asymptotic shapes the paper claims.
"""
