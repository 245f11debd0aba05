"""E-KERNEL: the linear-time propagation kernel (Theorem 4.2 hot path).

The elog catalog wrapper swept over doubling document sizes through three
evaluation paths, all compile-once (plan and indexed document hoisted out
of the timed region):

* the compiled hash-join path of :class:`repro.datalog.plan.CompiledProgram`
  (the PR-1 production baseline);
* the propagation kernel of :mod:`repro.datalog.kernel` -- columnar
  snapshot, numeric rule tables, per-node predicate bitmasks;
* the Theorem 4.2 grounding engine on the same workload's TMNF
  normalization (the paper's original linear-time chain, kept as the
  correctness oracle).

The kernel should dominate the compiled path at every size and scale
linearly: time roughly doubles when the document doubles.

The kernel runs its one cold engine, the generated Dowling-Gallier
worklist, on the catalog sweep and on a deep-chain workload (depth >>
breadth), where the fixpoint derives one fact per chain node in turn.
"""

import pytest

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.parser import parse_program
from repro.elog.parser import parse_elog
from repro.elog.translate import elog_to_datalog
from repro.html import parse_html
from repro.structures import as_indexed
from repro.tmnf import to_tmnf
from repro.trees.generate import chain_tree
from repro.trees.unranked import UnrankedStructure
from repro.workloads import CATALOG_WRAPPER as _WRAPPER, catalog_page

_SIZES = [40, 80, 160, 320, 640]

# Root-to-leaf descent: on a chain each derived fact enables exactly one
# more, so the fixpoint is as deep as the document.
_DEEP_PROGRAM = """
mark(x) :- root(x).
mark(y) :- mark(x), child(x, y).
deep(x) :- mark(x), leaf(x).
"""


def _indexed(items: int):
    return as_indexed(
        UnrankedStructure(parse_html(catalog_page(seed=5, items=items)))
    )


@pytest.mark.parametrize("items", _SIZES)
def test_kernel_scaling(benchmark, items):
    """Propagation kernel: snapshot + plan warm, per-run fixpoint timed."""
    compiled = compile_program(elog_to_datalog(parse_elog(_WRAPPER, query="price")))
    structure = _indexed(items)
    compiled.run(structure, method="kernel")  # warm the columnar snapshot
    result = benchmark(compiled.run, structure, "kernel")
    assert result.method == "kernel" and result.engine == "worklist"
    assert len(result.query_result()) >= items


@pytest.mark.parametrize("items", _SIZES)
def test_compiled_join_scaling(benchmark, items):
    """PR-1 baseline: compiled join plans over the indexed document."""
    compiled = compile_program(elog_to_datalog(parse_elog(_WRAPPER, query="price")))
    structure = _indexed(items)
    compiled.run(structure, method="seminaive")  # warm the document indexes
    result = benchmark(compiled.run, structure, "seminaive")
    assert len(result.query_result()) >= items


@pytest.mark.parametrize("items", _SIZES[:3])
def test_tmnf_ground_oracle_scaling(benchmark, items):
    """The paper's original chain (Theorem 5.2 + Theorem 4.2 grounding)."""
    normalized = to_tmnf(elog_to_datalog(parse_elog(_WRAPPER, query="price"))).program
    structure = _indexed(items)
    result = benchmark(evaluate, normalized, structure, "ground")
    assert len(result.query_result()) >= items


@pytest.mark.parametrize("depth", [1000, 2000])
def test_kernel_deep_chain(benchmark, depth):
    """Deep-tree workload: one derived fact per chain node, in turn."""
    compiled = compile_program(parse_program(_DEEP_PROGRAM, query="deep"))
    structure = as_indexed(UnrankedStructure(chain_tree(depth)))
    compiled.run(structure, method="kernel")  # warm the columnar snapshot
    result = benchmark(compiled.run, structure, "kernel")
    assert result.query_result() == {depth - 1}


@pytest.mark.parametrize("items", [320])
def test_kernel_agrees_with_compiled(benchmark, items):
    """Paranoia inside the benchmark suite: identical answers, then time."""
    compiled = compile_program(elog_to_datalog(parse_elog(_WRAPPER, query="price")))
    structure = _indexed(items)
    kernel = compiled.run(structure, method="kernel")
    joins = compiled.run(structure, method="seminaive")
    assert kernel.relations == joins.relations
    benchmark(compiled.run, structure, "kernel")
