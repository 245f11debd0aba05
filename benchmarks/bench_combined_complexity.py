"""E-T4.2 (Theorem 4.2): monadic datalog over trees has combined
complexity O(|P| * |dom|).

Two sweeps with the Theorem 4.2 engine (connected grounding + Horn-SAT):

* data scaling -- the Example 3.2 program on growing random trees;
* program scaling -- growing program families (independent renamed copies
  of the Example 3.2 program) on a fixed tree.

Both series must be (near-)linear; `benchmarks/report.py` fits and
prints the slopes.
"""

import pytest

from repro.datalog.grounding import evaluate_ground
from repro.paper import even_a_program
from repro.trees.generate import random_tree
from repro.trees.unranked import UnrankedStructure
from repro.workloads.programs import wide_program


@pytest.mark.parametrize("nodes", [250, 1_000, 4_000])
def test_data_scaling(benchmark, nodes):
    program = even_a_program(labels=("a", "b"))
    structure = UnrankedStructure(random_tree(42, nodes, labels=("a", "b")))
    result = benchmark(evaluate_ground, program, structure)
    assert result.relations["C0"]  # something is selected


@pytest.mark.parametrize("copies", [2, 8, 32])
def test_program_scaling(benchmark, copies):
    program = wide_program(copies)
    structure = UnrankedStructure(random_tree(43, 300, labels=("a", "b")))
    result = benchmark(evaluate_ground, program, structure)
    assert result.relations["c0_C0"]
