"""E-EX4.21 (Example 4.21): query-automaton runs blow up
superpolynomially; the Theorem 4.11 datalog simulation stays linear.

The ``A_beta`` family on complete binary ``a``-trees: each node at depth
``d`` is visited ``Theta(beta^d)`` times by the automaton; the translated
monadic datalog program is evaluated once per node (Theorem 4.2 engine).
``benchmarks/report.py`` prints the measured growth exponents and the
crossover.
"""

import pytest

from repro.datalog.engine import evaluate
from repro.qa.examples import a_beta_qa
from repro.qa.to_datalog import ranked_qa_to_datalog
from repro.trees.generate import complete_binary_tree
from repro.trees.ranked import RankedStructure

_QA = {alpha: a_beta_qa(alpha) for alpha in (1, 2)}
_PROGRAMS = {alpha: ranked_qa_to_datalog(qa) for alpha, qa in _QA.items()}


@pytest.mark.parametrize("alpha,depth", [(1, 4), (1, 6), (2, 4), (2, 5)])
def test_qa_run(benchmark, alpha, depth):
    qa = _QA[alpha]
    tree = complete_binary_tree(depth)
    run = benchmark(qa.run, tree)
    assert run.accepted


@pytest.mark.parametrize("alpha,depth", [(1, 4), (1, 6), (2, 4), (2, 5)])
def test_datalog_simulation(benchmark, alpha, depth):
    program = _PROGRAMS[alpha]
    tree = complete_binary_tree(depth)
    structure = RankedStructure(tree, max_rank=2)
    result = benchmark(evaluate, program, structure)
    assert result.unary("qa_accept") == {0}


def test_step_counts_superpolynomial():
    """The non-timing half of Example 4.21: step counts per level."""
    qa = _QA[1]
    steps = [qa.run(complete_binary_tree(d)).steps for d in (3, 4, 5, 6)]
    ratios = [b / a for a, b in zip(steps, steps[1:])]
    # Work multiplies by ~2 * beta = 4 per level.
    assert all(r > 3.5 for r in ratios), (steps, ratios)
