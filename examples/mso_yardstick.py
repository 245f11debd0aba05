"""MSO as the expressiveness yardstick (Theorem 4.4 end to end).

The same unary query is expressed in MSO, compiled down to a tree
automaton, evaluated with the linear two-pass algorithm, translated into
monadic datalog, normalized into TMNF, translated into Elog-, and run as
a wrapper on raw HTML (the streaming path) -- all six answers must
coincide.

Run:  python examples/mso_yardstick.py
"""

from repro import UnrankedStructure, evaluate, parse_sexpr
from repro.elog.from_datalog import datalog_to_elog
from repro.elog.translate import elog_to_datalog
from repro.mso import compile_query, naive_select, parse_mso
from repro.mso.to_datalog import mso_to_datalog
from repro.tmnf import to_tmnf
from repro.wrap import Wrapper


def main() -> None:
    # "x is a b-labeled node all of whose descendants are a-labeled,
    #  and something precedes it in document order".
    text = (
        "label_b(x) & forall y (descendant(x, y) -> label_a(y)) "
        "& exists z (before(z, x))"
    )
    formula = parse_mso(text)
    labels = ["a", "b", "r"]
    print("MSO query:", formula)

    tree = parse_sexpr("r(b(a, a), b(a, b), a(b))")
    structure = UnrankedStructure(tree)
    print("Tree:", tree)

    expected = naive_select(formula, "x", structure)
    print("\n1. naive MSO model checking:   ", sorted(expected))

    query = compile_query(formula, "x", labels)
    print(
        f"2. tree automaton ({query.dta.num_states} states, two-pass): "
        f"{sorted(query.select_ids(structure))}"
    )

    program, _ = mso_to_datalog(formula, "x", labels)
    result = evaluate(program, structure)
    print(
        f"3. monadic datalog ({len(program.rules)} rules, Theorem 4.2 "
        f"engine '{result.method}'): {sorted(result.query_result())}"
    )

    tmnf = to_tmnf(program)
    result_tmnf = evaluate(tmnf.program, structure)
    print(
        f"4. TMNF normal form ({len(tmnf.program.rules)} rules): "
        f"{sorted(result_tmnf.query_result())}"
    )

    elog = datalog_to_elog(tmnf.program, root_label="r")
    back = elog_to_datalog(elog)
    result_elog = evaluate(back, structure, method="seminaive")
    print(
        f"5. Elog- ({len(elog)} rules) re-translated: "
        f"{sorted(result_elog.unary(elog.query or program.query))}"
    )

    # The same tree as HTML: its preorder node ids are the tree's.
    page = "<r><b><a></a><a></a></b><b><a></a><b></b></b><a><b></b></a></r>"
    wrapper = Wrapper().add_mso("hit", formula, "x", labels)
    (streamed,) = wrapper.extract_html_many([page])
    (output,) = wrapper.wrap_html_many([page])
    print(
        f"6. Wrapper.add_mso on wrap_html_many: {sorted(streamed['hit'])} "
        f"-> {output.to_sexpr()}"
    )
    assert output.to_sexpr().count("hit") == len(expected)

    answers = {
        frozenset(expected),
        frozenset(query.select_ids(structure)),
        frozenset(result.query_result()),
        frozenset(result_tmnf.query_result()),
        frozenset(result_elog.unary(elog.query or program.query)),
        frozenset(streamed["hit"]),
    }
    print("\nAll formalisms agree:", len(answers) == 1)
    assert len(answers) == 1


if __name__ == "__main__":
    main()
