"""TMNF monadic datalog to Elog- (Theorem 6.5, interesting direction).

Every TMNF rule maps to an Elog- rule following the proof of Theorem 6.5:

* ``p(x) <- p0(x).``                    -- specialization rule;
* ``p(x) <- label_a(x).``               -- ``p(x) <- dom(x0),
  subelem_a(x0, x).`` with the recursive auxiliary ``dom`` pattern;
* ``p(x) <- p0(x0), nextsibling(x0, x).`` (either direction) --
  specialization on ``dom`` with a ``nextsibling`` condition and a pattern
  reference;
* ``p(x) <- p0(x0), firstchild(x0, x).`` -- ``subelem`` with the wildcard
  path plus a ``firstsibling`` condition;
* ``p(x) <- p0(y), firstchild(x, y).``  -- upward inference through
  ``contains`` + ``firstsibling`` (the proof's last case).

Known caveat (documented in DESIGN.md): Definition 6.1's ``subelem`` walks
*child* edges, so the auxiliary label patterns cannot test the root node's
own label; the paper's construction shares this property.  The equivalence
tests therefore run on trees whose root label is not queried (e.g. a
dedicated document-root label), which is also the realistic wrapping
scenario.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.datalog.program import Program
from repro.datalog.terms import Variable
from repro.elog.syntax import Condition, ElogProgram, ElogRule, PatternRef, ROOT_PATTERN
from repro.errors import ElogError
from repro.tmnf.forms import check_tmnf_rule

#: The auxiliary any-node pattern of the proof of Theorem 6.5.
DOM_PATTERN = "dom_pattern"


def _dom_rules() -> List[ElogRule]:
    """The recursive two-rule program defining the ``dom`` pattern."""
    return [
        ElogRule(
            head=DOM_PATTERN,
            head_var="x",
            parent=ROOT_PATTERN,
            parent_var="x",
        ),
        ElogRule(
            head=DOM_PATTERN,
            head_var="x",
            parent=DOM_PATTERN,
            parent_var="x0",
            path=("_",),
        ),
    ]


def datalog_to_elog(program: Program, root_label: Optional[str] = None) -> ElogProgram:
    """Translate a TMNF program over ``tau_ur`` into an equivalent Elog-
    program (Theorem 6.5).

    ``root_label`` repairs the proof's gap at the root: ``subelem`` walks
    *child* edges, so the auxiliary label patterns cannot observe the root
    node's own label.  Real documents have a fixed root label (``html`` /
    ``document``); passing it makes the translation exact on that document
    class (the label pattern for ``root_label`` gains the rule
    ``lbl(x) <- root(x)``).  Without it, equivalence holds on all nodes of
    trees whose root label plays no role in the query.
    """
    for rule in program.rules:
        reason = check_tmnf_rule(rule)
        if reason is not None:
            raise ElogError(f"input must be in TMNF: {reason}")

    out: List[ElogRule] = list(_dom_rules())
    label_patterns: Dict[str, str] = {}

    def label_pattern(label: str) -> str:
        """Auxiliary pattern matching nodes labeled ``label``."""
        if label not in label_patterns:
            name = f"lbl_{label}"
            label_patterns[label] = name
            out.append(
                ElogRule(
                    head=name,
                    head_var="x",
                    parent=DOM_PATTERN,
                    parent_var="x0",
                    path=(label,),
                )
            )
            if root_label == label:
                out.append(
                    ElogRule(
                        head=name,
                        head_var="x",
                        parent=ROOT_PATTERN,
                        parent_var="x",
                    )
                )
        return label_patterns[label]

    intensional = program.intensional_predicates()

    def unary_to_parts(pred: str, var: str):
        """Classify a unary predicate as parent pattern, condition or ref."""
        if pred in intensional:
            return ("ref", PatternRef(pred, var))
        if pred == "root":
            return ("root", None)
        if pred == "dom":
            return ("dom", None)
        if pred.startswith("label_"):
            return ("ref", PatternRef(label_pattern(pred[len("label_") :]), var))
        if pred in ("leaf", "firstsibling", "lastsibling"):
            return ("cond", Condition(pred, (var,)))
        raise ElogError(f"unary predicate {pred!r} outside tau_ur")

    for rule in program.rules:
        head = rule.head.pred
        x = rule.head.args[0]
        assert isinstance(x, Variable)
        unary = [a for a in rule.body if a.arity == 1]
        binary = [a for a in rule.body if a.arity == 2]

        if not binary:
            # Forms (1) and (3): specialization on dom with refs/conditions.
            conditions: List[Condition] = []
            refs: List[PatternRef] = []
            parent = DOM_PATTERN
            for atom in unary:
                kind, payload = unary_to_parts(atom.pred, x.name)
                if kind == "ref":
                    refs.append(payload)
                elif kind == "cond":
                    conditions.append(payload)
                elif kind == "root":
                    parent = ROOT_PATTERN
                # "dom" contributes nothing beyond the dom parent.
            out.append(
                ElogRule(
                    head=head,
                    head_var=x.name,
                    parent=parent,
                    parent_var=x.name,
                    conditions=conditions,
                    refs=refs,
                )
            )
            continue

        # Form (2): p(x) <- p0(x0), B(x0, x) with B in {firstchild,
        # nextsibling} possibly inverted.
        batom = binary[0]
        uatom = unary[0]
        x0 = uatom.args[0]
        assert isinstance(x0, Variable)
        kind, payload = unary_to_parts(uatom.pred, x0.name)
        refs = [payload] if kind == "ref" else []
        conditions = [payload] if kind == "cond" else []

        if batom.pred == "nextsibling":
            if kind == "root":
                continue  # the root has no siblings: unsatisfiable
            # Both directions become dom-specializations with a
            # nextsibling condition plus the p0 reference.
            a, b = (t.name for t in batom.args)
            out.append(
                ElogRule(
                    head=head,
                    head_var=x.name,
                    parent=DOM_PATTERN,
                    parent_var=x.name,
                    conditions=[Condition("nextsibling", (a, b))] + conditions,
                    refs=refs,
                )
            )
            continue

        if batom.pred == "firstchild":
            if batom.args == (x0, x):
                # Downward: subelem with the wildcard path + firstsibling.
                if kind == "ref":
                    out.append(
                        ElogRule(
                            head=head,
                            head_var=x.name,
                            parent=payload.pattern,
                            parent_var=x0.name,
                            path=("_",),
                            conditions=[Condition("firstsibling", (x.name,))],
                        )
                    )
                elif kind == "root":
                    out.append(
                        ElogRule(
                            head=head,
                            head_var=x.name,
                            parent=ROOT_PATTERN,
                            parent_var=x0.name,
                            path=("_",),
                            conditions=[Condition("firstsibling", (x.name,))],
                        )
                    )
                elif kind == "cond" and payload.pred == "leaf":
                    continue  # a leaf has no first child: unsatisfiable
                else:
                    out.append(
                        ElogRule(
                            head=head,
                            head_var=x.name,
                            parent=DOM_PATTERN,
                            parent_var=x0.name,
                            path=("_",),
                            conditions=[Condition("firstsibling", (x.name,))]
                            + conditions,
                            refs=refs,
                        )
                    )
            else:
                if kind == "root":
                    continue  # the root is nobody's first child
                # Upward: p(x) <- dom(x), contains_(x, y), firstsibling(y),
                # p0(y)  -- the proof's last case.
                out.append(
                    ElogRule(
                        head=head,
                        head_var=x.name,
                        parent=DOM_PATTERN,
                        parent_var=x.name,
                        conditions=[
                            Condition("contains", (x.name, x0.name), ("_",)),
                            Condition("firstsibling", (x0.name,)),
                        ]
                        + conditions,
                        refs=refs,
                    )
                )
            continue

        raise ElogError(f"binary relation {batom.pred!r} outside tau_ur")

    # Drop rules that mention patterns with no defining rule (e.g. declared
    # but underivable automaton states): they can never fire, and
    # Definition 6.2 requires referenced patterns to be defined.
    while True:
        defined = {rule.head for rule in out}
        kept = [
            rule
            for rule in out
            if (rule.parent == ROOT_PATTERN or rule.parent in defined)
            and all(r.pattern in defined for r in rule.refs)
        ]
        if len(kept) == len(out):
            break
        out = kept

    query = program.query if any(r.head == program.query for r in out) else None
    return ElogProgram(out, query=query)
