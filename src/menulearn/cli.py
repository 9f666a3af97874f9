"""Command-line front end.

Commands::

    menulearn evaluate FILE --menu NAME --info NAME
    menulearn compare FILE LEFT RIGHT --criterion {sl,bml,jml,hml} --param NAME
    menulearn audit FILE --criterion {sl,bml,jml,hml} --param NAME [flags]
    menulearn comparative FILE SET1 SET2 [flags]
    menulearn rationalize FILE [MENU ...] --collection NAME --policy POLICY
    menulearn examples

Exit codes: 0 success; 1 check failure (for ``audit``: a required axiom
failed or was truncated at the tuple cap); 2 parse error; 3 unknown name;
4 invalid request (wrong parameter kind, bad weight, or any other
`ValidationError`).  ``MENULEARN_SEED`` in the
environment overrides ``--seed``.

Printed rationals are exact; decimal renderings are labeled approximations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

from .audit import (
    ALL_AXIOMS,
    REQUIRED_AXIOMS,
    AuditConfig,
    Axiom,
    audit as run_audit,
    generate_corpus,
)
from .comparative import (
    check_less_inconsistent,
    check_less_negative_inconsistent,
    check_more_decisive,
    check_more_strict_decisive,
    credal_subset,
)
from .core import Menu, Verdict
from .criteria import (
    BmlComparator,
    HmlComparator,
    JmlComparator,
    SlComparator,
    benefit_gap,
)
from .errors import (
    BadWeightError,
    KindMismatchError,
    MenuLearnError,
    ParseError,
    UnknownNameError,
    ValidationError,
)
from .evaluation import benefit_of_information
from .fileformat import _KINDS, Workspace, load_path, loads, parse_fraction
from .rationalize import AlphaPolicy, rank_menus

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_UNKNOWN_NAME = 3
EXIT_BAD_KIND = 4

#: Criterion name -> (constructor, workspace table its parameter lives in).
_CRITERIA = {
    "sl": (SlComparator, "info_structures"),
    "bml": (BmlComparator, "credal_sets"),
    "jml": (JmlComparator, "credal_sets"),
    "hml": (HmlComparator, "collections"),
}


def show(value: Fraction) -> str:
    """Exact rational plus an explicitly approximate decimal."""
    return f"{value} (approx {float(value):.6g})"


def _resolve_param(workspace: Workspace, criterion: str, name: str):
    """Find the named parameter in the table the criterion expects.

    A name living in a different table is a kind mismatch, not an unknown
    name.
    """
    kind = _CRITERIA[criterion][1]
    if name not in getattr(workspace, kind):
        for other in _KINDS:
            if name in getattr(workspace, other):
                raise KindMismatchError(
                    f"{name!r} is {_a(_KINDS[other])}, but criterion {criterion!r} "
                    f"needs {_a(_KINDS[kind])}"
                )
    return workspace._find(kind, name)


def _a(noun: str) -> str:
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


def _print_table(rows: list[list[str]], header: list[str]) -> None:
    table = [header] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for index, row in enumerate(table):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            print("  ".join("-" * width for width in widths))


def cmd_evaluate(args: argparse.Namespace) -> int:
    workspace = load_path(args.file)
    menu = workspace.menu(args.menu)
    structure = workspace.info_structure(args.info)
    value = benefit_of_information(menu, structure, workspace.instance)
    if args.format == "records":
        print(json.dumps({"menu": args.menu, "info": args.info, "value": str(value),
                          "value_approx": float(value)}))
    else:
        print(f"b[{args.menu} | {args.info}] = {show(value)}")
    return EXIT_OK


def _gap_rows(workspace: Workspace, criterion: str, collection, left: Menu, right: Menu):
    """Per-generator benefit gaps that justify the verdict.

    Rows follow the criterion's collection and are labelled by structure
    name; only ``hml`` rows carry a ``groupN:`` prefix naming the sub-group.
    """
    inst = workspace.instance
    return [
        [
            (f"group{i}:" if criterion == "hml" else "") + workspace.structure_label(pi),
            str(benefit_of_information(left, pi, inst)),
            str(benefit_of_information(right, pi, inst)),
            str(benefit_gap(left, right, pi, inst)),
        ]
        for i, member in enumerate(collection, start=1)
        for pi in member
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    workspace = load_path(args.file)
    left = workspace.menu(args.left)
    right = workspace.menu(args.right)
    param = _resolve_param(workspace, args.criterion, args.param)
    comparator = _CRITERIA[args.criterion][0](workspace.instance, param)
    verdict = comparator.compare(left, right)
    rows = _gap_rows(workspace, args.criterion, comparator.collection, left, right)
    if args.format == "records":
        print(
            json.dumps(
                {
                    "criterion": args.criterion,
                    "left": args.left,
                    "right": args.right,
                    "verdict": verdict.value,
                    "gaps": [
                        {"structure": r[0], "left": r[1], "right": r[2], "gap": r[3]}
                        for r in rows
                    ],
                }
            )
        )
    else:
        print(f"{args.criterion}: {args.left} vs {args.right} -> {verdict.value}")
        _print_table(rows, ["structure", f"b[{args.left}]", f"b[{args.right}]", "gap"])
    return EXIT_OK


def _parse_alpha_grid(text: str) -> tuple[Fraction, ...]:
    values = tuple(parse_fraction(part.strip(), "--alpha-grid") for part in text.split(","))
    return values


def _effective_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("MENULEARN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"MENULEARN_SEED must be an integer, got {env!r}") from None
    return args.seed


def cmd_audit(args: argparse.Namespace) -> int:
    workspace = load_path(args.file)
    param = _resolve_param(workspace, args.criterion, args.param)
    comparator = _CRITERIA[args.criterion][0](workspace.instance, param)
    if args.axioms:
        try:
            axioms = frozenset(Axiom(name.strip()) for name in args.axioms.split(","))
        except ValueError as exc:
            raise UnknownNameError(f"unknown axiom in --axioms: {exc}") from None
    else:
        axioms = ALL_AXIOMS
    config = AuditConfig(
        axioms=axioms,
        corpus_size=args.corpus_size,
        alpha_grid=_parse_alpha_grid(args.alpha_grid),
        seed=_effective_seed(args),
    )
    corpus = generate_corpus(workspace.instance, config)
    menus = sorted(workspace.menus)
    corpus.extend(workspace.menus[name] for name in menus)
    report = run_audit(comparator, corpus, config)
    required = REQUIRED_AXIOMS[args.criterion]
    if args.format == "records":
        print(json.dumps(report.to_records(), indent=2))
    else:
        rows = []
        for result in report.results:
            required_mark = "yes" if result.axiom in required else "no"
            rows.append(
                [
                    result.axiom.value,
                    result.status,
                    required_mark,
                    str(result.tuples_checked),
                    str(result.antecedents),
                ]
            )
        print(f"audit: criterion={args.criterion} param={args.param} "
              f"corpus={len(corpus)} seed={config.seed}")
        _print_table(rows, ["axiom", "status", "required", "tuples", "antecedents"])
        for failure in report.failures:
            print(f"counterexample for {failure.axiom.value}: "
                  f"{len(failure.counterexample)} menus"
                  + (f", alpha={failure.alpha}" if failure.alpha is not None else "")
                  + (f", betas={[str(b) for b in failure.betas]}" if failure.betas else ""))
    # A required axiom cut off at the tuple cap is not known to hold.
    unresolved = [r for r in report.failures + report.truncations if r.axiom in required]
    return EXIT_CHECK_FAILED if unresolved else EXIT_OK


def cmd_comparative(args: argparse.Namespace) -> int:
    """Nestedness of two credal sets plus the four behavioral comparisons."""
    workspace = load_path(args.file)
    inst = workspace.instance
    pi1 = _resolve_param(workspace, "bml", args.set1)
    pi2 = _resolve_param(workspace, "bml", args.set2)
    nested = credal_subset(pi1, pi2, instance=inst)
    nested_reverse = credal_subset(pi2, pi1, instance=inst)
    config = AuditConfig(corpus_size=args.corpus_size, seed=_effective_seed(args))
    corpus = generate_corpus(inst, config)
    corpus.extend(workspace.menus[name] for name in sorted(workspace.menus))
    reports = [
        check_more_decisive(BmlComparator(inst, pi1), BmlComparator(inst, pi2), corpus),
        check_less_negative_inconsistent(
            BmlComparator(inst, pi1), BmlComparator(inst, pi2), corpus
        ),
        check_more_strict_decisive(JmlComparator(inst, pi1), JmlComparator(inst, pi2), corpus),
        check_less_inconsistent(JmlComparator(inst, pi1), JmlComparator(inst, pi2), corpus),
    ]
    if args.format == "records":
        print(
            json.dumps(
                {
                    "subset": {f"{args.set1} <= {args.set2}": nested,
                               f"{args.set2} <= {args.set1}": nested_reverse},
                    "checks": [report.to_record() for report in reports],
                },
                indent=2,
            )
        )
    else:
        print(f"comparative: {args.set1} vs {args.set2} over {len(corpus)} menus "
              f"(seed={config.seed})")
        print(f"subset {args.set1} <= {args.set2}: {nested}")
        print(f"subset {args.set2} <= {args.set1}: {nested_reverse}")
        rows = [
            [report.check, report.status, str(report.tuples_checked), str(report.antecedents),
             "-" if report.witness is None else f"{len(report.witness)} menus"]
            for report in reports
        ]
        _print_table(rows, ["check", "status", "tuples", "antecedents", "witness"])
    return EXIT_OK


def _parse_policy(text: str) -> AlphaPolicy:
    if text == "cautious":
        return AlphaPolicy.cautious()
    if text == "optimistic":
        return AlphaPolicy.optimistic()
    if text.startswith("const="):
        weight = parse_fraction(text.removeprefix("const="), "--policy const=")
        return AlphaPolicy.constant(weight)
    raise BadWeightError(
        f"policy must be 'cautious', 'optimistic', or 'const=p/q', got {text!r}"
    )


def cmd_rationalize(args: argparse.Namespace) -> int:
    workspace = load_path(args.file)
    collection = workspace.collection(args.collection)
    policy = _parse_policy(args.policy)
    names = args.menus or sorted(workspace.menus)
    menus = [workspace.menu(name) for name in names]
    entries = rank_menus(menus, collection, policy, workspace.instance, names=names)
    if args.format == "records":
        print(json.dumps([entry.to_record() for entry in entries], indent=2))
    else:
        rows = [
            [
                str(entry.rank),
                entry.name,
                show(entry.value),
                f"[{entry.band.low}, {entry.band.high}]",
            ]
            for entry in entries
        ]
        print(f"ranking: collection={args.collection} policy={args.policy}")
        _print_table(rows, ["rank", "menu", "value", "band"])
    return EXIT_OK


def _bundled_workspace(name: str) -> Workspace:
    text = resources.files("menulearn.data").joinpath(name).read_text()
    return loads(text)


def cmd_examples(args: argparse.Namespace) -> int:
    """Reproduce both worked examples and self-check every number."""
    failures: list[str] = []

    def expect(label: str, actual, expected) -> None:
        status = "ok" if actual == expected else f"MISMATCH (expected {expected})"
        if actual != expected:
            failures.append(label)
        print(f"  {label}: {actual} [{status}]")

    ws1 = _bundled_workspace("example1.json")
    inst = ws1.instance
    f, gh = ws1.menu("f"), ws1.menu("gh")
    delta_p, pi = ws1.info_structure("delta_p"), ws1.info_structure("pi")
    print("Example 1: one safe singleton vs a pair of risky acts")
    expect("b[f | delta_p]", benefit_of_information(f, delta_p, inst), Fraction(2))
    expect("b[f | pi]", benefit_of_information(f, pi, inst), Fraction(2))
    expect("b[gh | delta_p]", benefit_of_information(gh, delta_p, inst), Fraction(3, 2))
    expect("b[gh | pi]", benefit_of_information(gh, pi, inst), Fraction(3))
    both = ws1.credal_set("both")
    for label, criterion, expected in (
        ("bml verdict f vs gh", BmlComparator(inst, both), Verdict.INCOMPARABLE),
        ("sl verdict f vs gh under delta_p", SlComparator(inst, delta_p), Verdict.STRICT_BETTER),
        ("sl verdict f vs gh under pi", SlComparator(inst, pi), Verdict.STRICT_WORSE),
    ):
        expect(label, criterion.compare(f, gh).value, expected.value)

    ws2 = _bundled_workspace("example2.json")
    inst2 = ws2.instance
    f2, gh2, fstar = ws2.menu("f"), ws2.menu("gh"), ws2.menu("fstar")
    delta_p2, pi2 = ws2.info_structure("delta_p"), ws2.info_structure("pi")
    both2 = ws2.credal_set("both")
    jml = JmlComparator(inst2, both2)
    print("Example 2: the veto rule can cycle")
    expect("b[fstar | delta_p]", benefit_of_information(fstar, delta_p2, inst2), Fraction(5, 2))
    expect("b[fstar | pi]", benefit_of_information(fstar, pi2, inst2), Fraction(5, 2))
    expect("jml verdict fstar vs gh", jml.compare(fstar, gh2).value, Verdict.INDIFFERENT.value)
    expect("jml verdict f vs gh", jml.compare(f2, gh2).value, Verdict.INDIFFERENT.value)
    expect("jml verdict fstar vs f", jml.compare(fstar, f2).value, Verdict.STRICT_BETTER.value)

    config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=3)
    report = run_audit(jml, [fstar, gh2, f2], config)
    result = report.result_for(Axiom.TRANSITIVITY)
    expect("jml transitivity over {fstar, gh, f}", result.status, "fail")
    if result.counterexample is not None:
        witness_names = []
        lookup = {f2: "f", gh2: "gh", fstar: "fstar"}
        for menu in result.counterexample:
            witness_names.append(lookup.get(menu, "<menu>"))
        print(f"  transitivity witness: ({', '.join(witness_names)})")
        if set(result.counterexample) != {f2, gh2, fstar}:
            failures.append("transitivity witness menus")

    if failures:
        print(f"self-check failed: {', '.join(failures)}")
        return EXIT_CHECK_FAILED
    print("all example values reproduced exactly")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menulearn",
        description="Evaluate, compare, audit, and rationalize menu preferences "
        "under multiple information structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="benefit of information of a menu")
    p_eval.add_argument("file")
    p_eval.add_argument("--menu", required=True)
    p_eval.add_argument("--info", required=True)
    p_eval.add_argument("--format", choices=("table", "records"), default="table")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="compare two menus under a criterion")
    p_cmp.add_argument("file")
    p_cmp.add_argument("left")
    p_cmp.add_argument("right")
    p_cmp.add_argument("--criterion", choices=tuple(_CRITERIA), required=True)
    p_cmp.add_argument("--param", required=True,
                       help="information structure (sl), credal set (bml/jml), or collection (hml)")
    p_cmp.add_argument("--format", choices=("table", "records"), default="table")
    p_cmp.set_defaults(func=cmd_compare)

    p_audit = sub.add_parser("audit", help="check axioms against a criterion")
    p_audit.add_argument("file")
    p_audit.add_argument("--criterion", choices=tuple(_CRITERIA), required=True)
    p_audit.add_argument("--param", required=True)
    p_audit.add_argument("--axioms", default="",
                         help="comma-separated axiom names (default: all checkable)")
    p_audit.add_argument("--corpus-size", type=int, default=6)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--alpha-grid", default="1/2",
                         help="comma-separated mixture weights in (0,1)")
    p_audit.add_argument("--format", choices=("table", "records"), default="table")
    p_audit.set_defaults(func=cmd_audit)

    p_comp = sub.add_parser(
        "comparative", help="nestedness and decisiveness comparison of two credal sets"
    )
    p_comp.add_argument("file")
    p_comp.add_argument("set1")
    p_comp.add_argument("set2")
    p_comp.add_argument("--corpus-size", type=int, default=12)
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--format", choices=("table", "records"), default="table")
    p_comp.set_defaults(func=cmd_comparative)

    p_rat = sub.add_parser("rationalize", help="rank menus by a blended scenario value")
    p_rat.add_argument("file")
    p_rat.add_argument("menus", nargs="*",
                       help="menu names to rank (default: every menu in the file)")
    p_rat.add_argument("--collection", required=True)
    p_rat.add_argument("--policy", default="cautious",
                       help="'cautious', 'optimistic', or 'const=p/q'")
    p_rat.add_argument("--format", choices=("table", "records"), default="table")
    p_rat.set_defaults(func=cmd_rationalize)

    p_ex = sub.add_parser("examples", help="reproduce the bundled worked examples")
    p_ex.set_defaults(func=cmd_examples)

    return parser


#: The one parser of this process, built by the first `main` call (not at
#: import, so importing the CLI stays cheap).  Parsing leaves it unchanged:
#: each call gets a fresh namespace.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except UnknownNameError as exc:
        print(f"unknown name: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except (KindMismatchError, ValidationError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_BAD_KIND
    except MenuLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
