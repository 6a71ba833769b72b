"""Command line interface.

Exit codes: 0 when everything requested verified or was found as
expected, 1 when a swept proposition failed, 2 on usage, parse, or
validation errors and on a report that cannot be written, 141 when
stdout was closed before the output ended.
"""

import argparse
import json
import os
import sys
from functools import cache

from .documents import (
    default_point_names,
    format_set,
    load_map,
    load_space,
    mask_to_names,
    names_to_mask,
)
from .enumeration import (
    MAX_ENUMERATION_N,
    EnumerationBudget,
    count_topologies,
    enumerate_topologies,
)
from .errors import BudgetExceeded
from .maps import continuity_profile
from .setclasses import (
    SECOND_FAMILY,
    SetClass,
    class_table,
)
from .spaceprops import space_profile
from .theorems import (
    acceptable,
    default_budget,
    proposition,
    registry,
    serialize_report,
    verify_all,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_classify_set(args) -> int:
    t, points = load_space(args.space, per_subset=True)
    table = class_table(t)
    index = {name: x for x, name in enumerate(points)}
    a = names_to_mask(args.subset, index)
    print(f"subset {format_set(a, points)} in space on {t.n} point(s)")
    for cls in SetClass:
        if cls in SECOND_FAMILY:
            # a is in an existential class iff it has a witness pair
            pair = table.witness(a, cls)
            member = pair is not None
        else:
            pair, member = None, table.contains(a, cls)
        line = f"  {cls.value}: {'yes' if member else 'no'}"
        if pair is not None:
            u, v = pair
            line += (
                f"  [open {format_set(u, points)} & "
                f"{SECOND_FAMILY[cls].value} {format_set(v, points)}]"
            )
        print(line)
    return 0


def cmd_classify_space(args) -> int:
    t, _ = load_space(args.space, per_subset=True)
    print(f"space on {t.n} point(s) with {len(t.opens)} open set(s)")
    for prop, value in space_profile(t).items():
        print(f"  {prop.value}: {'yes' if value else 'no'}")
    return 0


def cmd_classify_map(args) -> int:
    f, dom_points, cod_points = load_map(args.map, per_subset=True)
    shown = ", ".join(
        f"{dom_points[x]}->{cod_points[f.assignment[x]]}"
        for x in range(f.domain.n)
    )
    print(f"map [{shown}] between spaces on {f.domain.n} and "
          f"{f.codomain.n} point(s)")
    for cc, value in continuity_profile(f).items():
        print(f"  {cc.value}: {'yes' if value else 'no'}")
    return 0


def cmd_verify(args) -> int:
    if args.workers is not None and args.workers < 1:
        return _fail(f"workers must be at least 1, got {args.workers}")
    if args.propositions == ["all"]:
        props = registry()
    else:
        try:
            props = [proposition(pid) for pid in args.propositions]
        except KeyError as exc:
            return _fail(str(exc.args[0]))
    # an unset flag keeps its scope's default
    overrides = {
        name: getattr(args, name)
        for name in ("max_n", "codomain_max_n", "max_spaces", "max_maps")
        if getattr(args, name) is not None
    }
    swept = {}
    for scope in ("set", "map"):
        group = [p for p in props if (p.scope == "map") == (scope == "map")]
        if group:
            budget = default_budget(scope)._replace(**overrides)
            swept.update(zip(group, verify_all(group, budget)))
    reports = [swept[p] for p in props]
    all_ok = True
    for p, report in zip(props, reports):
        ok = acceptable(p, report)
        all_ok = all_ok and ok
        note = ""
        if p.exploratory:
            note = "  (exploratory)"
        elif not ok:
            note = "  FAILED"
        print(f"{p.id}: {report.verdict}{note}")
        for w in report.witnesses:
            print(f"  {w.polarity}: "
                  f"{json.dumps(w.to_document(), sort_keys=True)}")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(serialize_report(reports))
        except OSError as exc:
            return _fail(f"cannot write report {args.report}: "
                         f"{exc.strerror or exc}")
        print(f"report written to {args.report}")
    return 0 if all_ok else 1


def cmd_enumerate(args) -> int:
    if args.n < 0:
        return _fail(f"--n must be non-negative, got {args.n}")
    if args.n > MAX_ENUMERATION_N:
        return _fail(
            f"enumeration is capped at n={MAX_ENUMERATION_N}"
        )
    budget = EnumerationBudget(max_n=args.n)
    if args.count_only:
        print(count_topologies(args.n, budget))
        return 0
    # encode_space's document as json.dumps(doc, sort_keys=True) writes
    # it, with each mask's list of names encoded once
    points = default_point_names(args.n)
    names = [json.dumps(mask_to_names(m, points)) for m in range(1 << args.n)]
    tail = f'], "points": {json.dumps(points)}}}'
    for t in enumerate_topologies(args.n, budget):
        print('{"opens": [' + ", ".join([names[u] for u in t.opens]) + tail)
    return 0


# argparse looks sys.stdout and sys.stderr up as it writes, so one parser
# serves every main() call of a process
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fintopo",
        description="Classify generalized open sets, space properties, "
                    "and continuity classes over finite topological "
                    "spaces, and sweep the full proposition registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify-set",
        help="membership of a subset in every implemented set class",
    )
    p.add_argument("space", help="path to a space document (JSON)")
    p.add_argument("subset", nargs="*",
                   help="point names forming the subset (empty = {})")
    p.set_defaults(func=cmd_classify_set)

    p = sub.add_parser(
        "classify-space",
        help="verdicts for the global space properties",
    )
    p.add_argument("space", help="path to a space document (JSON)")
    p.set_defaults(func=cmd_classify_space)

    p = sub.add_parser(
        "classify-map",
        help="verdicts for every continuity class of a map",
    )
    p.add_argument("map", help="path to a map document (JSON)")
    p.set_defaults(func=cmd_classify_map)

    p = sub.add_parser(
        "verify",
        help="sweep propositions exhaustively and report verdicts",
    )
    p.add_argument("propositions", nargs="+",
                   help="proposition ids, or 'all'")
    p.add_argument("--max-n", type=int, default=None,
                   help="ground-set size cap (default: 4 for set/space "
                        "sweeps, 3 for map sweeps)")
    p.add_argument("--codomain-max-n", type=int, default=None,
                   help="codomain size cap of map sweeps (default: "
                        "--max-n)")
    p.add_argument("--max-spaces", type=int, default=None,
                   help="largest number of labeled spaces of one size "
                        "(default: 1000000)")
    p.add_argument("--max-maps", type=int, default=None,
                   help="largest number of maps a map sweep may cover "
                        "(default: 5000000)")
    p.add_argument("--parallel", action="store_true",
                   help="accepted and ignored: a map sweep picks its "
                        "process pool itself (see README)")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored, but at least 1")
    p.add_argument("--report", default=None,
                   help="write the full JSON report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "enumerate",
        help="stream all topologies on n labeled points",
    )
    p.add_argument("--n", type=int, required=True,
                   help=f"ground-set size (0..{MAX_ENUMERATION_N})")
    p.add_argument("--count-only", action="store_true",
                   help="print only the number of topologies")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        # a closed reader surfaces here rather than at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the exit-time flush must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as if the signal had killed us
    # DocumentError and TopologyError are ValueErrors
    except (BudgetExceeded, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
