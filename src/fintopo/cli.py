"""Command line interface.

Exit codes: 0 when everything requested verified or was found as
expected, 1 when a swept proposition failed, 2 on usage, parse, or
validation errors and on a report or stdout that cannot be written, 141
when stdout was closed before the output ended.
"""

import json
import os
import sys
from functools import cache
from types import SimpleNamespace

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


# a flag without a default: the call must give it
_REQUIRED = object()

# The grammar of the CLI, stated once for build_parser and _read_argv.
# Per command: its handler, its help, its positionals as (name, nargs,
# help), where nargs is None (one value), "*" or "+" and only the last
# one may take several, and its long flags as {flag: (kind, default,
# help)}, where kind is int, str or bool (store_true, default False).
COMMANDS = {
    "classify-set": (
        cmd_classify_set,
        "membership of a subset in every implemented set class",
        (("space", None, "path to a space document (JSON)"),
         ("subset", "*", "point names forming the subset (empty = {})")),
        {},
    ),
    "classify-space": (
        cmd_classify_space,
        "verdicts for the global space properties",
        (("space", None, "path to a space document (JSON)"),),
        {},
    ),
    "classify-map": (
        cmd_classify_map,
        "verdicts for every continuity class of a map",
        (("map", None, "path to a map document (JSON)"),),
        {},
    ),
    "verify": (
        cmd_verify,
        "sweep propositions exhaustively and report verdicts",
        (("propositions", "+", "proposition ids, or 'all'"),),
        {
            "--max-n": (int, None, "ground-set size cap (default: {} for "
                        "set/space sweeps, {} for map sweeps)".format(
                            default_budget("set").max_n,
                            default_budget("map").max_n)),
            "--codomain-max-n": (int, None, "codomain size cap of map "
                                            "sweeps (default: --max-n)"),
            "--max-spaces": (int, None, "largest number of labeled spaces "
                             "of one size (default: {max_spaces})".format_map(
                                 EnumerationBudget._field_defaults)),
            "--max-maps": (int, None, "largest number of maps a map sweep "
                           "may cover (default: {max_maps})".format_map(
                               EnumerationBudget._field_defaults)),
            "--parallel": (bool, False, "accepted and ignored: a map sweep "
                                        "picks its process pool itself "
                                        "(see README)"),
            "--workers": (int, None, "accepted and ignored, but at least 1"),
            "--report": (str, None, "write the full JSON report to this "
                                    "path"),
        },
    ),
    "enumerate": (
        cmd_enumerate,
        "stream all topologies on n labeled points",
        (),
        {
            "--n": (int, _REQUIRED,
                    f"ground-set size (0..{MAX_ENUMERATION_N})"),
            "--count-only": (bool, False,
                             "print only the number of topologies"),
        },
    ),
}


def _read_argv(argv):
    """The arguments argparse would give a well-formed call, or None.

    Reads [command, *positionals, *options] alone: an exact command name,
    positionals that do not start with "-", then exact long flags, each
    with its value as a separate token, an int value matching -?[0-9]+
    and a str value not starting with "-". Anything else (help, "--",
    "--flag=value", an abbreviation, a missing value or a token out of
    place) is None and left to argparse, so its output and exit codes
    stay argparse's.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positionals, flags = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    end = 1
    while end < len(argv) and not argv[end].startswith("-"):
        end += 1
    given = list(argv[1:end])
    for name, nargs, _ in positionals:
        if nargs is None and given:
            values[name] = given.pop(0)
        elif nargs == "*" or nargs == "+" and given:
            values[name], given = given, []
        else:
            return None
    if given:
        return None
    for flag, (_, default, _) in flags.items():
        values[flag[2:].replace("-", "_")] = default
    tokens = iter(argv[end:])
    for flag in tokens:
        if flag not in flags:
            return None
        kind = flags[flag][0]
        # a missing value reads as "-", which no int or str value may be
        value = True if kind is bool else next(tokens, "-")
        if kind is int:
            digits = value.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past int's limit on digits
                return None
        elif kind is str and value.startswith("-"):
            return None
        values[flag[2:].replace("-", "_")] = value
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(**values)


# argparse looks sys.stdout and sys.stderr up as it writes, so one parser
# serves every main() call of a process; it is built only for a call
# _read_argv leaves to it (help and usage errors)
@cache
def build_parser():
    """The argparse parser of COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fintopo",
        description="Classify generalized open sets, space properties, "
                    "and continuity classes over finite topological "
                    "spaces, and sweep the full proposition registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, positionals, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, nargs, help_text in positionals:
            p.add_argument(name, nargs=nargs, help=help_text)
        for flag, (kind, default, help_text) in flags.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            elif default is _REQUIRED:
                p.add_argument(flag, type=kind, required=True,
                               help=help_text)
            else:
                p.add_argument(flag, type=kind, default=default,
                               help=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        # an unwritable stdout surfaces here rather than at interpreter exit
        sys.stdout.flush()
        return code
    # DocumentError and TopologyError are ValueErrors
    except (BudgetExceeded, ValueError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        # the commands report their own files' errors, so this is stdout
        # (a closed pipe, a full disk); the exit-time flush must not hit
        # it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE, as if the signal had killed us
        return _fail(f"cannot write output: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
