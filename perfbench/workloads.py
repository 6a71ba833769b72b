"""The benchmark's workloads, the classify-queries generator and the output checks.

All five workloads are closed loops with a single caller.  Four run one
fintopo CLI command per repetition; they are exhaustive sweeps or counts,
so the seed does not change their input.  classify-queries runs a seeded
batch of classify-set, classify-space and classify-map calls through
cli.main in one process.

This module imports nothing from fintopo at load time: the runner uses it
to build inputs and check outputs without loading the program under test.
Only expected_classify_outputs imports fintopo, for the independent route.
"""

import hashlib
import json
import random
import string

# The 27 set- and space-scope propositions of the registry, in sweep order.
SET_SPACE_IDS = (
    "l00", "t00", "cor-submax", "t0", "t0a",
    "chain-a-ab", "chain-ab-b", "chain-ab-so", "chain-a-lc", "chain-lc-b",
    "equiv-tset", "equiv-sr-sandwich", "equiv-bset-scl", "equiv-scl-form",
    "equiv-ic-subspace",
    "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "nonrev-ab-a", "nonrev-ab-b", "nonrev-ab-so", "indep-ab-lc", "indep-lc-ab",
)

# stands for the repetition's report path in a CLI argument list
REPORT = "{report}"

CLI_ARGV = {
    "verify-default": ["verify", "all", "--report", REPORT],
    "verify-default-parallel": [
        "verify", "all", "--parallel", "--workers", "2", "--report", REPORT,
    ],
    "sets-n5": ["verify", *SET_SPACE_IDS, "--max-n", "5", "--report", REPORT],
    "enumerate-n6": ["enumerate", "--n", "6", "--count-only"],
}

CLASSIFY = "classify-queries"
WORKLOADS = (*CLI_ARGV, CLASSIFY)

# The parallel sweep must reproduce the sequential report byte for byte,
# so both are checked against one recorded reference.
REFERENCE_KEY = {"verify-default-parallel": "verify-default"}

# Labeled topologies on 6 points, OEIS A000798.
TOPOLOGIES_ON_6_POINTS = 209527


def cli_argv(workload, report_path):
    return [report_path if a == REPORT else a for a in CLI_ARGV[workload]]


def canonical_report(doc) -> str:
    """The text serialize_report gives for one proposition's report."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def report_digests(report: bytes):
    """[(proposition id, sha256 of its canonical report)] in report order."""
    docs = json.loads(report)
    if not isinstance(docs, list):
        raise ValueError("a verify report is a JSON list")
    return [(d["proposition"], sha256(canonical_report(d))) for d in docs]


def operations(workload, reference, queries=None) -> int:
    """How many operations one repetition of the workload performs."""
    if workload == "enumerate-n6":
        return 1
    if workload == CLASSIFY:
        return len(queries)
    return len(reference[REFERENCE_KEY.get(workload, workload)]["propositions"])


def check_cli(workload, reference, exit_code, stdout: str, report):
    """Failed operations of one CLI repetition.

    An operation is one proposition report, or the one enumeration count.
    A wrong exit code, or a report whose bytes differ from the reference
    although every proposition matches, fails all of them.
    """
    if workload == "enumerate-n6":
        ok = exit_code == 0 and stdout.strip() == str(TOPOLOGIES_ON_6_POINTS)
        return 0 if ok else 1
    ref = reference[REFERENCE_KEY.get(workload, workload)]
    expected = ref["propositions"]
    try:
        got = dict(report_digests(report)) if report is not None else {}
    except (ValueError, KeyError, TypeError):
        got = {}
    failed = sum(1 for pid, digest in expected.items() if got.get(pid) != digest)
    same_bytes = report is not None and sha256(report) == ref["report_sha256"]
    if exit_code != ref["exit_code"] or (failed == 0 and not same_bytes):
        failed = len(expected)
    return failed


# ---------------------------------------------------------------------------
# classify-queries: seeded documents and queries
#
# The batch is built in tiers of one query shape each, so that its
# percentiles fall inside a tier instead of on the ramp between two, and
# stay put from seed to seed.  Of the 240 queries, the 70 classify-space
# queries are the cheapest; p50 (between the 120th and 121st) falls
# mid-way through the 100 classify-set queries on 8-point spaces; the 10
# random subsets and 12 maps mostly fall between the tiers; p90 (the
# 216th) falls mid-way through the 48 classify-set queries on 11-point
# spaces.  The tiered subsets are
# nonempty A-sets (an open set meet a regular closed one), which sends
# every existential class through its witness scan, so their cost varies
# little between spaces.  The 12-point spaces get classify-space queries
# only: the reference check builds a class_table for every space, which
# takes about 0.2 s at 12 points.

# (points, spaces, classify-space per space, A-set queries per space,
#  random-subset queries per space)
SPACE_TIERS = (
    (11, 48, 1, 1, 0),
    (8, 50, 0, 2, 0),
    (10, 10, 0, 0, 1),
    (12, 4, 1, 0, 0),
    (9, 6, 1, 0, 0),
    (6, 6, 1, 0, 0),
    (7, 6, 1, 0, 0),
)
MAP_QUERIES = 12
# map endpoints stay small: classify-map runs a family scan over the
# domain for every codomain open and a semi-regularity test for every
# codomain subset
MAP_MAX_POINTS = 7


def _up_sets(n, rows):
    """Every set containing the whole row of each of its points."""
    opens = []
    for u in range(1 << n):
        rest = u
        while rest:
            x = (rest & -rest).bit_length() - 1
            if rows[x] & ~u:
                break
            rest &= rest - 1
        else:
            opens.append(u)
    return opens


def _random_preorder(rng, n):
    """Rows of a random preorder whose up-set topology has 3n to 4n opens.

    The preorder glues the points into k blocks and orders the blocks by
    a random transitive DAG.  Bounding the number of opens keeps the cost
    of a query on an n-point space within a narrow band.
    """
    while True:
        k = rng.randint((n + 1) // 2, n)
        block = [x % k for x in range(n)]
        rng.shuffle(block)
        density = rng.uniform(0.1, 0.6)
        above = [1 << i for i in range(k)]
        for i in range(k - 1, -1, -1):
            for j in range(i + 1, k):
                if rng.random() < density:
                    above[i] |= above[j]
        rows = [
            sum(1 << y for y in range(n) if above[block[x]] >> block[y] & 1)
            for x in range(n)
        ]
        opens = _up_sets(n, rows)
        if 3 * n <= len(opens) <= 4 * n:
            return rows, opens


def _random_a_set(rng, n, rows, opens):
    """A nonempty random open set meet the regular closed set cl int w."""
    full = (1 << n) - 1

    def interior(a):
        return sum(1 << x for x in range(n) if rows[x] & ~a == 0)

    while True:
        regular_closed = full ^ interior(full ^ interior(rng.getrandbits(n)))
        a = rng.choice(opens) & regular_closed
        if a:
            return a


def _space_document(rng, space):
    names = space["points"]
    opens = [
        [names[x] for x in range(len(names)) if u >> x & 1]
        for u in space["opens"]
    ]
    rng.shuffle(opens)
    return {"points": names, "opens": opens}


def generate_classify(seed):
    """Spaces, documents and queries for one seed.

    Returns (spaces, documents, queries).  spaces[i] holds the points and
    open masks of space i; documents maps a file name to its JSON
    document; each query names its CLI arguments (with document file
    names relative to the document directory) and what the checker needs.
    """
    rng = random.Random(seed)
    spaces, documents, queries = [], {}, []

    def set_query(i, subset):
        points = spaces[i]["points"]
        names = [p for x, p in enumerate(points) if subset >> x & 1]
        queries.append({"kind": "classify-set", "space": i, "subset": subset,
                        "argv": ["classify-set", f"space-{i}.json", *names]})

    for n, count, space_queries, a_sets, random_sets in SPACE_TIERS:
        for _ in range(count):
            i = len(spaces)
            rows, opens = _random_preorder(rng, n)
            spaces.append({"points": rng.sample(string.ascii_lowercase, n),
                           "opens": opens})
            documents[f"space-{i}.json"] = _space_document(rng, spaces[i])
            for _ in range(space_queries):
                queries.append({"kind": "classify-space", "space": i,
                                "argv": ["classify-space", f"space-{i}.json"]})
            for _ in range(a_sets):
                set_query(i, _random_a_set(rng, n, rows, opens))
            for _ in range(random_sets):
                set_query(i, rng.getrandbits(n))

    small = [i for i, s in enumerate(spaces)
             if len(s["points"]) <= MAP_MAX_POINTS]
    for j in range(MAP_QUERIES):
        dom, cod = rng.choice(small), rng.choice(small)
        dom_points = spaces[dom]["points"]
        cod_points = spaces[cod]["points"]
        # few image points make preimages coarse, so every continuity
        # class gets both verdicts across the batch
        width = (1, 2, 3, len(cod_points))[j % 4]
        targets = rng.sample(range(len(cod_points)), width)
        assignment = [rng.choice(targets) for _ in dom_points]
        name = f"map-{j}.json"
        documents[name] = {
            "domain": _space_document(rng, spaces[dom]),
            "codomain": _space_document(rng, spaces[cod]),
            "assignment": {
                dom_points[x]: cod_points[y] for x, y in enumerate(assignment)
            },
        }
        queries.append({"kind": "classify-map", "domain": dom,
                        "codomain": cod, "assignment": assignment,
                        "argv": ["classify-map", name]})
    rng.shuffle(queries)
    return spaces, documents, queries


def _format_set(mask, points):
    return "{" + ",".join(
        points[x] for x in range(len(points)) if mask >> x & 1
    ) + "}"


def expected_classify_outputs(spaces, queries):
    """Expected stdout of every query, by a route the CLI does not take.

    Set classes and space properties are read off class_table bitmaps
    instead of the single-subset predicates; map verdicts come from
    preimage and CONTINUITY_BINDING over the domain's class_table.
    """
    from fintopo.maps import (
        CONTINUITY_BINDING,
        ContinuityClass,
        SpaceMap,
        preimage,
    )
    from fintopo.setclasses import SetClass, class_table
    from fintopo.space import build_topology
    from fintopo.spaceprops import SpaceProperty

    second = {
        SetClass.LOCALLY_CLOSED: ("closed", SetClass.CLOSED),
        SetClass.A_SET: ("regular-closed", SetClass.REGULAR_CLOSED),
        SetClass.B_SET: ("semi-closed", SetClass.SEMI_CLOSED),
        SetClass.AB_SET: ("semi-regular", SetClass.SEMI_REGULAR),
    }
    topologies = [build_topology(len(s["points"]), s["opens"]) for s in spaces]

    def classify_set(t, points, a):
        table = class_table(t)
        lines = [f"subset {_format_set(a, points)} in space on {t.n} point(s)"]
        for cls in SetClass:
            member = table.contains(a, cls)
            line = f"  {cls.value}: {'yes' if member else 'no'}"
            if member and cls in second:
                label, family = second[cls]
                u, v = next(
                    (u, v) for u in sorted(t.opens)
                    for v in table.family(family) if u & v == a
                )
                line += (f"  [open {_format_set(u, points)} & "
                         f"{label} {_format_set(v, points)}]")
            lines.append(line)
        return lines

    def classify_space(t):
        table = class_table(t)
        bm = table.family_bitmap
        opens, dense = bm(SetClass.OPEN), bm(SetClass.DENSE)
        semi_open = bm(SetClass.SEMI_OPEN)
        full = t.full
        verdicts = {
            SpaceProperty.EXTREMALLY_DISCONNECTED: all(
                opens >> table.closure_table[u] & 1 for u in t.opens
            ),
            SpaceProperty.SUBMAXIMAL: dense & ~opens == 0,
            SpaceProperty.PARTITION: opens & ~bm(SetClass.CLOSED) == 0,
            SpaceProperty.DISCRETE: opens == (1 << (1 << t.n)) - 1,
            SpaceProperty.INDISCRETE: opens.bit_count() <= 2,
            SpaceProperty.HYPERCONNECTED: opens & ~dense & ~1 == 0,
            SpaceProperty.SEMI_CONNECTED: not any(
                semi_open >> a & 1 and semi_open >> (full ^ a) & 1
                for a in range(1, full)
            ),
        }
        lines = [f"space on {t.n} point(s) with {len(t.opens)} open set(s)"]
        lines += [f"  {p.value}: {'yes' if verdicts[p] else 'no'}"
                  for p in SpaceProperty]
        return lines

    def classify_map(q):
        dom, cod = topologies[q["domain"]], topologies[q["codomain"]]
        dom_points = spaces[q["domain"]]["points"]
        cod_points = spaces[q["codomain"]]["points"]
        f = SpaceMap(dom, cod, q["assignment"])
        table = class_table(dom)
        shown = ", ".join(
            f"{dom_points[x]}->{cod_points[y]}"
            for x, y in enumerate(q["assignment"])
        )
        lines = [f"map [{shown}] between spaces on {dom.n} and "
                 f"{cod.n} point(s)"]
        for cc in ContinuityClass:
            if cc is ContinuityClass.STRONGLY_IRRESOLUTE:
                sr = table.family_bitmap(SetClass.SEMI_REGULAR)
                value = all(sr >> preimage(f, b) & 1 for b in cod.subsets())
            else:
                bm = table.family_bitmap(CONTINUITY_BINDING[cc])
                value = all(bm >> preimage(f, v) & 1 for v in cod.opens)
            lines.append(f"  {cc.value}: {'yes' if value else 'no'}")
        return lines

    out = []
    for q in queries:
        if q["kind"] == "classify-set":
            i = q["space"]
            lines = classify_set(topologies[i], spaces[i]["points"],
                                 q["subset"])
        elif q["kind"] == "classify-space":
            lines = classify_space(topologies[q["space"]])
        else:
            lines = classify_map(q)
        out.append("\n".join(lines) + "\n")
    return out


def write_classify_inputs(seed, directory):
    """Write the seed's documents and the query list the child runs."""
    spaces, documents, queries = generate_classify(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in documents.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    # the second argument of every query is its document
    argvs = [
        [q["argv"][0], str(directory / q["argv"][1]), *q["argv"][2:]]
        for q in queries
    ]
    (directory / "queries.json").write_text(json.dumps(argvs),
                                            encoding="utf-8")
    return spaces, queries
