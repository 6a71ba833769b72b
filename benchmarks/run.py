"""Record in-process timings of fintopo in a BENCH_<date>_<sha>.json file.

    python benchmarks/run.py [--out DIR]

fintopo is imported from PYTHONPATH when it is found there, else from
this checkout's src/, so one runner measures any checkout:

    PYTHONPATH=/path/to/other/checkout/src python benchmarks/run.py

The file names the measured checkout's commit and holds the machine
(cpu count, Python and numpy versions, numpy None where it is not
installed), the line count of the measured src/ tree, both raw and of
code alone (no blank line, comment line or docstring), and the median
and interquartile range of REPEATS runs:

- end to end: the 27 set/space propositions at max_n=5, at max_n=6 and
  at max_n=7 (with max_spaces raised to 10,000,000), verify_all() at the
  default budgets, count_topologies(6), count_topologies(7) (with
  max_spaces raised to 10,000,000),
  count_reflexive_transitive_relations(5) (the relation filter),
  list(enumerate_topologies(6)) (the labeled stream), and the 12 map
  propositions at the default map budget (max_n=3, 24,907 maps), at
  max_n=4 (33,827,652 maps, every one counted), at max_n=5 with
  codomains on at most 3 points, at max_n=4 with codomains on at most
  5 points (max_maps raised to 1,599,984,504, every map counted), at
  max_n=5 with max_maps raised to 154,771,368,636 (every map counted)
  and at max_n=6, which max_maps refuses.  The map sweep picks its own process pool: it runs
  maps_n4 in process and, on more than one CPU, maps_n5_c3 and maps_n5
  on the pool;
- layers: class_table (with every family bitmap read, as the sweeps
  read them) and space_profile over the spaces the set/space sweep
  visits at max_n=5 (one per isomorphism class), that class generator
  per n up to 7 (with max_spaces raised to 10,000,000, since the
  default budget refuses n=7), extensions_n5: one
  enumeration._extensions pass over the five-point classes (the 3,920
  extensions of 139 classes that count_topologies(6) counts),
  extension_count_n5: the same count with no extension built, from
  enumeration._descendant_counts(rows, 1), grandchild_count_n4: the
  18,356 six-point descendants of the 33 four-point classes (the
  extensions' extensions, which count_topologies(6) weighs by orbit
  size) with no preorder built, from _descendant_counts(rows, 2),
  class_tables_n6: every family bitmap of the 718 six-point classes,
  read from one ClassTable per chunk of CHUNK_SUBSETS >> 6 classes,
  class_table_classify: what classify-set asks of one space, a fresh
  class_table plus one witness per existential class, over fixed
  seeded random spaces on 8, 11 and 12 points (per size, the median is
  for all of its spaces together), interior_closure: interior and
  closure of every subset of those same spaces, interior_table: the
  same interiors and closures read from one interior table per space,
  and build_topology: validating the opens of those same spaces, and
  apart the discrete 12-point family of 4,096 opens;
- map_facts: the map sweep's per-domain and per-partition step,
  _domain_facts plus _partition_facts over every partition of every
  domain class on at most 5 points, and continuity_profile on fixed
  seeded random maps with domains on 7, 10 and 12 points (per size, the
  median is for all of its maps together);
- trace_table: the map sweep's trace counts N(ny, k, sigma) for
  codomains on at most 5 points, every row, theorems._trace_table
  alone, called with the codomain cap and as many blocks;
  trace_table_c5_b4: the rows of at most 4 blocks of the same table,
  the rows that domains on at most 4 points read; trace_table_c6_b4:
  the rows of at most 4 blocks for codomains on at most 6 points;
- cli_import: `import fintopo.cli` timed inside each of REPEATS fresh
  interpreters, with the package's bytecode compiled beforehand, and
  the number of modules that import adds: the start-up every CLI
  command pays before it checks anything;
- cli_first_call: the first main(["enumerate", "--n", "0",
  "--count-only"]) after `import fintopo.cli`, timed inside each of
  REPEATS fresh interpreters, and the modules that call adds: the
  argument parsing every CLI command pays, with next to no work.

Every timed run starts after a garbage collection, with empty
class_table and interior_table caches, so that no entry reads state an
earlier one left behind.  Nothing under perfbench/ is read or written.
"""

import argparse
import ast
import compileall
import datetime
import gc
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent

try:
    import fintopo
except ImportError:
    sys.path.insert(0, str(HERE.parent / "src"))
    import fintopo

from fintopo import enumeration, maps, setclasses, spaceprops, theorems
from fintopo.enumeration import EnumerationBudget
from fintopo.space import (Preorder, build_topology, closure, interior,
                           iter_points, topology_from_preorder)

SETS_MAX_N = 5
SETS_N6 = EnumerationBudget(max_n=6)
SETS_N7 = EnumerationBudget(max_n=7, max_spaces=10_000_000)
COUNT_N7 = SETS_N7  # the default budget refuses n=7
REPEATS = 5
# every map between spaces on <= 4 points, and no more
MAP_REGISTRY_N4 = EnumerationBudget(max_n=4, max_maps=33_827_652)
# every map from spaces on <= 4 points into spaces on <= 5 points
MAP_REGISTRY_N4_C5 = EnumerationBudget(max_n=4, codomain_max_n=5,
                                       max_maps=1_599_984_504)
# every map from spaces on <= 5 points into spaces on <= 3 points
MAP_REGISTRY_N5_C3 = EnumerationBudget(max_n=5, codomain_max_n=3,
                                       max_maps=10**12)
# every map between spaces on <= 5 points
MAP_REGISTRY_N5 = EnumerationBudget(max_n=5, max_maps=154_771_368_636)
# 216,859 spaces fit max_spaces, but their maps exceed max_maps
MAP_REFUSED_N6 = EnumerationBudget(max_n=6)
GENERATOR_MAX_N = 7
# classify-set's spaces: CLASSIFY_SPACES seeded random spaces per size
CLASSIFY_SIZES = (8, 11, 12)
CLASSIFY_SPACES = 4
CLASSIFY_SEED = 12
# continuity_profile's maps: PROFILE_MAPS seeded random maps per domain
# size, into spaces on 2 to 5 points
PROFILE_SIZES = (7, 10, 12)
PROFILE_MAPS = 6
PROFILE_SEED = 18
# codomain caps of the trace_table layers, and the blocks of the last two
TRACE_MAX_N = 5
TRACE_WIDE_N = 6
TRACE_BLOCKS = 4


def _summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_s": round(median, 6),
        "iqr_s": round(q3 - q1, 6),
        "runs_s": [round(s, 6) for s in samples],
    }


def _timed(fn):
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        _clear_caches()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return _summary(samples)


def _git(src, *args):
    out = subprocess.run(
        ["git", "-C", str(src), *args], capture_output=True, text=True,
    )
    return out.stdout.strip() if out.returncode == 0 else None


def _numpy_version():
    """numpy's installed version, or None; fintopo does not import it."""
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _code_lines(text):
    """Lines of text that hold code: not blank, not a comment alone, and
    not in a docstring (found with ast)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
        and number not in docstrings
    )


def _source():
    package = Path(fintopo.__file__).resolve().parent
    texts = [p.read_text(encoding="utf-8")
             for p in sorted(package.glob("*.py"))]
    return {
        "commit": _git(package, "rev-parse", "HEAD"),
        "dirty": bool(_git(package, "status", "--porcelain", "--", ".")),
        "src_lines": sum(len(text.splitlines()) for text in texts),
        "src_code_lines": sum(_code_lines(text) for text in texts),
    }


def _swept_spaces():
    """The spaces the set/space sweep evaluates at max_n=SETS_MAX_N."""
    budget = EnumerationBudget(max_n=SETS_MAX_N)
    return [t for n in range(SETS_MAX_N + 1)
            for t, _ in enumeration.enumerate_isomorphism_classes(n, budget)]


def _sparse_space(rng, n):
    """The space of the preorder that closes sparse random rows."""
    rows = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            | 1 << x for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            merged = rows[x]
            for y in iter_points(rows[x]):
                merged |= rows[y]
            changed |= merged != rows[x]
            rows[x] = merged
    return topology_from_preorder(Preorder(tuple(rows)))


def _random_space(rng, n):
    """A random space on n points with 3n to 4n opens, like classify-set's.

    Spaces outside the band of opens are drawn again, so that the cost
    per space stays narrow.
    """
    while True:
        t = _sparse_space(rng, n)
        if 3 * n <= len(t.opens) <= 4 * n:
            return t


def _classify_queries(n, rng):
    """(space, [(existential class, member)]) for CLASSIFY_SPACES spaces."""
    queries = []
    for _ in range(CLASSIFY_SPACES):
        t = _random_space(rng, n)
        table = setclasses.class_table.__wrapped__(t)
        members = [(cls, rng.choice(table.family(cls)))
                   for cls in setclasses.SECOND_FAMILY]
        queries.append((t, members))
    return queries


def _classify(queries):
    for t, members in queries:
        table = setclasses.class_table.__wrapped__(t)
        for cls, a in members:
            table.witness(a, cls)


def _interior_closure(queries):
    for t, _ in queries:
        for a in t.subsets():
            interior(t, a)
            closure(t, a)


def _interior_table(build, queries):
    for t, _ in queries:
        table = build(t)
        [t.full ^ table[t.full ^ a] for a in t.subsets()]


def _read_bitmaps(table):
    for cls in setclasses.SetClass:
        table.family_bitmap(cls)


def _class_tables(spaces):
    """Every family bitmap of every space, from chunked tables."""
    size = max(1, setclasses.CHUNK_SUBSETS >> spaces[0].n)
    for start in range(0, len(spaces), size):
        _read_bitmaps(setclasses.ClassTable(spaces[start:start + size]))


def _random_maps(n, rng):
    """PROFILE_MAPS maps from random spaces on n points (see _random_space)
    into sparse random spaces on 2 to 5 points."""
    out = []
    for _ in range(PROFILE_MAPS):
        tx, ty = _random_space(rng, n), _sparse_space(rng, rng.randint(2, 5))
        out.append(maps.SpaceMap(tx, ty,
                                 [rng.randrange(ty.n) for _ in range(n)]))
    return out


def _facts_per_partition(domains):
    for tx in domains:
        facts = maps._domain_facts(tx)
        for blocks in theorems._partitions(tx.n):
            maps._partition_facts(blocks, max(blocks, default=-1) + 1, facts)


def _extensions_listed(level):
    return sum(1 for rows in level for _ in enumeration._extensions(rows))


def _descendants(depth, level):
    """The preorders depth levels below level's rows in the _extensions
    tree, counted with none built."""
    return sum(enumeration._descendant_counts(rows, depth)[-1]
               for rows in level)


def _tree_count_layer(depth, level, counted):
    return {
        "routine": "_descendant_counts",
        "classes": len(level),
        counted: _descendants(depth, level),
        **_timed(partial(_descendants, depth, level)),
    }


def _trace_table_layer(blocks, cap=TRACE_MAX_N):
    """theorems._trace_table for codomains on at most cap points and
    partitions into at most blocks blocks."""
    trace_table = partial(theorems._trace_table, cap, blocks)
    return {
        "codomain_max_n": cap,
        "blocks": blocks,
        "takes": "cap and blocks",
        "sigmas": sum(len(row) for row in trace_table()),
        **_timed(trace_table),
    }


def _profiles(fs):
    for f in fs:
        maps.continuity_profile(f)


def _build_topologies(families):
    for n, opens in families:
        build_topology(n, opens)


def _clear_caches():
    setclasses.class_table.cache_clear()
    setclasses.interior_table.cache_clear()


# run in a fresh interpreter: the seconds `import fintopo.cli` takes and
# the number of modules it adds
_IMPORT_CLI = (
    "import sys, time; before = len(sys.modules); "
    "start = time.perf_counter(); import fintopo.cli; "
    "print(time.perf_counter() - start, len(sys.modules) - before)"
)
# run in a fresh interpreter after `import fintopo.cli`: the seconds the
# first main() call takes, argument parsing included, and the modules it
# adds (its stdout, the count, is kept apart)
_FIRST_CALL = """\
import contextlib, io, sys, time
import fintopo.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    fintopo.cli.main(["enumerate", "--n", "0", "--count-only"])
    elapsed = time.perf_counter() - start
print(elapsed, *sorted(set(sys.modules) - before))
"""


def _fresh_runs(code):
    """The whitespace-split stdout of code in each of REPEATS fresh
    interpreters, with the package's bytecode compiled first."""
    package = Path(fintopo.__file__).resolve().parent
    compileall.compile_dir(str(package), quiet=1)
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    return [
        subprocess.run([sys.executable, "-c", code], check=True,
                       capture_output=True, text=True, env=env).stdout.split()
        for _ in range(REPEATS)
    ]


def cli_import():
    runs = _fresh_runs(_IMPORT_CLI)
    return {**_summary([float(s) for s, _ in runs]),
            "modules_added": max(int(m) for _, m in runs)}


def cli_first_call():
    runs = _fresh_runs(_FIRST_CALL)
    return {**_summary([float(run[0]) for run in runs]),
            "modules_added": sorted({m for run in runs for m in run[1:]})}


def end_to_end():
    set_space = [p.id for p in theorems.registry() if p.scope != "map"]
    map_ids = [p.id for p in theorems.registry() if p.scope == "map"]
    sets_budget = EnumerationBudget(max_n=SETS_MAX_N)
    return {
        "sets_n5": _timed(
            lambda: theorems.verify_all(set_space, sets_budget)),
        "sets_n6": _timed(lambda: theorems.verify_all(set_space, SETS_N6)),
        "sets_n7": _timed(lambda: theorems.verify_all(set_space, SETS_N7)),
        "verify_all_sequential": _timed(theorems.verify_all),
        "count_topologies_6": _timed(lambda: enumeration.count_topologies(6)),
        "count_topologies_7": _timed(
            lambda: enumeration.count_topologies(7, COUNT_N7)),
        "count_relations_5": _timed(
            lambda: enumeration.count_reflexive_transitive_relations(5)),
        "enumerate_topologies_6": _timed(
            lambda: list(enumeration.enumerate_topologies(6))),
        "maps_default": _timed(lambda: theorems.verify_all(map_ids)),
        "maps_n4": _timed(
            lambda: theorems.verify_all(map_ids, MAP_REGISTRY_N4)),
        "maps_n4_c5": _timed(
            lambda: theorems.verify_all(map_ids, MAP_REGISTRY_N4_C5)),
        "maps_n5_c3": _timed(
            lambda: theorems.verify_all(map_ids, MAP_REGISTRY_N5_C3)),
        "maps_n5": _timed(
            lambda: theorems.verify_all(map_ids, MAP_REGISTRY_N5)),
        "maps_refused_n6": _timed(
            lambda: theorems.verify_all(map_ids, MAP_REFUSED_N6)),
    }


def layers():
    spaces = _swept_spaces()
    build = setclasses.class_table.__wrapped__
    classes = enumeration.enumerate_isomorphism_classes
    level = [t.min_nbhd for t, _ in classes(5, EnumerationBudget(max_n=5))]
    four = [t.min_nbhd for t, _ in classes(4)]
    six = [t for t, _ in classes(6, EnumerationBudget(max_n=6))]
    out = {
        "swept_spaces": {"visits": "one per isomorphism class",
                         "count": len(spaces)},
        "class_table": _timed(
            lambda: [_read_bitmaps(build(t)) for t in spaces]),
        "space_profile": _timed(
            lambda: [spaceprops.space_profile(t) for t in spaces]),
        "class_generator": {
            str(n): _timed(lambda n=n: classes(n, EnumerationBudget(
                max_n=n, max_spaces=10_000_000)))
            for n in range(GENERATOR_MAX_N + 1)
        },
        "extensions_n5": {
            "classes": len(level),
            "extensions": _extensions_listed(level),
            **_timed(partial(_extensions_listed, level)),
        },
        "extension_count_n5": _tree_count_layer(1, level, "extensions"),
        "grandchild_count_n4": _tree_count_layer(2, four, "grandchildren"),
        "class_tables_n6": {
            "classes": len(six),
            "chunked": True,
            **_timed(partial(_class_tables, six)),
        },
    }
    rng = random.Random(CLASSIFY_SEED)
    queries = {n: _classify_queries(n, rng) for n in CLASSIFY_SIZES}
    out["class_table_classify"] = {
        str(n): _timed(partial(_classify, q)) for n, q in queries.items()
    }
    out["interior_closure"] = {
        str(n): _timed(partial(_interior_closure, q))
        for n, q in queries.items()
    }
    out["interior_table"] = {
        str(n): _timed(partial(_interior_table,
                               setclasses.interior_table.__wrapped__, q))
        for n, q in queries.items()
    }
    out["build_topology"] = {
        str(n): _timed(partial(_build_topologies,
                               [(t.n, t.opens) for t, _ in q]))
        for n, q in queries.items()
    }
    out["build_topology"]["discrete_12"] = _timed(
        partial(_build_topologies, [(12, range(1 << 12))]))
    rng = random.Random(PROFILE_SEED)
    profiled = {n: _random_maps(n, rng) for n in PROFILE_SIZES}
    out["map_facts"] = {
        "partitions_n5": _timed(partial(_facts_per_partition, spaces)),
        "continuity_profile": {
            str(n): _timed(partial(_profiles, fs))
            for n, fs in profiled.items()
        },
    }
    out["trace_table"] = _trace_table_layer(TRACE_MAX_N)
    out["trace_table_c5_b4"] = _trace_table_layer(TRACE_BLOCKS)
    out["trace_table_c6_b4"] = _trace_table_layer(TRACE_BLOCKS, TRACE_WIDE_N)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=HERE,
                        help="directory of the BENCH file (default: here)")
    args = parser.parse_args(argv)
    source = _source()
    doc = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "platform": platform.platform(),
        },
        "source": source,
        "repeats": REPEATS,
        "end_to_end": end_to_end(),
        "cli_import": cli_import(),
        "cli_first_call": cli_first_call(),
        "layers": layers(),
    }
    sha = (source["commit"] or "unknown")[:7]
    if source["dirty"]:
        sha += "-dirty"
    name = f"BENCH_{doc['date'][:10]}_{sha}.json"
    path = args.out / name
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
