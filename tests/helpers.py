"""Shared fixture spaces, definitional oracles and a stand-in process pool.

labeled_topologies is the labeled preorder walk, the independent oracle
for the class generator that enumerate_topologies and every sweep read;
the labeled_* traversals below are built on it.  unfiltered_next_level
is the class generator's step without its filter on the new point.
build_topology_pairwise decides every family by the pairwise closure
scan alone: the oracle for build_topology's comparison with up-sets.

Points are indexed a=bit0, b=bit1, c=bit2, d=bit3, so subset literals
below read right to left.
"""

import math
import os
import random
from functools import cache
from itertools import chain, islice, permutations, product
from multiprocessing import Pool

from fintopo import (
    BudgetExceeded,
    EnumerationBudget,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    Preorder,
    SpaceProperty,
    Topology,
    build_topology,
    class_table,
    closure,
    enumerate_maps,
    enumeration,
    semi_closure_closed_form,
    space,
    theorems,
    topology_from_preorder,
)
from fintopo.enumeration import _extensions
from fintopo.maps import _domain_facts, _fact_word
from fintopo.setclasses import is_ic_set_subspace, is_semi_open
from fintopo.space import iter_points, up_sets


def four_point_space():
    # opens {}, {a}, {b}, {a,b}, {a,b,c,d}
    return build_topology(4, [0b0000, 0b0001, 0b0010, 0b0011, 0b1111])


def three_point_space():
    # opens {}, {a}, {a,b,c}
    return build_topology(3, [0b000, 0b001, 0b111])


def sierpinski():
    # opens {}, {a}, {a,b}
    return build_topology(2, [0b00, 0b01, 0b11])


def discrete(n):
    return build_topology(n, range(1 << n))


def indiscrete(n):
    return build_topology(n, [0, (1 << n) - 1])


def random_preorder_topology(seeds):
    """Close arbitrary seed rows into a preorder and take its topology."""
    n = len(seeds)
    rows = [seeds[i] % (1 << n) | 1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = rows[i]
            for j in iter_points(rows[i]):
                merged |= rows[j]
            if merged != rows[i]:
                rows[i] = merged
                changed = True
    return topology_from_preorder(Preorder(tuple(rows)))


def small_and_seeded_spaces(seed):
    """Every labeled space on at most 4 points, then 20 seeded spaces on
    each of 8 and 9 points, closed from sparse random rows."""
    for n in range(5):
        yield from labeled_topologies(n, EnumerationBudget(max_n=n))
    rng = random.Random(seed)
    for n in (8, 9):
        for _ in range(20):
            yield random_preorder_topology(
                [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)])


def where(t, holds):
    """Bitmap of the subsets a of t with holds(t, a)."""
    return sum(1 << a for a in t.subsets() if holds(t, a))


def chunk_segments(bitmap, n, count):
    """The count segments of 2^n bits of a ClassTable bitmap, the first
    space's first."""
    mask = (1 << (1 << n)) - 1
    return [bitmap >> (k << n) & mask for k in range(count)]


# The space properties decided one subset at a time through interior and
# closure, as spaceprops did before it read interior_table: the oracles
# its predicates are checked against.
SPACE_PROPERTY_SCANS = {
    SpaceProperty.EXTREMALLY_DISCONNECTED: lambda t: all(
        t.is_open(closure(t, u)) for u in t.opens),
    SpaceProperty.SUBMAXIMAL: lambda t: all(
        t.is_open(a) for a in t.subsets() if closure(t, a) == t.full),
    SpaceProperty.PARTITION: lambda t: all(t.is_closed(u) for u in t.opens),
    SpaceProperty.HYPERCONNECTED: lambda t: all(
        closure(t, u) == t.full for u in t.opens if u != 0),
    SpaceProperty.SEMI_CONNECTED: lambda t: not any(
        is_semi_open(t, a) and is_semi_open(t, t.full ^ a)
        for a in range(1, t.full)),
}


def ic_set_subspace_by_subset(t):
    """The subspace ic-set route, one is_ic_set_subspace call per subset."""
    return where(t, is_ic_set_subspace)


def semi_closure_closed_forms(t):
    """a | int cl a per subset a, one semi_closure_closed_form call each."""
    return tuple(semi_closure_closed_form(t, a) for a in t.subsets())


def up_sets_by_scan(rows):
    """Definitional oracle: scan all 2^n masks for the preorder's up-sets.

    A set is an up-set iff it contains the whole row of each of its
    points.  Returned sorted by (popcount, value), like Topology.opens.
    """
    n = len(rows)
    found = []
    for u in range(1 << n):
        if all(rows[x] & ~u == 0 for x in iter_points(u)):
            found.append(u)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))


def preorders_by_brute_force(n):
    """Row tuples of every reflexive transitive relation on n points.

    Filters all 2^(n^2 - n) reflexive relations with the definition of
    transitivity, x <= y <= z implies x <= z, and returns them sorted.
    """
    cells = [(x, y) for x in range(n) for y in range(n) if x != y]
    found = []
    for bits in range(1 << len(cells)):
        rows = [1 << x for x in range(n)]
        for b, (x, y) in enumerate(cells):
            if bits >> b & 1:
                rows[x] |= 1 << y
        if all(
            rows[x] >> z & 1
            for x in range(n) for y in iter_points(rows[x])
            for z in iter_points(rows[y])
        ):
            found.append(tuple(rows))
    return sorted(found)


def labeled_topologies(n, budget=EnumerationBudget()):
    """Every labeled topology on n points, in canonical order, by the
    labeled preorder walk: oracle for enumerate_topologies.

    Every preorder on m points restricts to exactly one on its first
    m - 1 points, so extending every labeled preorder of size m - 1 by
    enumeration._extensions gives each one of size m once, with no
    deduplication.  Each preorder on n points is validated.  Like
    enumerate_topologies, n is refused (at the first next()) when some
    size up to n has more than max_spaces preorders; the walk stops at
    the (max_spaces + 1)-th.
    """
    level = [()]
    for _ in range(n):
        grown = chain.from_iterable(map(_extensions, level))
        level = list(islice(grown, budget.max_spaces + 1))
        if len(level) > budget.max_spaces:
            raise BudgetExceeded(
                f"more than {budget.max_spaces} topologies at n={n}")
    keys = []
    for rows in level:
        Preorder(rows).validate()
        opens = up_sets(rows)
        keys.append((len(opens), opens, rows))
    keys.sort()
    for _, opens, rows in keys:
        yield Topology(n, opens, rows)


def unfiltered_next_level(level, n):
    """{canonical rows: orbit size} of every class on n points, from the
    classes on n - 1 in level: oracle for enumeration._next_level.

    Every extension is put in canonical form, whatever the invariant of
    its new point.
    """
    tables = enumeration._relabelings(n)
    found = {}
    for rows in level:
        for extended in _extensions(rows):
            form, automorphisms = enumeration._canonical(
                extended, tables, enumeration._invariants(extended))
            found.setdefault(form, math.factorial(n) // automorphisms)
    return found


class FakePool:
    """Stands in for multiprocessing.Pool and starts no process.

    Install partial(FakePool, made) as theorems.Pool: each pool appends
    its processes argument to the list made, and imap runs the work in
    this process.
    """

    def __init__(self, made, processes=None):
        made.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def subbasis_closure(n, sets):
    """The topology generated by sets, closed under pairwise
    intersection and then pairwise union until nothing new appears:
    oracle for generate_from_subbasis."""
    full = (1 << n) - 1
    base = {full}
    frontier = set(sets)
    while frontier:
        base |= frontier
        frontier = {u & v for u in base for v in base if u & v not in base}
    opens = {0}
    frontier = set(base)
    while frontier:
        opens |= frontier
        frontier = {u | v for u in opens for v in opens if u | v not in opens}
    return build_topology(n, opens)


def build_topology_pairwise(n, opens):
    """build_topology by its pairwise scan alone: oracle for its verdict.

    Raises the same errors, naming the first pair in (popcount, value)
    order whose union or intersection is missing.
    """
    opens = list(opens)
    space._check_fits(n, opens)
    fam = space._sorted_opens(opens)
    members = frozenset(fam)
    if 0 not in members or space.full_mask(n) not in members:
        raise MissingEmptyOrFull(
            f"open family must contain 0 and {space.full_mask(n):#b}")
    for i, u in enumerate(fam):
        for v in fam[i + 1:]:
            if u | v not in members:
                raise NotClosedUnderUnion(u, v)
            if u & v not in members:
                raise NotClosedUnderIntersection(u, v)
    return Topology(n, fam, space._min_nbhd_table(n, fam))


def allow_cpus(monkeypatch, cpus):
    """Let this process run on cpus CPUs, as far as a map sweep sees."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def force_pool(monkeypatch):
    """Make every map sweep take a process pool of two workers, as a long
    sweep in a process that may run on two CPUs would."""
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(theorems, "_POOL_MIN_CALLS", 0)


def labeled_sweep_spaces(props, budget):
    """The labeled set/space traversal, oracle for the orbit sweep.

    Visits every labeled topology in budget in canonical order and keeps
    the first hit it meets.  Same signature and reports as
    theorems._sweep_spaces, so it can stand in for it.
    """
    hits = [0] * len(props)
    best = [None] * len(props)
    spaces = sets_ = 0
    exhausted = False
    try:
        for n in range(budget.max_n + 1):
            for t in labeled_topologies(n, budget):
                table = class_table(t)
                spaces += 1
                sets_ += 1 << n
                for i, p in enumerate(props):
                    got = p.evaluate(table)
                    if not got:
                        continue
                    hits[i] += got.bit_count()
                    if best[i] is None:
                        low = (got & -got).bit_length() - 1
                        subset = low if p.scope == "set" else None
                        best[i] = theorems.Witness(
                            p.id, theorems._polarity(p), t, subset=subset
                        )
    except BudgetExceeded:
        exhausted = True
    return [
        theorems._report(p, budget, spaces, sets_ if p.scope == "set" else 0,
                         0, hits[i], best[i], exhausted)
        for i, p in enumerate(props)
    ]


@cache
def _relabelings(n):
    """(perm, image of every mask under perm) for all n! permutations."""
    return [
        (perm, [sum(1 << perm[y] for y in iter_points(m)) for m in range(1 << n)])
        for perm in permutations(range(n))
    ]


def canonical_rows_by_brute_force(rows):
    """The least row tuple over all n! relabelings of a preorder."""
    n = len(rows)
    best = None
    for perm, image in _relabelings(n):
        relabeled = [0] * n
        for x, row in enumerate(rows):
            relabeled[perm[x]] = image[row]
        form = tuple(relabeled)
        if best is None or form < best:
            best = form
    return best


def labeled_preorder_count(n, budget):
    """The labeled count, oracle for enumeration.count_topologies.

    Counts the labeled preorder walk under the same budget.
    """
    return sum(1 for _ in labeled_topologies(n, budget))


def labeled_trace_table(codomain_n):
    """The labeled count, oracle for enumeration._trace_table.

    Per k <= codomain_n, {trace opens: N(ny, k, sigma) for every ny <=
    codomain_n}: (ny)_k injections of the k blocks times the labeled
    spaces on ny points whose opens trace sigma on points 0..k-1, since
    relabeling a codomain moves any image there.
    """
    table = []
    for k in range(codomain_n + 1):
        low = (1 << k) - 1
        counts = {}
        for ny in range(k, codomain_n + 1):
            for ty in labeled_topologies(ny):
                trace = frozenset(v & low for v in ty.opens)
                counts.setdefault(trace, [0] * (codomain_n + 1))
                counts[trace][ny] += math.perm(ny, k)
        table.append(counts)
    return table


def _fact_chunk(pairs):
    """Fact-word histogram of every map between the given space pairs.

    {word: [count, (domain, codomain, assignment) of its first map]},
    with words in the canonical order of their first maps.
    """
    words = {}
    for tx, ty in pairs:
        facts = _domain_facts(tx)
        for f in enumerate_maps(tx, ty):
            word = _fact_word(f, facts)
            if word in words:
                words[word][0] += 1
            else:
                words[word] = [1, (tx, ty, f.assignment)]
    return words


def _tally(histograms):
    """Merge chunk histograms, taken in canonical order, into one."""
    words = {}
    for chunk in histograms:
        for word, (count, first) in chunk.items():
            if word in words:
                words[word][0] += count
            else:
                words[word] = [count, first]
    return words


_CHUNK_PAIRS = 32


def labeled_map_histogram(budget, parallel=False, workers=None):
    """The labeled topologies per size, and the fact-word histogram of
    every labeled map in budget, pair by pair in canonical order, as
    _fact_chunk gives it (None when max_maps refuses the sweep).
    parallel runs the pairs on a Pool."""
    top = max(budget.max_n, budget.codomain_n)
    both_sides = budget._replace(max_n=top)
    topos = [list(labeled_topologies(n, both_sides))
             for n in range(top + 1)]
    sizes = list(product(range(budget.max_n + 1),
                         range(budget.codomain_n + 1)))
    total = sum(len(topos[nx]) * len(topos[ny]) * ny ** nx for nx, ny in sizes)
    if total > budget.max_maps:
        return topos, None
    pairs = (
        (tx, ty) for nx, ny in sizes for tx in topos[nx] for ty in topos[ny]
    )
    chunks = iter(lambda: list(islice(pairs, _CHUNK_PAIRS)), [])
    if parallel:
        processes = workers and min(workers, os.cpu_count() or 1)
        with Pool(processes=processes) as pool:
            return topos, _tally(pool.imap(_fact_chunk, chunks))
    return topos, _tally(map(_fact_chunk, chunks))


def labeled_sweep_maps(props, budget):
    """The labeled map traversal, oracle for the factored map sweep.

    Builds and fact-words every map between every pair of labeled spaces
    in budget.  Same signature and reports as theorems._sweep_maps, so
    it can stand in for it.
    """
    try:
        topos, words = labeled_map_histogram(budget)
    except BudgetExceeded:
        return [theorems._report(p, budget, 0, 0, 0, 0, None, True)
                for p in props]
    spaces = sum(map(len, topos))
    if words is None:
        return [theorems._report(p, budget, spaces, 0, 0, 0, None, True)
                for p in props]
    maps_ = sum(count for count, _ in words.values())
    reports = []
    for p in props:
        hit = [entry for word, entry in words.items() if p.evaluate(word)]
        best = None
        if hit:
            tx, ty, assignment = hit[0][1]
            best = theorems.Witness(p.id, theorems._polarity(p), tx,
                                    codomain=ty, assignment=assignment)
        hits = sum(count for count, _ in hit)
        reports.append(theorems._report(p, budget, spaces, 0, maps_, hits,
                                        best, False))
    return reports
