"""Shared fixture spaces, definitional oracles and a stand-in process pool.

labeled_topologies is the labeled preorder walk, the independent oracle
for the class generator that enumerate_topologies and every sweep read;
the labeled_* traversals below are built on it.

Points are indexed a=bit0, b=bit1, c=bit2, d=bit3, so subset literals
below read right to left.
"""

import math
import os
from dataclasses import replace
from functools import cache, partial
from itertools import chain, islice, permutations, product
from multiprocessing import Pool

from fintopo import (
    BudgetExceeded,
    EnumerationBudget,
    Preorder,
    Topology,
    build_topology,
    class_table,
    enumerate_maps,
    space_profile,
    theorems,
    topology_from_preorder,
)
from fintopo.enumeration import _extensions
from fintopo.maps import _domain_facts, _fact_word
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
                profile = cache(partial(space_profile, t))
                spaces += 1
                sets_ += 1 << n
                for i, p in enumerate(props):
                    got = p.evaluate(table, profile)
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
    """The labeled count, oracle for theorems._trace_table.

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
    both_sides = replace(budget, max_n=top)
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
