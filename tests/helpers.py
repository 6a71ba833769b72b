"""Shared fixture spaces, definitional oracles and a stand-in process pool.

Points are indexed a=bit0, b=bit1, c=bit2, d=bit3, so subset literals
below read right to left.
"""

from functools import cache, partial
from itertools import permutations

from fintopo import (
    BudgetExceeded,
    Preorder,
    build_topology,
    class_table,
    enumerate_topologies,
    space_profile,
    theorems,
    topology_from_preorder,
)
from fintopo.space import iter_points


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
            for t in enumerate_topologies(n, budget):
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
