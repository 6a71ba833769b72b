"""Finite topological spaces over ground sets of indexed points.

A subset of the ground set {0, .., n-1} is a plain int used as a bit
vector: bit x set means point x is in the subset.  One machine word per
subset keeps all the set algebra branch-free; named points exist only at
the document/CLI layer.
"""

import math

from .errors import (
    GroundSetTooLarge,
    MissingEmptyOrFull,
    NotAPreorder,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)

# Bit-vector subsets of the ground set.
SubsetMask = int

# Hard cap on ground-set size so masks stay one word wide.  Enumeration
# workloads target n <= 6; this is only a representation guardrail.
MAX_POINTS = 32


def full_mask(n: int) -> SubsetMask:
    """The whole ground set on n points."""
    return (1 << n) - 1


def complement(mask: SubsetMask, n: int) -> SubsetMask:
    return ~mask & full_mask(n)


def iter_points(mask: SubsetMask):
    """Indices of the points in the subset, ascending."""
    x = 0
    while mask:
        if mask & 1:
            yield x
        mask >>= 1
        x += 1


def _or_table(values) -> list:
    """Per subset a of the points, the OR of values[x] over x in a."""
    table = [0]
    for v in values:
        # the masks over the points so far: without the next, then with it
        table += [u | v for u in table]
    return table


def _submasks(mask: SubsetMask) -> int:
    """The bitmap of the subsets of mask: bit s is set iff s is inside it.

    Built by doubling on the low bits of mask: a subset holding the next
    bit b is one without it, shifted up by b.
    """
    bits = 1
    while mask:
        low = mask & -mask
        bits |= bits << low
        mask ^= low
    return bits


def _point_planes(n: int):
    """E_y per point y over the 2^n subsets a: bit a of E_y is y in a.

    Built by doubling: over twice the subsets, every plane repeats once
    and the new point's plane is the upper half.
    """
    planes = []
    for w in (1 << y for y in range(n)):
        planes = [p | p << w for p in planes] + [((1 << w) - 1) << w]
    return planes


def _check_fits(n: int, masks) -> None:
    if not 0 <= n <= MAX_POINTS:
        raise GroundSetTooLarge(f"ground set size {n} outside 0..{MAX_POINTS}")
    for m in masks:
        if m < 0 or m >> n:
            raise ValueError(f"mask {m:#b} does not fit in {n} bits")


class Topology:
    """A validated family of open subsets of {0, .., n-1}.

    `opens` is kept sorted by (popcount, value) and deduplicated, so two
    equal topologies compare equal structurally.  `min_nbhd[x]` is the
    intersection of all opens containing x, which in a finite space is
    itself the smallest open neighbourhood of x; membership in the opens
    is read from it.  Instances are immutable after construction and safe
    to share across workers.
    """

    __slots__ = ("n", "full", "opens", "min_nbhd")

    def __init__(self, n: int, opens, min_nbhd):
        self.n = n
        self.full = full_mask(n)
        self.opens = tuple(opens)
        self.min_nbhd = tuple(min_nbhd)

    def is_open(self, mask: SubsetMask) -> bool:
        # open iff equal to its interior, which has no bit outside 0..n-1
        return interior(self, mask) == mask

    def is_closed(self, mask: SubsetMask) -> bool:
        return self.is_open(complement(mask, self.n))

    def subsets(self):
        """All 2^n subset masks in numeric order."""
        return range(1 << self.n)

    def canonical_key(self):
        return (len(self.opens), self.opens)

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.n == other.n
            and self.opens == other.opens
        )

    def __hash__(self):
        return hash((self.n, self.opens))

    def __repr__(self):
        shown = ",".join(format(m, "b").zfill(max(self.n, 1)) for m in self.opens)
        return f"Topology(n={self.n}, opens=[{shown}])"


def _sorted_opens(opens) -> tuple:
    # numeric sort, then a stable sort by popcount: (popcount, value)
    # order without building a key tuple per mask
    ordered = sorted(set(opens))
    ordered.sort(key=int.bit_count)
    return tuple(ordered)


def _min_nbhd_table(n: int, opens) -> list:
    full = full_mask(n)
    table = []
    for x in range(n):
        bit = 1 << x
        acc = full
        for u in opens:
            if u & bit:
                acc &= u
        table.append(acc)
    return table


def build_topology(n: int, opens) -> Topology:
    """Validate an open family and derive the minimal-neighbourhood table.

    Input order and duplicates are irrelevant.  The rows N(x), the meets
    of the members holding x, form a preorder whose up-sets are a
    topology holding every member; the family is valid iff it is all of
    them.  Their union closure stops once it outgrows the family, and
    only a family that fails is scanned pair by pair (in a finite space
    closure under pairwise union and intersection gives closure under
    arbitrary ones), so its error names the first pair that fails.
    """
    opens = list(opens)
    _check_fits(n, opens)
    fam = _sorted_opens(opens)
    members = frozenset(fam)
    if 0 not in members or full_mask(n) not in members:
        raise MissingEmptyOrFull(f"open family must contain 0 and {full_mask(n):#b}")
    rows = _min_nbhd_table(n, fam)
    if _union_closure(rows, len(fam)) is None:
        for i, u in enumerate(fam):
            for v in fam[i + 1 :]:
                if u | v not in members:
                    raise NotClosedUnderUnion(u, v)
                if u & v not in members:
                    raise NotClosedUnderIntersection(u, v)
    return Topology(n, fam, rows)


def generate_from_subbasis(n: int, sets) -> Topology:
    """Smallest topology containing the given sets.

    In a finite space the minimal neighbourhood of x is the intersection
    of the given sets that hold x (the full set if none does), and the
    opens are the unions of minimal neighbourhoods.
    """
    sets = list(sets)
    _check_fits(n, sets)
    return build_topology(n, up_sets(_min_nbhd_table(n, sets)))


def interior(t: Topology, a: SubsetMask) -> SubsetMask:
    """Largest open subset of a: the points whose minimal neighbourhood fits."""
    res = 0
    for x in range(t.n):
        if t.min_nbhd[x] & ~a == 0:
            res |= 1 << x
    return res


def closure(t: Topology, a: SubsetMask) -> SubsetMask:
    """Smallest closed superset of a, via the complement of an interior."""
    return t.full ^ interior(t, t.full ^ a)


class Preorder:
    """Reflexive transitive relation on {0, .., n-1}, one row mask per point.

    Row x holds the mask {y : x <= y}, where x <= y is read as "x lies in
    the closure of {y}".
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.n = len(self.rows)

    def validate(self) -> None:
        rows = self.rows
        _check_fits(self.n, rows)
        for x, row in enumerate(rows):
            if not row >> x & 1:
                raise NotAPreorder(f"relation is not reflexive at {x}")
        # row x must contain the row of each of its points
        for x, row in enumerate(rows):
            for y in iter_points(row):
                if rows[y] | row != row:
                    raise NotAPreorder(
                        f"relation is not transitive through {x} <= {y}"
                    )

    def __eq__(self, other):
        return isinstance(other, Preorder) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Preorder(rows={list(self.rows)})"


def specialization_preorder(t: Topology) -> Preorder:
    """x <= y iff x lies in the closure of the singleton {y}.

    Computed from the closure operator itself, not read off min_nbhd, so
    the two routes can be checked against each other.
    """
    rows = [0] * t.n
    for y in range(t.n):
        cl = closure(t, 1 << y)
        for x in iter_points(cl):
            rows[x] |= 1 << y
    return Preorder(rows)


def _union_closure(rows, limit):
    """The set of unions of the rows, or None once it has more than limit."""
    family = {0}
    for row in rows:
        if row not in family:
            family |= {u | row for u in family}
            if len(family) > limit:
                return None
    return family


def up_sets(rows) -> tuple:
    """The up-sets of the preorder with these rows, sorted like opens.

    Row x is the smallest up-set containing x, so every up-set is the
    union of the rows of its points: the family is the union-closure of
    the rows.  The rows are not validated here.
    """
    return _sorted_opens(_union_closure(rows, math.inf))


def topology_from_preorder(p: Preorder) -> Topology:
    """The topology whose opens are the up-sets of the preorder.

    A set is open iff it contains the whole row of each of its points.
    Inverse of specialization_preorder: the round trip through both is the
    identity on finite topologies.
    """
    p.validate()
    # rows double as the minimal neighbourhoods: row x is the smallest
    # up-set containing x.
    return Topology(p.n, up_sets(p.rows), p.rows)
