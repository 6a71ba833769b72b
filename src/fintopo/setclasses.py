"""Membership tests for every implemented class of generalized open set.

The existential classes (locally closed, A-set, B-set, AB-set) are decided
by literal scans over the defining pairs of sets; the characterizations
relating them to the pointwise classes are verified by the theorem engine
against these scans, never substituted for them.  Where two independent
formulations of the same class exist, both are implemented and their
exhaustive agreement is a test target.
"""

from collections import Counter
from enum import Enum
from functools import cache, cached_property, lru_cache, reduce, wraps
from operator import and_, or_

from .errors import GroundSetTooLarge
from .space import (SubsetMask, Topology, _columns, _or_table,
                    _point_planes, _submasks, closure, interior,
                    iter_points)

# class_table, and the CLI's classify commands, refuse ground sets with
# more than this many subsets (more than 12 points).
DEFAULT_SUBSET_BUDGET = 1 << 12

# subsets per sweep chunk, over all of its spaces: the sweep's class
# tables hold 2^15 >> n spaces on n points, and interior_table keeps the
# tables of that many subsets
CHUNK_SUBSETS = 1 << 15


@cache
def _planes(n: int):
    """_point_planes(n), kept per size: every table and route of n points
    reads them, and none of them is asked past the subset budget."""
    return tuple(_point_planes(n))


class SetClass(Enum):
    OPEN = "open"
    CLOSED = "closed"
    CLOPEN = "clopen"
    DENSE = "dense"
    REGULAR_OPEN = "regular-open"
    REGULAR_CLOSED = "regular-closed"
    SEMI_OPEN = "semi-open"
    SEMI_CLOSED = "semi-closed"
    SEMI_REGULAR = "semi-regular"
    PREOPEN = "preopen"
    PRECLOSED = "preclosed"
    BETA_OPEN = "beta-open"
    BETA_CLOSED = "beta-closed"
    LOCALLY_CLOSED = "locally-closed"
    A_SET = "A-set"
    B_SET = "B-set"
    AB_SET = "AB-set"
    IC_SET = "ic-set"
    T_SET = "t-set"


# Each existential class holds the sets u & v with u open and v in its
# second family.  The literal *_witness scans below spell out the same
# families on their own, so that they stay independent oracles.
SECOND_FAMILY = {
    SetClass.LOCALLY_CLOSED: SetClass.CLOSED,
    SetClass.A_SET: SetClass.REGULAR_CLOSED,
    SetClass.B_SET: SetClass.SEMI_CLOSED,
    SetClass.AB_SET: SetClass.SEMI_REGULAR,
}


# ---------------------------------------------------------------------------
# pointwise classes: one interior/closure formula each


def is_open(t: Topology, a: SubsetMask) -> bool:
    return t.is_open(a)


def is_closed(t: Topology, a: SubsetMask) -> bool:
    return t.is_closed(a)


def is_clopen(t: Topology, a: SubsetMask) -> bool:
    return t.is_open(a) and t.is_closed(a)


def is_dense(t: Topology, a: SubsetMask) -> bool:
    return closure(t, a) == t.full


def is_regular_open(t: Topology, a: SubsetMask) -> bool:
    return a == interior(t, closure(t, a))


def is_regular_closed(t: Topology, a: SubsetMask) -> bool:
    return a == closure(t, interior(t, a))


def is_semi_open(t: Topology, a: SubsetMask) -> bool:
    """a is contained in the closure of its interior."""
    return a & ~closure(t, interior(t, a)) == 0


def is_semi_closed(t: Topology, a: SubsetMask) -> bool:
    """The interior of the closure of a stays inside a."""
    return interior(t, closure(t, a)) & ~a == 0


def is_t_set(t: Topology, a: SubsetMask) -> bool:
    """int a = int cl a.

    Provably the same class as semi-closed; implemented from its own
    equation so the equivalence stays checkable.
    """
    return interior(t, a) == interior(t, closure(t, a))


def is_semi_regular(t: Topology, a: SubsetMask) -> bool:
    return is_semi_open(t, a) and is_semi_closed(t, a)


def is_preopen(t: Topology, a: SubsetMask) -> bool:
    return a & ~interior(t, closure(t, a)) == 0


def is_preclosed(t: Topology, a: SubsetMask) -> bool:
    return closure(t, interior(t, a)) & ~a == 0


def is_beta_open(t: Topology, a: SubsetMask) -> bool:
    return a & ~closure(t, interior(t, closure(t, a))) == 0


def is_beta_closed(t: Topology, a: SubsetMask) -> bool:
    return interior(t, closure(t, interior(t, a))) & ~a == 0


def is_ic_set(t: Topology, a: SubsetMask) -> bool:
    """The interior of a is closed in a (closed form over the ambient space)."""
    return a & closure(t, interior(t, a)) & ~interior(t, a) == 0


def is_ic_set_subspace(t: Topology, a: SubsetMask) -> bool:
    """ic-set decided inside the actual subspace topology on a.

    Independent route: build the relative opens {u & a}, take the relative
    closure of int(a), and compare.  Must agree with is_ic_set everywhere.
    """
    ia = interior(t, a)
    rel_closed = [a & ~(u & a) for u in t.opens]
    acc = a
    for c in rel_closed:
        if ia & ~c == 0:
            acc &= c
    return acc == ia


def ic_set_subspace_bitmap(t: Topology) -> int:
    """Bitmap of the subsets a that is_ic_set_subspace accepts.

    The relative closed sets a - u over int a are those whose open u
    misses int a, so the relative closure of int a in a is a less the
    union of the opens missing int a.  The union of the opens missing w
    is the largest open inside full - w: it is open and inside full - w,
    and it holds every open inside full - w.  So it is int(full - w),
    read off interior_table like int a.
    """
    i, full = interior_table(t), t.full
    return sum(1 << a for a in t.subsets() if a & ~i[full ^ i[a]] == i[a])


# ---------------------------------------------------------------------------
# semi-closure


def _superset_meets(n: int, family):
    """Per subset a of n points, the AND of family's members over a."""
    meet = [(1 << n) - 1] * (1 << n)
    for s in family:
        meet[s] = s
    for bit in (1 << x for x in range(n)):
        for a in range(len(meet)):
            meet[a] &= meet[a | bit]
    return tuple(meet)


def _cache_by_subsets(build):
    """build(t) for the spaces built last, kept while their tables hold
    at most CHUNK_SUBSETS entries in all; cache_clear empties it."""
    tables, held = {}, [0]

    @wraps(build)
    def cached(t):
        table = tables.get(t)
        if table is None:
            table = tables[t] = build(t)
            held[0] += len(table)
            while held[0] > CHUNK_SUBSETS:
                held[0] -= len(tables.pop(next(iter(tables))))
        return table

    def cache_clear():
        tables.clear()
        held[0] = 0

    cached.cache_clear = cache_clear
    return cached


# every route and space property of a space reads the same table, and a
# sweep asks each of them of every space of a chunk in turn
@_cache_by_subsets
def interior_table(t: Topology):
    """int a for every subset a, as a tuple whose entry a is int a.

    Closure distributes over unions, so cl a is the OR of the columns
    cl{y} over y in a, where x is in cl{y} iff y is in N(x) =
    min_nbhd[x]: one union table.  The interior is the dual, int a =
    full ^ cl(full ^ a), and full ^ a runs down as a runs up.  The table
    reads neither class_table nor its planes, so the routes built on it
    stay independent of the table they check.
    """
    check_subset_budget(t.n)
    full = t.full
    return tuple([full ^ c
                  for c in reversed(_or_table(_columns(t.min_nbhd)))])


def _semi_closed_sets(t: Topology):
    """The subsets s with int cl s inside s, read off interior_table, in
    ascending order."""
    i, full = interior_table(t), t.full
    return (s for s in t.subsets() if i[full ^ i[full ^ s]] & ~s == 0)


def _semi_closure_planes(semi_closed: int, planes, ones: int):
    """Per point x, the plane of "x in sCl a" over the subsets a.

    semi_closed is a bitmap over the subsets of the point planes planes,
    and ones covers them.  x misses sCl a iff a semi-closed superset of
    a misses x: the semi-closed sets that miss x, pushed down one point
    y at a time (a set holding y also stands for itself less y), cover
    exactly the a with such a superset, and the rest is the plane.
    """
    out = []
    for e in planes:
        below = semi_closed & ~e
        for y, f in enumerate(planes):
            below |= (below & f) >> (1 << y)
        out.append(ones ^ below)
    return out


# per-subset callers ask one space many times
@lru_cache(maxsize=8)
def semi_closures(t: Topology):
    """sCl a for every subset a, over the semi-closed family."""
    return _superset_meets(t.n, _semi_closed_sets(t))


def semi_closure(t: Topology, a: SubsetMask) -> SubsetMask:
    """Intersection of all semi-closed supersets of a (the definition)."""
    return semi_closures(t)[a]


def semi_closure_closed_form(t: Topology, a: SubsetMask) -> SubsetMask:
    """a together with the interior of its closure.

    Parallel implementation; exhaustive agreement with semi_closure is a
    test target, and semi_closure stays the operative definition.
    """
    return a | interior(t, closure(t, a))


# ---------------------------------------------------------------------------
# existential classes: scans over defining pairs, smallest witness first


def _intersection_witness(t: Topology, a: SubsetMask, second_family):
    """First (open, member-of-family) pair whose intersection is a.

    Pairs are ordered by numeric value of the open, then of the second
    component, so reports are deterministic.
    """
    for u in sorted(t.opens):
        for v in second_family:
            if u & v == a:
                return (u, v)
    return None


def locally_closed_witness(t: Topology, a: SubsetMask):
    closed = sorted(t.full ^ u for u in t.opens)
    return _intersection_witness(t, a, closed)


def is_locally_closed(t: Topology, a: SubsetMask) -> bool:
    return locally_closed_witness(t, a) is not None


def a_set_witness(t: Topology, a: SubsetMask):
    regular_closed = [v for v in t.subsets() if is_regular_closed(t, v)]
    return _intersection_witness(t, a, regular_closed)


def is_a_set(t: Topology, a: SubsetMask) -> bool:
    return a_set_witness(t, a) is not None


def b_set_witness(t: Topology, a: SubsetMask):
    semi_closed = [v for v in t.subsets() if is_semi_closed(t, v)]
    return _intersection_witness(t, a, semi_closed)


def is_b_set(t: Topology, a: SubsetMask) -> bool:
    return b_set_witness(t, a) is not None


def ab_set_witness(t: Topology, a: SubsetMask):
    semi_regular = [v for v in t.subsets() if is_semi_regular(t, v)]
    return _intersection_witness(t, a, semi_regular)


def is_ab_set(t: Topology, a: SubsetMask) -> bool:
    """a = (open) intersect (semi-regular), by direct scan.

    This is the ground-truth form; the semi-open/B-set characterization is
    verified against it by the theorem engine.
    """
    return ab_set_witness(t, a) is not None


@lru_cache(maxsize=8)
def b_set_via_semi_closure_bitmap(t: Topology) -> int:
    """Bitmap of the subsets a with a = u & sCl(a) for some open u.

    Single-scan reformulation of the B-set class through the semi-closure;
    exhaustive agreement with is_b_set is a test target.  Such a u holds
    a, so it holds the smallest open U(a) over a too, and U(a) & sCl(a)
    lies between a and u & sCl(a): U(a) is the one open to try.  On
    point planes, x is in U(a) iff a meets the points y with x in N(y),
    column x, that is iff a is no subset of the rest, and sCl a comes
    from the semi-closed sets of interior_table.
    """
    semi_closed = sum(1 << s for s in _semi_closed_sets(t))
    e, ones = _planes(t.n), (1 << (1 << t.n)) - 1
    scl = _semi_closure_planes(semi_closed, e, ones)
    smallest = [ones ^ _submasks(t.full ^ column)
                for column in _columns(t.min_nbhd)]
    return reduce(and_, [~(e[x] ^ (smallest[x] & scl[x]))
                         for x in range(t.n)], ones)


def is_b_set_via_semi_closure(t: Topology, a: SubsetMask) -> bool:
    """Reads b_set_via_semi_closure_bitmap, which is kept for the last
    few spaces asked."""
    return bool(b_set_via_semi_closure_bitmap(t) >> a & 1)


@lru_cache(maxsize=8)
def semi_regular_sandwich_bitmap(t: Topology) -> int:
    """Bitmap of the subsets a with u <= a <= cl(u) for a regular open u.

    Sandwich reformulation of semi-regularity, an OR of the intervals
    [u, cl u]; exhaustive agreement with is_semi_regular is a test target.
    u is regular open iff u = int cl u, and cl u is full - int(full - u).
    The interval holds the sets u + s for the subsets s of cl u - u, so
    its bitmap is theirs shifted up by u.
    """
    i, full = interior_table(t), t.full
    return reduce(or_, [_submasks(full ^ i[full ^ u] ^ u) << u
                        for u in t.opens if i[full ^ i[full ^ u]] == u], 0)


def is_semi_regular_sandwich(t: Topology, a: SubsetMask) -> bool:
    """Reads semi_regular_sandwich_bitmap, which is kept for the last
    few spaces asked."""
    return bool(semi_regular_sandwich_bitmap(t) >> a & 1)


# ---------------------------------------------------------------------------
# full sweep over all subsets of some spaces: bitmap formulas over point planes


class ClassTable:
    """Membership of every subset of some spaces in every set class.

    The spaces share one size n and sit side by side: per class, one int
    bitmap whose segment k, 2^n bits from bit k * 2^n on, is space k's
    bitmap over its 2^n subset masks, so bit k * 2^n + a says whether
    subset a of space k is in the class.  class_table(t) is the table of
    t alone, whose one segment is the whole bitmap.  `bitmaps`, folded
    from the point planes unless given, maps at least every pointwise
    class to its bitmap; family_bitmap projects the four existential
    bitmaps into it on the first read of any of them, which witness
    never makes.

    The point planes repeat in every segment, and the planes of "x in
    int a" and "x in cl a" fold them over the neighbourhoods of x, with
    each plane of a point y kept to the segments of the spaces whose
    N(x) holds y: so every formula on planes runs on all segments at
    once and never carries a bit from one segment into another.
    contains, family, witness and the per-subset closure table read a
    single space's table; the others read every segment.
    """

    def __init__(self, topologies, bitmaps=None):
        self.topologies = tuple(topologies)
        n = self.n = self.topologies[0].n
        check_subset_budget(n)
        self._width = 1 << n
        self._segment = (1 << self._width) - 1
        self.ones = (1 << (len(self.topologies) << n)) - 1
        # bit 0 of every segment: the empty subset of every space
        self.starts = self.ones // self._segment
        self.point_planes = [e * self.starts for e in _planes(n)]
        self._nbhd = self._neighbourhoods()
        if bitmaps is None:
            bitmaps = self.pointwise(self.point_planes)
        self._bitmaps = bitmaps

    def _neighbourhoods(self):
        """Per point x: the points y in N(x) of every space, then (y, keep)
        and (y, ~keep) for each y in N(x) of some spaces only, where keep
        masks the segments of the spaces whose N(x) holds y.  A single
        space's folds AND and OR its planes alone.
        """
        out = []
        for rows in zip(*[t.min_nbhd for t in self.topologies]):
            every = reduce(and_, rows)
            keeps = drops = ()
            for y in iter_points(reduce(or_, rows) ^ every):
                keep = self.spread(self.where([r >> y & 1 for r in rows]))
                keeps += ((y, keep),)
                drops += ((y, ~keep),)
            out.append((list(iter_points(every)), keeps, drops))
        return out

    # -- planes: one plane per point, bit a of a plane per subset a

    def interiors(self, planes):
        """Per x, the plane of "x in int b", where x is in b(a) iff bit a
        of planes[x] is set: the AND of planes[y] over y in N(x)."""
        out = []
        for every, _, drops in self._nbhd:
            plane = reduce(and_, [planes[y] for y in every])
            for y, drop in drops:
                plane &= planes[y] | drop
            out.append(plane)
        return out

    def closures(self, planes):
        """Per x, the plane of "x in cl b": the OR of planes[y] over y
        in N(x)."""
        out = []
        for every, keeps, _ in self._nbhd:
            plane = reduce(or_, [planes[y] for y in every])
            for y, keep in keeps:
                plane |= planes[y] & keep
            out.append(plane)
        return out

    def pointwise(self, planes) -> dict:
        """Per pointwise class, the subsets a whose set b(a) is in it.

        x is in b(a) iff bit a of planes[x] is set, so on the point
        planes b(a) is a itself.  A pointwise class is an AND over x of
        one condition on the planes of b and its interiors and closures.
        """
        e, ones, points = planes, self.ones, range(self.n)
        # x in int b, cl b, int cl b, cl int b, cl int cl b, int cl int b
        i, c = self.interiors(e), self.closures(e)
        ic, ci = self.interiors(c), self.closures(i)
        cic, ici = self.closures(ic), self.interiors(ci)

        def every(cond):
            return reduce(and_, map(cond, points), ones)

        bitmaps = {
            SetClass.OPEN: every(lambda x: ~e[x] | i[x]),
            SetClass.CLOSED: every(lambda x: ~c[x] | e[x]),
            SetClass.DENSE: every(lambda x: c[x]),
            SetClass.REGULAR_OPEN: every(lambda x: ~(e[x] ^ ic[x])),
            SetClass.REGULAR_CLOSED: every(lambda x: ~(e[x] ^ ci[x])),
            SetClass.SEMI_OPEN: every(lambda x: ~e[x] | ci[x]),
            SetClass.SEMI_CLOSED: every(lambda x: ~ic[x] | e[x]),
            SetClass.PREOPEN: every(lambda x: ~e[x] | ic[x]),
            SetClass.PRECLOSED: every(lambda x: ~ci[x] | e[x]),
            SetClass.BETA_OPEN: every(lambda x: ~e[x] | cic[x]),
            SetClass.BETA_CLOSED: every(lambda x: ~ici[x] | e[x]),
            SetClass.IC_SET: every(lambda x: ~(e[x] & ci[x] & ~i[x])),
            SetClass.T_SET: every(lambda x: ~(i[x] ^ ic[x])),
        }
        bitmaps[SetClass.CLOPEN] = (bitmaps[SetClass.OPEN]
                                    & bitmaps[SetClass.CLOSED])
        bitmaps[SetClass.SEMI_REGULAR] = (bitmaps[SetClass.SEMI_OPEN]
                                          & bitmaps[SetClass.SEMI_CLOSED])
        return bitmaps

    @cached_property
    def semi_closure_planes(self):
        """Per x, the plane of "x in sCl a", from the SEMI_CLOSED bitmap."""
        return _semi_closure_planes(self.family_bitmap(SetClass.SEMI_CLOSED),
                                    self.point_planes, self.ones)

    # -- bitmaps

    def family_bitmap(self, cls: SetClass) -> int:
        try:
            return self._bitmaps[cls]
        except KeyError:
            if cls not in SECOND_FAMILY:
                raise
        self._bitmaps.update(_existential_bitmaps(
            self.topologies, self.point_planes, self._bitmaps, self.starts))
        return self._bitmaps[cls]

    # -- segments

    def where(self, flags) -> int:
        """The segment starts of the spaces whose flag is true."""
        one, zero = "1".rjust(self._width, "0"), "0" * self._width
        return int("".join(one if f else zero for f in flags[::-1]), 2)

    def spread(self, starts) -> int:
        """starts with each segment start widened to its whole segment."""
        return starts * self._segment

    def fill(self, pattern: int) -> int:
        """pattern, a bitmap over 2^n subsets, in every segment."""
        return pattern * self.starts

    def empty(self, bitmap: int) -> int:
        """The segment starts of the spaces where bitmap has no bit.

        Adding the low bits of a segment to all ones carries into its top
        bit iff one of them is set.
        """
        top = self._width - 1
        low = self.fill((1 << top) - 1)
        bitmap &= self.ones
        return self.starts ^ (((bitmap & low) + low | bitmap)
                              >> top & self.starts)

    def mirror(self, bitmap: int) -> int:
        """bitmap with bit full - a of each segment moved to bit a."""
        for y, e in enumerate(self.point_planes):
            bitmap = (bitmap & e) >> (1 << y) | (bitmap & ~e) << (1 << y)
        return bitmap

    def per_space(self, route) -> int:
        """route(t), a bitmap over the subsets of t, in the segment of
        every space t."""
        width = self._width
        return int("".join(format(route(t), f"0{width}b")
                           for t in self.topologies[::-1]), 2)

    def spaces(self, starts: int):
        """The spaces whose segment start is set in starts."""
        flags = format(starts, "b")[::-1][::self._width]
        return [t for t, f in zip(self.topologies, flags) if f == "1"]

    # -- a single space

    @property
    def topology(self):
        """The space of a one-space table."""
        (t,) = self.topologies
        return t

    def contains(self, a: SubsetMask, cls: SetClass) -> bool:
        return bool(self.family_bitmap(cls) >> a & 1)

    def family(self, cls: SetClass):
        """Masks in the class, numerically ascending."""
        bits = bin(self.family_bitmap(cls))[:1:-1]
        return [a for a, bit in enumerate(bits) if bit == "1"]

    def witness(self, a: SubsetMask, cls: SetClass):
        """The *_witness pair of a in existential class cls, or None.

        u & v = a iff a lies in u and v and v misses u - a, so any pair's u
        shrinks to the smallest open over a, the first u in numeric order.
        """
        t, e = self.topology, self.point_planes
        u = reduce(or_, [t.min_nbhd[x] for x in iter_points(a)], 0)
        v = reduce(and_, [e[y] for y in iter_points(a)]
                   + [~e[y] for y in iter_points(u ^ a)],
                   self.family_bitmap(SECOND_FAMILY[cls]))
        return (u, (v & -v).bit_length() - 1) if v else None

    @cached_property
    def closure_table(self):
        # cl a = full ^ I[full ^ a], and full ^ a runs down as a runs up
        full = self.topology.full
        return tuple(full ^ i for i in reversed(interior_table(self.topology)))


def check_subset_budget(n: int) -> None:
    """Refuse n points, whose 2^n subsets a per-subset scan cannot afford."""
    if 1 << n > DEFAULT_SUBSET_BUDGET:
        raise GroundSetTooLarge(
            f"2^{n} subsets exceed the sweep budget of {DEFAULT_SUBSET_BUDGET}"
        )


# the set/space sweeps build their own tables and never call this; it
# serves classify-set, each map domain's facts, a witness search or
# replay that reads a domain again, and perfbench's tracer (cache_info)
@lru_cache(maxsize=8)
def class_table(t: Topology) -> ClassTable:
    """Classify all 2^n subsets of t with whole-bitmap int operations.

    x is in int a iff N(x) = min_nbhd[x] lies in a, and in cl a iff N(x)
    meets a: so the plane of "x in int a" is the AND of the point planes
    E_y over N(x), that of "x in cl a" their OR.  A pointwise class is an
    AND over x of one condition on such planes.  The existential
    bitmaps are projected from their second families on the first read
    of any of them.  The n = 0 space's one subset is empty and full at
    once, and in every class.
    """
    return ClassTable((t,))


def _existential_bitmaps(topologies, e, bitmaps, starts) -> dict:
    """The four existential bitmaps, from their second families' bitmaps.

    An existential class ORs its second family projected onto each open
    u: off[s] drops the points y of s = full - u, moving the members
    holding y down by 2^y, from off[s less its highest point].  Each
    projection is kept to the segments of the spaces in which s is
    closed, read off the CLOSED bitmap, unless s is closed in all.
    """
    n = topologies[0].n
    full = (1 << n) - 1
    closed = Counter(full ^ u for t in topologies for u in t.opens)
    steps = sorted({s & ((2 << y) - 1)
                    for s in closed for y in range(n) if s >> y & 1})
    segment = (1 << (1 << n)) - 1
    kept = {s: (bitmaps[SetClass.CLOSED] >> s & starts) * segment
            for s, count in closed.items() if count < len(topologies)}
    out = {}
    for cls, second in SECOND_FAMILY.items():
        off = {0: bitmaps[second]}
        for s in steps:
            y = s.bit_length() - 1
            g = off[s ^ 1 << y]
            off[s] = (g & ~e[y]) | ((g & e[y]) >> (1 << y))
        out[cls] = reduce(or_, [off[s] & kept[s] if s in kept else off[s]
                                for s in closed])
    return out


# single-subset dispatch: the oracles class_table is checked against
PREDICATES = {
    SetClass.OPEN: is_open,
    SetClass.CLOSED: is_closed,
    SetClass.CLOPEN: is_clopen,
    SetClass.DENSE: is_dense,
    SetClass.REGULAR_OPEN: is_regular_open,
    SetClass.REGULAR_CLOSED: is_regular_closed,
    SetClass.SEMI_OPEN: is_semi_open,
    SetClass.SEMI_CLOSED: is_semi_closed,
    SetClass.SEMI_REGULAR: is_semi_regular,
    SetClass.PREOPEN: is_preopen,
    SetClass.PRECLOSED: is_preclosed,
    SetClass.BETA_OPEN: is_beta_open,
    SetClass.BETA_CLOSED: is_beta_closed,
    SetClass.LOCALLY_CLOSED: is_locally_closed,
    SetClass.A_SET: is_a_set,
    SetClass.B_SET: is_b_set,
    SetClass.AB_SET: is_ab_set,
    SetClass.IC_SET: is_ic_set,
    SetClass.T_SET: is_t_set,
}


def is_in_class(t: Topology, a: SubsetMask, cls: SetClass) -> bool:
    return PREDICATES[cls](t, a)


# the defining-pair scan of each existential class, one subset at a time
WITNESS_FUNCTIONS = {
    SetClass.LOCALLY_CLOSED: locally_closed_witness,
    SetClass.A_SET: a_set_witness,
    SetClass.B_SET: b_set_witness,
    SetClass.AB_SET: ab_set_witness,
}
