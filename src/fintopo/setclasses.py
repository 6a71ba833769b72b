"""Membership tests for every implemented class of generalized open set.

The existential classes (locally closed, A-set, B-set, AB-set) are decided
by literal scans over the defining pairs of sets; the characterizations
relating them to the pointwise classes are verified by the theorem engine
against these scans, never substituted for them.  Where two independent
formulations of the same class exist, both are implemented and their
exhaustive agreement is a test target.
"""

from enum import Enum
from functools import lru_cache

from .errors import GroundSetTooLarge
from .space import SubsetMask, Topology, closure, complement, interior

# class_table, and the CLI's classify commands, refuse ground sets with
# more than this many subsets (more than 12 points).
DEFAULT_SUBSET_BUDGET = 1 << 12


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


# ---------------------------------------------------------------------------
# semi-closure


def semi_closure(t: Topology, a: SubsetMask) -> SubsetMask:
    """Intersection of all semi-closed supersets of a (the definition)."""
    acc = t.full
    for s in t.subsets():
        if s & a == a and is_semi_closed(t, s):
            acc &= s
    return acc


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
    closed = sorted(complement(u, t.n) for u in t.opens)
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


def b_set_via_semi_closure_witness(t: Topology, a: SubsetMask):
    """First open u with a = u & sCl(a), or None.

    Single-scan reformulation of the B-set class through the semi-closure;
    exhaustive agreement with is_b_set is a test target.
    """
    scl = semi_closure(t, a)
    for u in sorted(t.opens):
        if u & scl == a:
            return u
    return None


def is_b_set_via_semi_closure(t: Topology, a: SubsetMask) -> bool:
    return b_set_via_semi_closure_witness(t, a) is not None


def semi_regular_sandwich_witness(t: Topology, a: SubsetMask):
    """First regular open u with u <= a <= cl(u), or None.

    Sandwich reformulation of semi-regularity; exhaustive agreement with
    is_semi_regular is a test target.
    """
    for u in sorted(t.opens):
        if is_regular_open(t, u) and u & ~a == 0 and a & ~closure(t, u) == 0:
            return u
    return None


def is_semi_regular_sandwich(t: Topology, a: SubsetMask) -> bool:
    return semi_regular_sandwich_witness(t, a) is not None


# ---------------------------------------------------------------------------
# full sweep over all subsets of one space


class ClassTable:
    """Membership of every subset of a space in every set class.

    Membership is stored per class as one int bitmap over the 2^n subset
    masks: bit a of bitmap(c) says whether subset a belongs to class c.
    Interior, closure and semi-closure tables are kept because sweep
    clients need them alongside the flags.
    """

    __slots__ = ("topology", "interior_table", "closure_table",
                 "semi_closure_table", "_bitmaps")

    def __init__(self, topology, interior_table, closure_table,
                 semi_closure_table, bitmaps):
        self.topology = topology
        self.interior_table = interior_table
        self.closure_table = closure_table
        self.semi_closure_table = semi_closure_table
        self._bitmaps = bitmaps

    def contains(self, a: SubsetMask, cls: SetClass) -> bool:
        return bool(self._bitmaps[cls] >> a & 1)

    def classes_of(self, a: SubsetMask):
        return [c for c in SetClass if self.contains(a, c)]

    def family(self, cls: SetClass):
        """Masks in the class, numerically ascending."""
        bitmap = self._bitmaps[cls]
        return [a for a in self.topology.subsets() if bitmap >> a & 1]

    def family_bitmap(self, cls: SetClass) -> int:
        return self._bitmaps[cls]

    def witness(self, a: SubsetMask, cls: SetClass):
        """The *_witness pair of a in existential class cls, or None."""
        second = self.family(SECOND_FAMILY[cls])
        return _intersection_witness(self.topology, a, second)


def _family_bitmap(masks) -> int:
    bm = 0
    for m in masks:
        bm |= 1 << m
    return bm


def check_subset_budget(n: int) -> None:
    """Refuse n points, whose 2^n subsets a per-subset scan cannot afford."""
    if 1 << n > DEFAULT_SUBSET_BUDGET:
        raise GroundSetTooLarge(
            f"2^{n} subsets exceed the sweep budget of {DEFAULT_SUBSET_BUDGET}"
        )


# sweeps read each space's table for a run of consecutive instances only
@lru_cache(maxsize=8)
def class_table(t: Topology) -> ClassTable:
    """Classify all 2^n subsets of t in one sweep with memoized operators.

    The n = 0 space degenerates cleanly: its unique subset is empty and
    full at once and lands in every class.
    """
    check_subset_budget(t.n)
    size = 1 << t.n
    full = t.full
    int_t = [interior(t, a) for a in range(size)]
    cl_t = [full ^ int_t[full ^ a] for a in range(size)]

    open_bm = _family_bitmap(t.opens)
    closed = [full ^ u for u in t.opens]
    closed_bm = _family_bitmap(closed)

    semi_closed = [a for a in range(size) if int_t[cl_t[a]] & ~a == 0]
    semi_open = [a for a in range(size) if a & ~cl_t[int_t[a]] == 0]
    semi_open_bm = _family_bitmap(semi_open)
    semi_regular = [a for a in semi_closed if semi_open_bm >> a & 1]
    regular_closed = [a for a in range(size) if a == cl_t[int_t[a]]]

    # sCl a, the AND of the semi-closed supersets of a, folded point by point
    scl_t = [full] * size
    for s in semi_closed:
        scl_t[s] = s
    for x in range(t.n):
        bit = 1 << x
        for a in range(size):
            if not a & bit:
                scl_t[a] &= scl_t[a | bit]

    bitmaps = {
        SetClass.OPEN: open_bm,
        SetClass.CLOSED: closed_bm,
        SetClass.CLOPEN: open_bm & closed_bm,
        SetClass.DENSE: _family_bitmap(
            a for a in range(size) if cl_t[a] == full
        ),
        SetClass.REGULAR_OPEN: _family_bitmap(
            a for a in range(size) if a == int_t[cl_t[a]]
        ),
        SetClass.REGULAR_CLOSED: _family_bitmap(regular_closed),
        SetClass.SEMI_OPEN: semi_open_bm,
        SetClass.SEMI_CLOSED: _family_bitmap(semi_closed),
        SetClass.SEMI_REGULAR: _family_bitmap(semi_regular),
        SetClass.PREOPEN: _family_bitmap(
            a for a in range(size) if a & ~int_t[cl_t[a]] == 0
        ),
        SetClass.PRECLOSED: _family_bitmap(
            a for a in range(size) if cl_t[int_t[a]] & ~a == 0
        ),
        SetClass.BETA_OPEN: _family_bitmap(
            a for a in range(size) if a & ~cl_t[int_t[cl_t[a]]] == 0
        ),
        SetClass.BETA_CLOSED: _family_bitmap(
            a for a in range(size) if int_t[cl_t[int_t[a]]] & ~a == 0
        ),
        SetClass.IC_SET: _family_bitmap(
            a for a in range(size) if a & cl_t[int_t[a]] & ~int_t[a] == 0
        ),
        SetClass.T_SET: _family_bitmap(
            a for a in range(size) if int_t[a] == int_t[cl_t[a]]
        ),
    }
    # the members of each second family, for the existential classes
    members = {
        SetClass.CLOSED: closed,
        SetClass.REGULAR_CLOSED: regular_closed,
        SetClass.SEMI_CLOSED: semi_closed,
        SetClass.SEMI_REGULAR: semi_regular,
    }
    for cls, second in SECOND_FAMILY.items():
        family = members[second]
        bitmaps[cls] = _family_bitmap({u & v for u in t.opens for v in family})
    return ClassTable(t, tuple(int_t), tuple(cl_t), tuple(scl_t), bitmaps)


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
