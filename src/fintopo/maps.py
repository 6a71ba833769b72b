"""Maps between finite spaces and the generalized continuity hierarchy.

Each continuity class asks that the preimages of some codomain subsets
lie in one family of the domain: those of the opens in set class c, per
the binding table below (the only per-class data), or, for strong
irresoluteness and its image form f(sCl A) in f(A), those of all subsets
in the semi-regular or the semi-closed family.  _fact_word decides every
class at once from family bitmaps and is the one evaluator; the
definitional is_continuous_in and strongly_irresolute_scl are its oracles.
"""

from enum import Enum
from itertools import product

from .errors import BudgetExceeded
from .setclasses import (SetClass, check_subset_budget, class_table,
                         is_in_class, semi_closures)
from .space import SubsetMask, Topology, _or_table

DEFAULT_MAP_BUDGET = 1 << 22


class ContinuityClass(Enum):
    CONTINUOUS = "continuous"
    SEMI_CONTINUOUS = "semi-continuous"
    BETA_CONTINUOUS = "beta-continuous"
    PRE_CONTINUOUS = "precontinuous"
    LC_CONTINUOUS = "LC-continuous"
    A_CONTINUOUS = "A-continuous"
    B_CONTINUOUS = "B-continuous"
    AB_CONTINUOUS = "AB-continuous"
    IC_CONTINUOUS = "ic-continuous"
    STRONGLY_IRRESOLUTE = "strongly-irresolute"


# preimage-of-open must land in this domain class
CONTINUITY_BINDING = {
    ContinuityClass.CONTINUOUS: SetClass.OPEN,
    ContinuityClass.SEMI_CONTINUOUS: SetClass.SEMI_OPEN,
    ContinuityClass.BETA_CONTINUOUS: SetClass.BETA_OPEN,
    ContinuityClass.PRE_CONTINUOUS: SetClass.PREOPEN,
    ContinuityClass.LC_CONTINUOUS: SetClass.LOCALLY_CLOSED,
    ContinuityClass.A_CONTINUOUS: SetClass.A_SET,
    ContinuityClass.B_CONTINUOUS: SetClass.B_SET,
    ContinuityClass.AB_CONTINUOUS: SetClass.AB_SET,
    ContinuityClass.IC_CONTINUOUS: SetClass.IC_SET,
}


class SpaceMap:
    """A total function between the ground sets of two finite spaces."""

    __slots__ = ("domain", "codomain", "assignment")

    def __init__(self, domain: Topology, codomain: Topology, assignment):
        assignment = tuple(assignment)
        if len(assignment) != domain.n:
            raise ValueError(
                f"assignment length {len(assignment)} != domain size {domain.n}"
            )
        for x, y in enumerate(assignment):
            if not 0 <= y < codomain.n:
                raise ValueError(f"assignment[{x}] = {y} outside codomain")
        self.domain = domain
        self.codomain = codomain
        self.assignment = assignment

    def __repr__(self):
        return f"SpaceMap({self.assignment!r})"

    def __eq__(self, other):
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (self.domain, self.codomain, self.assignment) == (
            other.domain, other.codomain, other.assignment
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.assignment))


def preimage(f: SpaceMap, b: SubsetMask) -> SubsetMask:
    return sum(1 << x for x, y in enumerate(f.assignment) if b >> y & 1)


def image(f: SpaceMap, a: SubsetMask) -> SubsetMask:
    acc = 0
    for x in range(f.domain.n):
        if a >> x & 1:
            acc |= 1 << f.assignment[x]
    return acc


def is_class_continuous(f: SpaceMap, c: SetClass) -> bool:
    """Preimage of every codomain open belongs to class c of the domain."""
    return all(
        is_in_class(f.domain, preimage(f, v), c) for v in f.codomain.opens
    )


def is_continuous_in(f: SpaceMap, cc: ContinuityClass) -> bool:
    if cc is ContinuityClass.STRONGLY_IRRESOLUTE:
        return is_strongly_irresolute(f)
    return is_class_continuous(f, CONTINUITY_BINDING[cc])


def is_strongly_irresolute(f: SpaceMap) -> bool:
    """Preimage of every codomain subset is semi-regular in the domain.

    This preimage form is the operative definition; the semi-closure form
    below is kept as an independent implementation.
    """
    return all(
        is_in_class(f.domain, preimage(f, b), SetClass.SEMI_REGULAR)
        for b in f.codomain.subsets()
    )


def strongly_irresolute_scl(f: SpaceMap) -> bool:
    """f(sCl A) is contained in f(A) for every domain subset A."""
    scl = semi_closures(f.domain)
    return all(image(f, s) & ~image(f, a) == 0 for a, s in enumerate(scl))


# bit of each continuity class in a fact word; _SCL_OK marks the image
# form of strong irresoluteness
_CLASS_BIT = {cc: 1 << i for i, cc in enumerate(ContinuityClass)}
_SCL_OK = 1 << len(ContinuityClass)


def _domain_facts(t: Topology):
    """What _partition_facts and _open_bits need of a map's domain t.

    (bit, family bitmap) of each class in CONTINUITY_BINDING, then the
    semi-regular and the semi-closed family bitmaps.
    """
    table = class_table(t)
    bound = [(_CLASS_BIT[cc], table.family_bitmap(sc))
             for cc, sc in CONTINUITY_BINDING.items()]
    return (bound, table.family_bitmap(SetClass.SEMI_REGULAR),
            table.family_bitmap(SetClass.SEMI_CLOSED))


def _partition_facts(assignment, k: int, facts):
    """(pre, word) of a map onto k targets, from its fibers alone.

    pre lists the preimage of every target subset, in numeric order;
    word holds the strongly-irresolute bit and _SCL_OK.  The preimages
    are the unions of fibers, and f(sCl A) lies in f(A) for all A iff all
    are semi-closed: the fibers A meets hold sCl A, and sCl B = B if B is
    a union with f(sCl B) in f(B).
    """
    _, sr, sc = facts
    fibers = [0] * k
    for x, y in enumerate(assignment):
        fibers[y] |= 1 << x
    pre = _or_table(fibers)
    word = 0
    if all(sr >> q & 1 for q in pre):
        word |= _CLASS_BIT[ContinuityClass.STRONGLY_IRRESOLUTE]
    if all(sc >> q & 1 for q in pre):
        word |= _SCL_OK
    return pre, word


def _open_bits(pre, opens, facts) -> int:
    """The bits of the classes in CONTINUITY_BINDING: c holds iff the
    preimages of the opens, as a bitmap over domain subsets, lie in c's
    family."""
    of_opens = 0
    for v in opens:
        of_opens |= 1 << pre[v]
    word = 0
    for bit, family in facts[0]:
        if of_opens & ~family == 0:
            word |= bit
    return word


def _fact_word(f: SpaceMap, facts) -> int:
    """The _CLASS_BIT of every continuity class f has, and _SCL_OK.

    The preimages of all 2^n subsets of the codomain are listed, so a
    codomain too large for a per-subset scan is refused first.
    """
    check_subset_budget(f.codomain.n)
    pre, word = _partition_facts(f.assignment, f.codomain.n, facts)
    return word | _open_bits(pre, f.codomain.opens, facts)


def continuity_profile(f: SpaceMap):
    """Verdict for every continuity class, in declaration order.

    Either side over 12 points raises GroundSetTooLarge.
    """
    word = _fact_word(f, _domain_facts(f.domain))
    return {cc: word & bit != 0 for cc, bit in _CLASS_BIT.items()}


def enumerate_maps(tx: Topology, ty: Topology):
    """All assignments from tx's points to ty's, lexicographically.

    n_x = 0 yields exactly the empty map.  Raises BudgetExceeded before
    yielding anything if ty.n ** tx.n is over DEFAULT_MAP_BUDGET.
    """
    count = ty.n ** tx.n if tx.n else 1
    if count > DEFAULT_MAP_BUDGET:
        raise BudgetExceeded(
            f"{count} maps exceed the enumeration budget of "
            f"{DEFAULT_MAP_BUDGET}"
        )
    if tx.n and ty.n == 0:
        return
    for assignment in product(range(ty.n), repeat=tx.n):
        yield SpaceMap(tx, ty, assignment)
