"""Global properties of a finite space, decided from their definitions.

Each predicate quantifies over opens or subsets literally.  The AB-set
characterizations of these properties live in the theorem registry, which
verifies them against these definitional forms; using a characterization
here would make those checks circular.
"""

from enum import Enum

from .setclasses import interior_table
from .space import Topology


class SpaceProperty(Enum):
    EXTREMALLY_DISCONNECTED = "extremally-disconnected"
    SUBMAXIMAL = "submaximal"
    PARTITION = "partition"
    DISCRETE = "discrete"
    INDISCRETE = "indiscrete"
    HYPERCONNECTED = "hyperconnected"
    SEMI_CONNECTED = "semi-connected"


# The predicates read i = interior_table(t): a is open iff i[a] = a, and
# cl a = full ^ i[full ^ a].


def is_extremally_disconnected(t: Topology) -> bool:
    """Every open set has open closure."""
    i, full = interior_table(t), t.full
    return all(i[c] == c for c in (full ^ i[full ^ u] for u in t.opens))


def is_submaximal(t: Topology) -> bool:
    """Every dense subset is open."""
    i, full = interior_table(t), t.full
    # a is dense iff cl a = full iff int(full - a) is empty
    return all(i[a] == a for a in t.subsets() if i[full ^ a] == 0)


def is_partition(t: Topology) -> bool:
    """Every open set is closed."""
    i, full = interior_table(t), t.full
    return all(i[full ^ u] == full ^ u for u in t.opens)


def is_discrete(t: Topology) -> bool:
    return len(t.opens) == 1 << t.n


def is_indiscrete(t: Topology) -> bool:
    # n <= 1 has a single topology, both discrete and indiscrete.
    return len(t.opens) <= 2


def is_hyperconnected(t: Topology) -> bool:
    """Every nonempty open set is dense.  Vacuously true for n <= 1."""
    i, full = interior_table(t), t.full
    return all(i[full ^ u] == 0 for u in t.opens if u != 0)


def is_semi_connected(t: Topology) -> bool:
    """No split of the space into two nonempty semi-open halves.

    Vacuously true for n <= 1.  Only complementary pairs need checking:
    a disjoint semi-open cover by two sets is exactly such a pair.
    """
    i, full = interior_table(t), t.full
    # a is semi-open iff a lies in cl int a, that is, a misses the
    # complement of cl int a, which is int(full - int a)
    semi_open = [a & i[full ^ i[a]] == 0 for a in t.subsets()]
    return not any(semi_open[a] and semi_open[full ^ a]
                   for a in range(1, full))


PROPERTY_PREDICATES = {
    SpaceProperty.EXTREMALLY_DISCONNECTED: is_extremally_disconnected,
    SpaceProperty.SUBMAXIMAL: is_submaximal,
    SpaceProperty.PARTITION: is_partition,
    SpaceProperty.DISCRETE: is_discrete,
    SpaceProperty.INDISCRETE: is_indiscrete,
    SpaceProperty.HYPERCONNECTED: is_hyperconnected,
    SpaceProperty.SEMI_CONNECTED: is_semi_connected,
}


def has_property(t: Topology, prop: SpaceProperty) -> bool:
    return PROPERTY_PREDICATES[prop](t)


def space_profile(t: Topology):
    """Verdict for every property, in declaration order.

    Like interior_table, it refuses more than 12 points with
    GroundSetTooLarge.
    """
    return {prop: fn(t) for prop, fn in PROPERTY_PREDICATES.items()}
