"""Core space construction, interior/closure, and preorder round trips."""

import pickle
import random
import tracemalloc
from itertools import combinations

import pytest

from fintopo import (
    GroundSetTooLarge,
    MissingEmptyOrFull,
    NotAPreorder,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    Preorder,
    Topology,
    build_topology,
    closure,
    complement,
    enumerate_topologies_naive,
    full_mask,
    generate_from_subbasis,
    interior,
    specialization_preorder,
    topology_from_preorder,
)
from fintopo import space
from fintopo.space import iter_points

from helpers import (
    build_topology_pairwise,
    discrete,
    four_point_space,
    indiscrete,
    random_preorder_topology,
    small_and_seeded_spaces,
    subbasis_closure,
    three_point_space,
)


def test_full_mask_and_complement():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    assert complement(0b101, 3) == 0b010
    assert complement(0, 4) == 0b1111


def test_iter_points_ascending():
    assert list(iter_points(0b1011)) == [0, 1, 3]
    assert list(iter_points(0)) == []


def test_build_topology_sorts_and_dedups():
    t = build_topology(2, [0b11, 0b00, 0b01, 0b01])
    assert t.opens == (0b00, 0b01, 0b11)
    assert t.is_open(0b01)
    assert not t.is_open(0b10)
    assert t.is_closed(0b10)


def test_build_topology_requires_empty_and_full():
    with pytest.raises(MissingEmptyOrFull):
        build_topology(2, [0b01, 0b11])
    with pytest.raises(MissingEmptyOrFull):
        build_topology(2, [0b00, 0b01])


def test_build_topology_union_violation_carries_witness():
    with pytest.raises(NotClosedUnderUnion) as info:
        build_topology(3, [0b000, 0b001, 0b010, 0b111])
    assert info.value.witness == (0b001, 0b010)


def test_build_topology_intersection_violation_carries_witness():
    with pytest.raises(NotClosedUnderIntersection) as info:
        build_topology(3, [0b000, 0b011, 0b101, 0b111])
    assert info.value.witness == (0b011, 0b101)


def _verdict(build, n, family):
    """build's topology data, or its error's type, message and pair."""
    try:
        t = build(n, family)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return t.opens, t.min_nbhd


def test_build_topology_matches_pairwise_scan_exhaustively():
    # every family of masks on at most three points, in reverse order so
    # that the input order plays no part
    verdicts = set()
    for n in range(4):
        masks = range(1 << n)
        for size in range(len(masks) + 1):
            for family in combinations(masks, size):
                got = _verdict(build_topology, n, family[::-1])
                assert got == _verdict(build_topology_pairwise, n, family), (
                    n, family)
                verdicts.add(got[0] if isinstance(got[0], type) else "open")
    assert verdicts == {"open", MissingEmptyOrFull, NotClosedUnderUnion,
                        NotClosedUnderIntersection}


def test_build_topology_matches_pairwise_scan_on_random_families():
    # seeded topologies on 4-6 points, some with one open dropped or one
    # mask added, and families of random masks with 0 and the full set
    rng = random.Random(4242)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(4, 6)
        full = (1 << n) - 1
        t = random_preorder_topology([rng.getrandbits(n) for _ in range(n)])
        family = list(t.opens)
        shape = rng.randrange(4)
        if shape == 1 and len(family) > 2:
            family.remove(rng.choice(family[1:-1]))
        elif shape == 2:
            family.append(rng.getrandbits(n))
        elif shape == 3:
            family = [0, full] + [rng.getrandbits(n)
                                  for _ in range(rng.randint(1, 3 * n))]
        rng.shuffle(family)
        got = _verdict(build_topology, n, family)
        assert got == _verdict(build_topology_pairwise, n, family), (n, family)
        verdicts.add(got[0] if isinstance(got[0], type) else "open")
    assert verdicts == {"open", NotClosedUnderUnion,
                        NotClosedUnderIntersection}


def test_build_topology_refuses_32_singletons_in_bounded_memory(monkeypatch):
    # the union closure of 32 singletons has 2^32 members; it must stop
    # once it outgrows the 34 opens, and the pairwise scan name {a}, {b}
    family = [0, (1 << 32) - 1, *(1 << x for x in range(32))]
    limits = []

    def spy(rows, limit):
        closed = union_closure(rows, limit)
        limits.append((limit, closed))
        return closed

    union_closure = space._union_closure
    monkeypatch.setattr(space, "_union_closure", spy)
    tracemalloc.start()
    try:
        with pytest.raises(NotClosedUnderUnion) as info:
            build_topology(32, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.witness == (0b01, 0b10)
    assert str(info.value) == "union of opens 0b1 and 0b10 is not open"
    assert limits == [(34, None)]
    # about 2 KiB of ints and set slots per 34 members; 2^12 members of
    # the closure would take well over 100 KiB
    assert peak < 64 * 1024, peak


def test_build_topology_rejects_oversized_ground_set():
    with pytest.raises(GroundSetTooLarge):
        build_topology(33, [0])
    with pytest.raises(ValueError):
        build_topology(2, [0b100, 0b11, 0b0])


def test_topology_equality_and_hash():
    t1 = build_topology(2, [0, 1, 3])
    t2 = build_topology(2, [3, 1, 0])
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != build_topology(2, [0, 2, 3])


def test_membership_matches_the_open_family():
    # the naive filter builds every space through build_topology, not the
    # labeled stream; masks run past both ends of the ground set
    for n in range(5):
        for t in enumerate_topologies_naive(n):
            assert t.full == full_mask(n)
            copy = pickle.loads(pickle.dumps(t))
            assert copy == t and hash(copy) == hash(t)
            for a in range(-2, 1 << (n + 1)):
                opened = a in t.opens
                closed = complement(a, n) in t.opens
                assert t.is_open(a) == copy.is_open(a) == opened
                assert t.is_closed(a) == copy.is_closed(a) == closed


def test_minimal_neighbourhoods():
    t = three_point_space()
    assert t.min_nbhd == (0b001, 0b111, 0b111)


def test_interior_closure_known_values():
    e1a = four_point_space()
    # int {b,c} = {b}; cl {b} = {b,c,d}; cl {b,c} = {b,c,d}
    assert interior(e1a, 0b0110) == 0b0010
    assert closure(e1a, 0b0010) == 0b1110
    assert closure(e1a, 0b0110) == 0b1110
    e1b = three_point_space()
    # cl {a} = X; int {a,b} = {a}
    assert closure(e1b, 0b001) == 0b111
    assert interior(e1b, 0b011) == 0b001


def test_interior_is_largest_open_inside():
    for t in (four_point_space(), three_point_space(), discrete(3)):
        for a in t.subsets():
            ia = interior(t, a)
            assert t.is_open(ia) and ia & ~a == 0
            for u in t.opens:
                if u & ~a == 0:
                    assert u & ~ia == 0


def test_closure_is_smallest_closed_superset():
    t = four_point_space()
    for a in t.subsets():
        ca = closure(t, a)
        assert t.is_closed(ca) and a & ~ca == 0
        for u in t.opens:
            c = complement(u, t.n)
            if a & ~c == 0:
                assert ca & ~c == 0


def test_generate_from_subbasis():
    # {a,b} and {b,c} generate {}, {b}, {a,b}, {b,c}, X
    t = generate_from_subbasis(3, [0b011, 0b110])
    assert t.opens == (0b000, 0b010, 0b011, 0b110, 0b111)
    assert generate_from_subbasis(2, []).opens == (0b00, 0b11)


def test_generate_from_subbasis_matches_fixpoint_closure():
    rng = random.Random(7)
    for _ in range(3600):
        n = rng.randrange(9)
        sets = [rng.getrandbits(n) if n else 0 for _ in range(rng.randrange(6))]
        t = generate_from_subbasis(n, sets)
        want = subbasis_closure(n, sets)
        assert (t.opens, t.min_nbhd) == (want.opens, want.min_nbhd)


def test_preorder_validate():
    Preorder((0b01, 0b11)).validate()
    with pytest.raises(NotAPreorder, match="^relation is not reflexive at 0$"):
        Preorder((0b00, 0b11)).validate()
    with pytest.raises(NotAPreorder,
                       match="^relation is not transitive through 0 <= 1$"):
        # 0 <= 1 and 1 <= 2 but not 0 <= 2
        Preorder((0b011, 0b110, 0b100)).validate()


def test_specialization_preorder_of_known_space():
    t = three_point_space()
    p = specialization_preorder(t)
    # min nbhd of a is {a}; b and c only have X
    assert p.rows == (0b001, 0b111, 0b111)


def test_preorder_round_trip_small():
    for t in (
        four_point_space(),
        three_point_space(),
        discrete(3),
        indiscrete(3),
    ):
        assert topology_from_preorder(specialization_preorder(t)) == t


def test_columns_are_point_closures():
    # _columns transposes the rows; on minimal neighbourhoods, column y
    # is cl{y}, here taken through the interior of its complement
    for t in small_and_seeded_spaces(35):
        assert space._columns(t.min_nbhd) == [
            closure(t, 1 << y) for y in range(t.n)], t


def test_topology_from_preorder_opens_are_up_sets():
    p = Preorder((0b01, 0b11))
    t = topology_from_preorder(p)
    assert t.opens == (0b00, 0b01, 0b11)
    assert isinstance(t, Topology)
