"""Set class membership: frozen verdicts, witnesses, and dual routes."""

import math
import os
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from fintopo import (
    ClassTable,
    EnumerationBudget,
    GroundSetTooLarge,
    SetClass,
    class_table,
    closure,
    enumerate_isomorphism_classes,
    enumerate_topologies,
    interior,
    is_in_class,
    semi_closure,
    semi_closure_closed_form,
    setclasses,
)
from fintopo.setclasses import (
    CHUNK_SUBSETS,
    PREDICATES,
    SECOND_FAMILY,
    WITNESS_FUNCTIONS,
    a_set_witness,
    ab_set_witness,
    b_set_via_semi_closure_bitmap,
    b_set_witness,
    ic_set_subspace_bitmap,
    interior_table,
    is_ab_set,
    is_b_set,
    is_b_set_via_semi_closure,
    is_ic_set_subspace,
    is_semi_regular,
    is_semi_regular_sandwich,
    locally_closed_witness,
    semi_closures,
    semi_regular_sandwich_bitmap,
)
from fintopo.spaceprops import PROPERTY_PREDICATES

from helpers import (
    SPACE_PROPERTY_SCANS,
    chunk_segments,
    discrete,
    four_point_space,
    ic_set_subspace_by_subset,
    indiscrete,
    random_preorder_topology,
    semi_closure_closed_forms,
    three_point_space,
    where,
)


def classes_of(t, a):
    return {c for c in SetClass if is_in_class(t, a, c)}


def test_four_point_bc_verdicts():
    # {b,c} is the motivating set: an AB-set that is not an A-set
    t = four_point_space()
    got = classes_of(t, 0b0110)
    assert SetClass.SEMI_OPEN in got
    assert SetClass.SEMI_CLOSED in got
    assert SetClass.SEMI_REGULAR in got
    assert SetClass.AB_SET in got
    assert SetClass.B_SET in got
    assert SetClass.BETA_OPEN in got
    assert SetClass.A_SET not in got
    assert SetClass.LOCALLY_CLOSED not in got
    assert SetClass.PREOPEN not in got
    assert SetClass.IC_SET not in got
    assert SetClass.OPEN not in got


def test_three_point_c_verdicts():
    # {c} is a B-set but not an AB-set
    t = three_point_space()
    got = classes_of(t, 0b100)
    assert SetClass.B_SET in got
    assert SetClass.SEMI_CLOSED in got
    assert SetClass.T_SET in got
    assert SetClass.AB_SET not in got
    assert SetClass.LOCALLY_CLOSED not in got
    assert SetClass.SEMI_OPEN not in got


def test_three_point_ab_verdicts():
    # {a,b} is semi-open and preopen but no kind of B-set
    t = three_point_space()
    got = classes_of(t, 0b011)
    assert SetClass.SEMI_OPEN in got
    assert SetClass.PREOPEN in got
    assert SetClass.AB_SET not in got
    assert SetClass.B_SET not in got
    assert SetClass.SEMI_CLOSED not in got
    assert SetClass.T_SET not in got


def test_beta_open_examples():
    t = three_point_space()
    assert not is_in_class(t, 0b010, SetClass.BETA_OPEN)
    assert is_in_class(t, 0b101, SetClass.BETA_OPEN)


def test_regular_families_of_three_point_space():
    t = three_point_space()
    table = class_table(t)
    assert table.family(SetClass.REGULAR_OPEN) == [0b000, 0b111]
    assert table.family(SetClass.SEMI_REGULAR) == [0b000, 0b111]


def test_locally_closed_family_of_three_point_space():
    table = class_table(three_point_space())
    assert table.family(SetClass.LOCALLY_CLOSED) == [0b000, 0b001, 0b110, 0b111]


def test_regular_closed_example():
    t = four_point_space()
    assert is_in_class(t, 0b1110, SetClass.REGULAR_CLOSED)
    assert is_in_class(t, 0b0110, SetClass.REGULAR_CLOSED) is False


def test_semi_closure_values():
    e1b = three_point_space()
    assert semi_closure(e1b, 0b001) == 0b111
    assert semi_closure(e1b, 0b100) == 0b100
    assert semi_closure(four_point_space(), 0b0010) == 0b0010


def test_empty_and_full_are_everywhere():
    for t in (three_point_space(), four_point_space(), discrete(2)):
        for cls in (
            SetClass.OPEN, SetClass.CLOSED, SetClass.CLOPEN,
            SetClass.SEMI_REGULAR, SetClass.AB_SET, SetClass.A_SET,
            SetClass.B_SET, SetClass.LOCALLY_CLOSED,
        ):
            assert is_in_class(t, 0, cls)
            assert is_in_class(t, t.full, cls)


def test_a_set_witness_is_lexicographically_first():
    t = four_point_space()
    # {b} = {b} & {b,c,d} with the open component minimal first
    assert a_set_witness(t, 0b0010) == (0b0010, 0b1110)
    assert a_set_witness(t, 0b0110) is None


def test_witness_pairs_reproduce_the_set():
    t = four_point_space()
    for a in t.subsets():
        for fn in (
            locally_closed_witness, a_set_witness,
            b_set_witness, ab_set_witness,
        ):
            got = fn(t, a)
            if got is not None:
                u, v = got
                assert t.is_open(u)
                assert u & v == a


def all_small_topologies(max_n):
    for n in range(max_n + 1):
        yield from enumerate_topologies(n)


def test_dual_routes_agree_exhaustively():
    from fintopo.setclasses import is_b_set, is_ic_set, is_semi_closed
    from fintopo.setclasses import is_semi_regular, is_t_set

    for t in all_small_topologies(3):
        for a in t.subsets():
            assert is_semi_closed(t, a) == is_t_set(t, a)
            assert is_semi_regular(t, a) == is_semi_regular_sandwich(t, a)
            assert is_b_set(t, a) == is_b_set_via_semi_closure(t, a)
            assert is_ic_set(t, a) == is_ic_set_subspace(t, a)
            assert semi_closure(t, a) == semi_closure_closed_form(t, a)


def _route_spaces():
    # every space on at most four points, and one seeded random space on
    # each of 8, 9 and 10 points; sparse seed rows keep the closed
    # preorder away from indiscrete
    rng = random.Random(3141)
    return list(all_small_topologies(4)) + [
        random_preorder_topology([
            rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            for _ in range(n)
        ])
        for n in (8, 9, 10)
    ]


def test_per_space_routes_match_definitions(monkeypatch):
    # each whole-space route against its pointwise, defining-pair or
    # subspace definition, decided one subset at a time, and each space
    # property against its scan through interior and closure; no route
    # may read the class table or its second families
    def refuse(*args):
        raise AssertionError("class table read")

    monkeypatch.setattr(setclasses, "class_table", refuse)
    monkeypatch.setattr(setclasses, "ClassTable", refuse)
    monkeypatch.setattr(setclasses, "SECOND_FAMILY", None)
    # the routes keep their last spaces: build each one under the patch
    for route in (semi_regular_sandwich_bitmap, b_set_via_semi_closure_bitmap,
                  semi_closures):
        route.cache_clear()
    tally, verdicts = Counter(), Counter()
    for t in _route_spaces():
        sandwich = semi_regular_sandwich_bitmap(t)
        assert sandwich == where(t, is_semi_regular), t
        b_sets = b_set_via_semi_closure_bitmap(t)
        assert b_sets == where(t, is_b_set), t
        ic_sets = ic_set_subspace_bitmap(t)
        assert ic_sets == ic_set_subspace_by_subset(t), t
        scl = semi_closures(t)
        assert scl == semi_closure_closed_forms(t), t
        for name, bits in (("sandwich", sandwich), ("b-set", b_sets),
                           ("ic-set", ic_sets)):
            tally[name, True] += bits.bit_count()
            tally[name, False] += (1 << t.n) - bits.bit_count()
        tally["moved"] += sum(s != a for a, s in enumerate(scl))
        for prop, scan in SPACE_PROPERTY_SCANS.items():
            verdict = PROPERTY_PREDICATES[prop](t)
            assert verdict == scan(t), (t, prop)
            verdicts[prop, verdict] += 1
    # each route answers both ways on many subsets, each property both
    # ways on several spaces
    assert len(tally) == 7 and min(tally.values()) > 300, tally
    assert len(verdicts) == 2 * len(SPACE_PROPERTY_SCANS), verdicts
    assert min(verdicts.values()) > 5, verdicts


def test_interior_table_matches_interior_and_closure():
    # every subset of every space on at most four points and of the
    # seeded random 8-12-point spaces
    for t in [*all_small_topologies(4), *_random_spaces()]:
        table = interior_table(t)
        assert table == tuple(interior(t, a) for a in t.subsets()), t
        assert tuple(t.full ^ table[t.full ^ a] for a in t.subsets()) == (
            tuple(closure(t, a) for a in t.subsets())), t
        assert class_table(t).closure_table == tuple(
            closure(t, a) for a in t.subsets()), t


class _NoData:
    """A 13-point stand-in whose opens and neighbourhoods must not be read."""

    n = 13

    def __getattr__(self, name):
        raise AssertionError(f"{name} read")


def test_interior_table_budget_guard():
    # the budget is checked before the walk reads the space and before
    # the table is allocated (8,192 entries would take 64 KiB)
    tracemalloc.start()
    try:
        with pytest.raises(GroundSetTooLarge, match=r"2\^13 subsets"):
            interior_table(_NoData())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak
    with pytest.raises(GroundSetTooLarge, match=r"2\^13 subsets"):
        interior_table(indiscrete(13))
    assert interior_table(indiscrete(12))[-1] == (1 << 12) - 1


def test_class_table_matches_predicates_exhaustively():
    for t in all_small_topologies(4):
        table = class_table(t)
        for a in t.subsets():
            for cls in SetClass:
                assert table.contains(a, cls) == PREDICATES[cls](t, a), (
                    t, a, cls,
                )


def _random_spaces():
    # one seeded space per size from 8 to 12 points; sparse seed rows keep
    # the closed preorder away from indiscrete
    rng = random.Random(2718)
    return [
        random_preorder_topology([
            rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            for _ in range(n)
        ])
        for n in range(8, 13)
    ]


def _existential_sample(rng, t):
    """A random subset, a locally closed set, an A-set and one more meet
    of an open."""
    u = rng.choice(t.opens)
    return [
        rng.getrandbits(t.n),
        u & (t.full ^ rng.choice(t.opens)),
        u & closure(t, interior(t, rng.getrandbits(t.n))),
        u & (rng.getrandbits(t.n) | interior(t, closure(t, u))),
    ]


def test_class_table_matches_predicates_on_random_spaces():
    # every subset for the pointwise classes; the existential predicates
    # scan 2^n subsets per call, so they get a seeded sample
    rng = random.Random(99)
    members = 0
    for t in _random_spaces():
        table = class_table(t)
        for a in t.subsets():
            for cls in SetClass:
                if cls not in SECOND_FAMILY:
                    assert table.contains(a, cls) == PREDICATES[cls](t, a), (
                        t, a, cls,
                    )
        for a in _existential_sample(rng, t):
            for cls in SECOND_FAMILY:
                got = table.contains(a, cls)
                assert got == PREDICATES[cls](t, a), (t, a, cls)
                members += got
    assert members > 20


def test_class_table_witness_matches_scans_on_random_spaces():
    rng = random.Random(99)
    pairs = 0
    for t in _random_spaces():
        table = class_table(t)
        for a in _existential_sample(rng, t):
            for cls, scan in WITNESS_FUNCTIONS.items():
                pair = scan(t, a)
                assert table.witness(a, cls) == pair, (t, a, cls)
                pairs += pair is not None
    assert pairs > 20


def test_class_table_witness_matches_definitional_scans():
    # every subset of every space on at most four points
    assert set(SECOND_FAMILY) == set(WITNESS_FUNCTIONS)
    for t in (t for n in range(5) for t in enumerate_topologies(n)):
        table = class_table(t)
        for a in t.subsets():
            for cls, scan in WITNESS_FUNCTIONS.items():
                assert table.witness(a, cls) == scan(t, a), (t, a, cls)


def test_class_table_interior_closure_and_scl_tables():
    t = four_point_space()
    table = class_table(t)
    for a in t.subsets():
        # int a is the complement of the closure of the complement
        assert interior(t, a) == t.full & ~table.closure_table[t.full & ~a]
        assert table.closure_table[a] == closure(t, a)


def test_family_bitmap_consistency():
    table = class_table(three_point_space())
    for cls in SetClass:
        bm = table.family_bitmap(cls)
        assert table.family(cls) == [a for a in range(8) if bm >> a & 1]


def test_classes_of_listing():
    t = indiscrete(2)
    table = class_table(t)
    for a in t.subsets():
        assert {c for c in SetClass if table.contains(a, c)} == classes_of(t, a)
    assert SetClass.AB_SET in classes_of(t, 0b11)
    assert SetClass.AB_SET not in classes_of(t, 0b01)


def test_class_table_budget_guard():
    # the cap is 2^12 subsets: 13 points are refused before any table exists
    with pytest.raises(GroundSetTooLarge, match=r"2\^13 subsets"):
        class_table(indiscrete(13))
    assert class_table(indiscrete(12)).contains(0, SetClass.OPEN)


def test_semi_closure_table_matches_definition():
    # the semi-closure planes pushed from the table's SEMI_CLOSED bitmap
    # against the fold over the family is_semi_closed finds, on every
    # space up to four points and on seeded random spaces of 8 to 11
    # points
    spaces = [t for n in range(5) for t in enumerate_topologies(n)]
    rng = random.Random(4711)
    for n in (8, 9, 10, 11):
        # sparse seed rows keep the closed preorder away from indiscrete
        seeds = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                 for _ in range(n)]
        spaces.append(random_preorder_topology(seeds))
    moved = 0
    for t in spaces:
        planes = class_table(t).semi_closure_planes
        (scl,) = _planes_per_space(planes, t.n, 1)
        assert scl == semi_closures(t), t
        moved += sum(s != a for a, s in enumerate(scl))
    assert moved > 1000


def test_class_table_answers_without_interior(monkeypatch):
    # The bitmaps and witnesses come from point planes alone.  The
    # per-subset closure table is built on first read, after the patch is
    # gone.
    rng = random.Random(1212)
    t = random_preorder_topology([
        rng.getrandbits(12) & rng.getrandbits(12) & rng.getrandbits(12)
        for _ in range(12)
    ])
    assert len(t.opens) > 40

    def refuse(*args):
        raise AssertionError("interior called")

    monkeypatch.setattr(setclasses, "interior", refuse)
    class_table.cache_clear()
    table = class_table(t)
    assert table.family(SetClass.OPEN) == sorted(t.opens)
    for cls in SetClass:
        family = table.family(cls)
        assert family == [a for a in t.subsets() if table.contains(a, cls)]
        if cls in SECOND_FAMILY:
            for a in family[::max(1, len(family) // 8)]:
                u, v = table.witness(a, cls)
                assert t.is_open(u) and u & v == a
                assert table.contains(v, SECOND_FAMILY[cls])
    monkeypatch.undo()
    assert table.closure_table == tuple(closure(t, a) for a in t.subsets())


def test_class_table_projects_existential_bitmaps_on_first_read(monkeypatch):
    # A fresh table projects the four existential bitmaps exactly once,
    # on the first read of any of them through family_bitmap, contains
    # or family, and never for a pointwise read or a witness.  A table
    # handed all 19 bitmaps never projects.
    projected = []
    project = setclasses._existential_bitmaps

    def spy(t, *args):
        projected.append(t)
        return project(t, *args)

    monkeypatch.setattr(setclasses, "_existential_bitmaps", spy)
    t = four_point_space()
    reads = (
        lambda table, cls: table.family_bitmap(cls),
        lambda table, cls: table.contains(t.full, cls),
        lambda table, cls: table.family(cls),
    )

    def read_without_projecting(table):
        for read, cls in product(reads, SetClass):
            if cls not in SECOND_FAMILY:
                read(table, cls)
        for cls in SECOND_FAMILY:
            for a in t.subsets():
                table.witness(a, cls)
        assert table.closure_table

    for first, cls in product(reads, SECOND_FAMILY):
        class_table.cache_clear()
        table = class_table(t)
        read_without_projecting(table)
        assert projected == []
        first(table, cls)
        assert projected == [(t,)]
        for other, c in product(reads, SetClass):
            other(table, c)
        assert projected == [(t,)]
        assert all(table.family_bitmap(c) == where(t, PREDICATES[c])
                   for c in SECOND_FAMILY)
        projected.clear()
    bitmaps = {c: table.family_bitmap(c) for c in SetClass}
    given = setclasses.ClassTable((t,), bitmaps)
    read_without_projecting(given)
    for read, cls in product(reads, SetClass):
        read(given, cls)
    assert projected == []


BIG = os.environ.get("FINTOPO_BIG_SWEEPS") == "1"
_ALL_SPACES = EnumerationBudget(max_n=8, max_spaces=10**9)
# 2,000 of the 35,979 classes on 8 points (OEIS A001930), drawn by this seed
_SAMPLE_SEED = 8


def _chunk_spaces(n, classes=False):
    """Every labeled space on n points (classes False), one per
    isomorphism class (True), or a seeded sample of that many classes."""
    if classes is False:
        return list(enumerate_topologies(n, _ALL_SPACES))
    found = [t for t, _ in enumerate_isomorphism_classes(n, _ALL_SPACES)]
    if classes is True:
        return found
    # the classes come in no promised order, so draw from them sorted
    found.sort(key=lambda t: t.min_nbhd)
    return random.Random(_SAMPLE_SEED).sample(found, classes)


_SIZES = [
    *((n, False) for n in range(6)),
    *(pytest.param(n, classes, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable"))
      for n, classes in ((6, False), (7, True), (8, 2000))),
]


# a level wider than this many bits is checked in the sweep's chunks
_WHOLE_LEVEL_BITS = 1 << 20


def _blocks(spaces, sizes):
    """spaces in runs whose length every size divides, so that the
    one-space tables of a run are built once for every size."""
    step = math.lcm(*sizes)
    for start in range(0, len(spaces), step):
        yield spaces[start:start + step]


@pytest.mark.parametrize("n, classes", _SIZES)
def test_chunk_bitmaps_match_one_space_tables(n, classes):
    # every one of the 19 bitmaps of a chunk of K spaces is, segment by
    # segment, that of each space's own table, for K = 1, 2, 3 and the
    # whole level (the sweep's chunk where the level is wider than
    # _WHOLE_LEVEL_BITS): so no fold mask, projection or shift reaches
    # into a neighbouring segment.  Every labeled space on at most five
    # points (opt-in: six, every class on seven, and 2,000 seeded
    # classes on eight).
    spaces = _chunk_spaces(n, classes)
    whole = len(spaces)
    if whole << n > _WHOLE_LEVEL_BITS:
        whole = CHUNK_SUBSETS >> n
    sizes = sorted({1, 2, 3, whole})
    for part in _blocks(spaces, sizes):
        want = []
        for t in part:
            table = class_table(t)
            want.append(tuple(table.family_bitmap(c) for c in SetClass))
        for size in sizes:
            for start in range(0, len(part), size):
                chunk = ClassTable(part[start:start + size])
                got = [chunk_segments(chunk.family_bitmap(c), n,
                                      len(chunk.topologies))
                       for c in SetClass]
                assert list(zip(*got)) == want[start:start + size], (
                    n, size, start)


def _planes_per_space(planes, n, count):
    """sCl a per subset a of each of count spaces, read off the planes."""
    columns = [chunk_segments(p, n, count) for p in planes]
    return [tuple(sum((column[k] >> a & 1) << x
                      for x, column in enumerate(columns))
                  for a in range(1 << n))
            for k in range(count)]


@pytest.mark.parametrize("n, classes", [
    *((n, False) for n in range(6)),
    (6, True),
    *(pytest.param(n, classes, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable"))
      for n, classes in ((6, False), (7, True), (8, 2000))),
])
def test_semi_closure_planes_match_semi_closures(n, classes):
    # the planes "x in sCl a" of a whole level (in runs of
    # _WHOLE_LEVEL_BITS where it is wider), pushed from its SEMI_CLOSED
    # bitmap, against the per-subset fold over the semi-closed family of
    # each space: every labeled space on at most five points and every
    # class on six (opt-in: every labeled space on six, every class on
    # seven, and 2,000 seeded classes on eight)
    spaces = _chunk_spaces(n, classes)
    moved = 0
    for part in _blocks(spaces, [_WHOLE_LEVEL_BITS >> n]):
        chunk = ClassTable(part)
        got = _planes_per_space(chunk.semi_closure_planes, n, len(part))
        for t, scl in zip(part, got):
            assert scl == semi_closures(t), t
            moved += sum(s != a for a, s in enumerate(scl))
    assert moved > 0 or n < 2


def test_per_subset_forms_build_their_route_once(monkeypatch):
    # semi_closure, is_b_set_via_semi_closure and is_semi_regular_sandwich
    # read whole-space routes that are kept per space: asking all 256
    # subsets of one 8-point space builds each route once
    rng = random.Random(88)
    t = random_preorder_topology([
        rng.getrandbits(8) & rng.getrandbits(8) for _ in range(8)])
    meets = []
    real = setclasses._superset_meets

    def spy(n, family):
        meets.append(n)
        return real(n, family)

    monkeypatch.setattr(setclasses, "_superset_meets", spy)
    routes = (semi_closures, b_set_via_semi_closure_bitmap,
              semi_regular_sandwich_bitmap)
    for route in routes:
        route.cache_clear()
    got = [(semi_closure(t, a), is_b_set_via_semi_closure(t, a),
            is_semi_regular_sandwich(t, a)) for a in t.subsets()]
    assert meets == [8]
    assert [route.cache_info().misses for route in routes] == [1, 1, 1]
    table = class_table(t)
    assert got == [
        (semi_closure_closed_form(t, a), table.contains(a, SetClass.B_SET),
         table.contains(a, SetClass.SEMI_REGULAR)) for a in t.subsets()]
