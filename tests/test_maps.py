"""Map construction, preimages, and the continuity hierarchy."""

import pytest

from fintopo import (
    CONTINUITY_BINDING,
    BudgetExceeded,
    ContinuityClass,
    GroundSetTooLarge,
    SetClass,
    SpaceMap,
    continuity_profile,
    enumerate_maps,
    image,
    is_class_continuous,
    is_continuous_in,
    is_strongly_irresolute,
    preimage,
    strongly_irresolute_scl,
)

from helpers import discrete, four_point_space, indiscrete, sierpinski, three_point_space


def identity(t):
    return SpaceMap(t, t, range(t.n))


def test_spacemap_validation():
    t = sierpinski()
    with pytest.raises(ValueError):
        SpaceMap(t, t, (0,))
    with pytest.raises(ValueError):
        SpaceMap(t, t, (0, 2))
    f = SpaceMap(t, t, (1, 1))
    assert [preimage(f, 1 << y) for y in range(t.n)] == [0b00, 0b11]


def test_preimage_and_image():
    f = SpaceMap(three_point_space(), sierpinski(), (0, 1, 1))
    assert preimage(f, 0b01) == 0b001
    assert preimage(f, 0b10) == 0b110
    assert preimage(f, 0b11) == 0b111
    assert image(f, 0b001) == 0b01
    assert image(f, 0b110) == 0b10
    assert image(f, 0b000) == 0b00


def test_identity_is_continuous_in_every_class():
    for t in (three_point_space(), four_point_space(), discrete(2)):
        f = identity(t)
        for cls in (SetClass.OPEN, SetClass.AB_SET, SetClass.B_SET):
            assert is_class_continuous(f, cls)


def test_constant_maps_are_continuous_everywhere():
    dom = four_point_space()
    cod = sierpinski()
    for target in range(cod.n):
        f = SpaceMap(dom, cod, [target] * dom.n)
        for cc in ContinuityClass:
            assert is_continuous_in(f, cc)


def test_known_map_is_ab_continuous():
    # a -> a, b -> b, c -> b into the two-point space with {a} open
    f = SpaceMap(three_point_space(), sierpinski(), (0, 1, 1))
    assert is_continuous_in(f, ContinuityClass.AB_CONTINUOUS)
    assert is_continuous_in(f, ContinuityClass.CONTINUOUS)
    assert not is_strongly_irresolute(f)


def test_identity_on_three_point_space_not_strongly_irresolute():
    f = identity(three_point_space())
    # the preimage of {c} is {c}, which is not semi-regular there
    assert not is_strongly_irresolute(f)


def test_strongly_irresolute_on_discrete_identity():
    f = identity(discrete(3))
    assert is_strongly_irresolute(f)
    assert strongly_irresolute_scl(f)


def test_scl_form_fails_on_indiscrete_identity():
    # sCl {a} is the whole space under the trivial topology
    f = identity(indiscrete(2))
    assert not strongly_irresolute_scl(f)
    assert not is_strongly_irresolute(f)


def test_continuity_profile_lists_every_class():
    f = identity(sierpinski())
    profile = continuity_profile(f)
    assert set(profile) == set(ContinuityClass)
    assert profile[ContinuityClass.CONTINUOUS] is True


def test_continuity_profile_refuses_a_thirteen_point_codomain():
    # the fact word lists the preimage of all 2^n codomain subsets
    f = SpaceMap(sierpinski(), indiscrete(13), (0, 1))
    with pytest.raises(GroundSetTooLarge, match=r"2\^13 subsets"):
        continuity_profile(f)
    f = SpaceMap(sierpinski(), indiscrete(12), (0, 1))
    assert continuity_profile(f)[ContinuityClass.CONTINUOUS] is True


def test_binding_covers_all_but_strongly_irresolute():
    bound = set(CONTINUITY_BINDING)
    assert ContinuityClass.STRONGLY_IRRESOLUTE not in bound
    assert bound | {ContinuityClass.STRONGLY_IRRESOLUTE} == set(ContinuityClass)
    assert CONTINUITY_BINDING[ContinuityClass.AB_CONTINUOUS] is SetClass.AB_SET
    assert CONTINUITY_BINDING[ContinuityClass.CONTINUOUS] is SetClass.OPEN


def test_enumerate_maps_counts():
    t2 = sierpinski()
    t3 = three_point_space()
    assert len(list(enumerate_maps(t2, t2))) == 4
    assert len(list(enumerate_maps(t3, t3))) == 27
    assert len(list(enumerate_maps(t3, t2))) == 8
    t0 = indiscrete(0)
    assert len(list(enumerate_maps(t0, t3))) == 1
    assert len(list(enumerate_maps(t3, t0))) == 0


def test_enumerate_maps_lexicographic_order():
    t2 = sierpinski()
    got = [f.assignment for f in enumerate_maps(t2, t2)]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_maps_budget():
    # 7^8 = 5,764,801 maps exceed DEFAULT_MAP_BUDGET = 2^22
    with pytest.raises(BudgetExceeded, match="5764801 maps"):
        list(enumerate_maps(indiscrete(8), indiscrete(7)))
