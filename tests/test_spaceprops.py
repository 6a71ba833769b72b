"""Global space property predicates on known spaces and edge sizes."""

import pytest

from fintopo import (
    GroundSetTooLarge,
    SpaceProperty,
    build_topology,
    has_property,
    space_profile,
)
from fintopo.spaceprops import (
    is_discrete,
    is_extremally_disconnected,
    is_hyperconnected,
    is_indiscrete,
    is_partition,
    is_semi_connected,
    is_submaximal,
)

from helpers import discrete, four_point_space, indiscrete, sierpinski, three_point_space


def test_four_point_space_profile():
    t = four_point_space()
    assert not is_extremally_disconnected(t)
    assert not is_semi_connected(t)
    assert not is_hyperconnected(t)
    assert not is_partition(t)
    assert not is_discrete(t)
    assert not is_indiscrete(t)


def test_three_point_space_profile():
    t = three_point_space()
    assert is_extremally_disconnected(t)
    assert is_hyperconnected(t)
    assert is_semi_connected(t)
    assert not is_submaximal(t)
    assert not is_partition(t)


def test_sierpinski_profile():
    t = sierpinski()
    assert is_submaximal(t)
    assert is_hyperconnected(t)
    assert is_extremally_disconnected(t)
    assert not is_partition(t)


def test_discrete_properties():
    t = discrete(3)
    assert is_discrete(t)
    assert is_partition(t)
    assert is_submaximal(t)
    assert is_extremally_disconnected(t)
    assert not is_indiscrete(t)
    assert not is_hyperconnected(t)
    assert not is_semi_connected(t)


def test_indiscrete_properties():
    t = indiscrete(3)
    assert is_indiscrete(t)
    assert is_partition(t)
    assert is_hyperconnected(t)
    assert is_semi_connected(t)
    assert not is_discrete(t)
    assert not is_submaximal(t)


def test_partition_space_that_is_neither_extreme():
    # opens {}, {a,b}, {c,d}, X: a partition space, not discrete/indiscrete
    t = build_topology(4, [0b0000, 0b0011, 0b1100, 0b1111])
    assert is_partition(t)
    assert is_extremally_disconnected(t)
    assert not is_discrete(t)
    assert not is_indiscrete(t)
    assert not is_hyperconnected(t)
    assert not is_semi_connected(t)


def test_size_zero_and_one_conventions():
    for n in (0, 1):
        t = indiscrete(n)
        assert is_discrete(t)
        assert is_indiscrete(t)
        assert is_hyperconnected(t)
        assert is_semi_connected(t)
        assert is_partition(t)
        assert is_submaximal(t)
        assert is_extremally_disconnected(t)


def test_space_profile_covers_every_property():
    profile = space_profile(three_point_space())
    assert set(profile) == set(SpaceProperty)
    assert profile[SpaceProperty.HYPERCONNECTED] is True
    assert profile[SpaceProperty.SUBMAXIMAL] is False


def test_has_property_dispatch():
    t = discrete(2)
    assert has_property(t, SpaceProperty.DISCRETE)
    assert not has_property(t, SpaceProperty.HYPERCONNECTED)


def test_space_profile_refuses_more_than_12_points():
    # the predicates read interior_table, which refuses 2^13 subsets
    with pytest.raises(GroundSetTooLarge, match=r"2\^13 subsets"):
        space_profile(indiscrete(13))
    profile = space_profile(indiscrete(12))
    assert profile[SpaceProperty.INDISCRETE]
    assert not profile[SpaceProperty.SUBMAXIMAL]
