"""JSON space and map documents: round trips and validation errors."""

import json
import pickle

import pytest

from fintopo import (
    DocumentError,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    SpaceMap,
    decode_map,
    decode_space,
    default_point_names,
    encode_map,
    encode_space,
    load_map,
    load_space,
)

from helpers import sierpinski, three_point_space


def test_default_point_names():
    assert default_point_names(0) == []
    assert default_point_names(3) == ["a", "b", "c"]
    names = default_point_names(30)
    assert names[0] == "p0" and names[29] == "p29" and len(names) == 30


def test_space_round_trip():
    t = three_point_space()
    doc = encode_space(t)
    assert doc["points"] == ["a", "b", "c"]
    assert doc["opens"] == [[], ["a"], ["a", "b", "c"]]
    back, points = decode_space(doc)
    assert back == t
    assert points == ["a", "b", "c"]


def test_custom_point_names_round_trip():
    t = sierpinski()
    doc = encode_space(t, ["lo", "hi"])
    assert doc["opens"] == [[], ["lo"], ["lo", "hi"]]
    back, points = decode_space(doc)
    assert back == t and points == ["lo", "hi"]


def test_decode_normalizes_open_order():
    # opens may arrive unsorted within a set; masks do not care
    doc = {"points": ["a", "b"], "opens": [["b", "a"], ["a"], []]}
    t, _ = decode_space(doc)
    assert t == sierpinski()


def test_encode_space_name_count_mismatch():
    with pytest.raises(DocumentError):
        encode_space(sierpinski(), ["only"])


_IDENTITY = SpaceMap(sierpinski(), sierpinski(), (0, 1))


@pytest.mark.parametrize("encode", [
    lambda points: encode_space(sierpinski(), points),
    lambda points: encode_map(_IDENTITY, points, None),
    lambda points: encode_map(_IDENTITY, None, points),
], ids=["space", "map-domain", "map-codomain"])
@pytest.mark.parametrize("points", [["a", "a"], ["", "b"], [1, 2]])
def test_encoders_refuse_names_the_decoder_refuses(encode, points):
    with pytest.raises(DocumentError) as decoded:
        decode_space({"points": points, "opens": [[]]})
    with pytest.raises(DocumentError) as encoded:
        encode(points)
    assert str(encoded.value) == str(decoded.value)


@pytest.mark.parametrize("doc", [
    "not an object",
    {"points": ["a"]},
    {"opens": [[]]},
    {"points": ["a"], "opens": [[], ["a"]], "extra": 1},
    {"points": "ab", "opens": [[], ["a"]]},
    {"points": ["a", "a"], "opens": [[], ["a", "a"]]},
    {"points": ["a", ""], "opens": [[], ["a"]]},
    {"points": ["a"], "opens": "nope"},
    {"points": ["a"], "opens": [0, 1]},
    {"points": ["a"], "opens": [[], ["zz"]]},
])
def test_decode_space_structural_errors(doc):
    with pytest.raises(DocumentError):
        decode_space(doc)


def test_decode_space_axiom_violation_carries_witness():
    # {a} union {b} = {a,b} is missing from the family
    doc = {
        "points": ["a", "b", "c"],
        "opens": [[], ["a"], ["b"], ["a", "b", "c"]],
    }
    with pytest.raises(NotClosedUnderUnion) as info:
        decode_space(doc)
    assert info.value.witness == (0b001, 0b010)


def _decode_error(opens):
    with pytest.raises((NotClosedUnderUnion, NotClosedUnderIntersection)) as info:
        decode_space({"points": ["a", "b", "c"], "opens": opens})
    return info.value


@pytest.mark.parametrize("error", [
    NotClosedUnderUnion(1, 2),
    NotClosedUnderIntersection(3, 6),
    # the named forms decode_space raises
    _decode_error([[], ["a"], ["b"], ["a", "b", "c"]]),
    _decode_error([[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]),
], ids=["union", "intersection", "named-union", "named-intersection"])
def test_axiom_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert back.witness == error.witness
    assert str(back) == str(error)


def test_map_round_trip():
    f = SpaceMap(three_point_space(), sierpinski(), (0, 1, 1))
    doc = encode_map(f)
    assert doc["assignment"] == {"a": "a", "b": "b", "c": "b"}
    back, dom_points, cod_points = decode_map(doc)
    assert back == f
    assert dom_points == ["a", "b", "c"]
    assert cod_points == ["a", "b"]


def test_map_assignment_as_pairs():
    doc = encode_map(SpaceMap(sierpinski(), sierpinski(), (1, 1)))
    doc["assignment"] = [["a", "b"], ["b", "b"]]
    back, _, _ = decode_map(doc)
    assert back.assignment == (1, 1)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("domain"),
    lambda d: d.pop("assignment"),
    lambda d: d.__setitem__("assignment", {"a": "a"}),
    lambda d: d.__setitem__("assignment", {"a": "a", "b": "b", "zz": "a"}),
    lambda d: d.__setitem__("assignment", {"a": "zz", "b": "a"}),
    lambda d: d.__setitem__("assignment", [["a"], ["b", "a"]]),
    lambda d: d.__setitem__("assignment", 7),
])
def test_decode_map_errors(mutate):
    doc = encode_map(SpaceMap(sierpinski(), sierpinski(), (0, 1)))
    mutate(doc)
    with pytest.raises(DocumentError):
        decode_map(doc)


@pytest.mark.parametrize("assignment", [
    ["ab", ["b", "a"]],  # a string is no [from, to] pair
    [{"a": "b"}, ["b", "a"]],
    [[["a"], "b"], ["b", "a"]],
    {"a": ["a"], "b": "a"},
])
def test_decode_map_rejects_malformed_pairs_and_targets(assignment):
    doc = encode_map(SpaceMap(sierpinski(), sierpinski(), (0, 1)))
    doc["assignment"] = assignment
    with pytest.raises(DocumentError):
        decode_map(doc)


def test_space_open_with_a_list_as_point_is_rejected():
    with pytest.raises(DocumentError, match="unknown point"):
        decode_space({"points": ["a"], "opens": [[], ["a"], [["a"]]]})


def test_map_document_with_file_references(tmp_path):
    dom_file = tmp_path / "dom.json"
    dom_file.write_text(json.dumps(encode_space(three_point_space())))
    doc = {
        "domain": str(dom_file),
        "codomain": encode_space(sierpinski()),
        "assignment": {"a": "a", "b": "b", "c": "b"},
    }
    f, dom_points, _ = decode_map(doc)
    assert f.domain == three_point_space()
    assert dom_points == ["a", "b", "c"]


def test_map_document_missing_file():
    doc = {
        "domain": "/nonexistent/space.json",
        "codomain": encode_space(sierpinski()),
        "assignment": {},
    }
    with pytest.raises(DocumentError):
        decode_map(doc)


def test_load_space_and_map(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(encode_space(sierpinski())))
    t, _ = load_space(space_file)
    assert t == sierpinski()

    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(
        encode_map(SpaceMap(sierpinski(), sierpinski(), (0, 0)))
    ))
    f, _, _ = load_map(map_file)
    assert f.assignment == (0, 0)


def test_load_space_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentError):
        load_space(path)
    with pytest.raises(DocumentError):
        load_map(path)


def test_load_space_missing_file(tmp_path):
    with pytest.raises(DocumentError):
        load_space(tmp_path / "absent.json")
