"""Malformed space and map documents through the CLI: exit 2, one error line.

Each generated document starts from a valid one and gets one defect that
no valid document can have, so every case must be refused with exit code
2 and a single `error:` line on stderr, never a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fintopo import encode_space, enumerate_topologies
from fintopo.cli import main

# every topology on at most three points, as the valid starting points
SMALL = [t for n in range(4) for t in enumerate_topologies(n)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
non_objects = json_values.filter(lambda v: not isinstance(v, dict))
non_lists = json_values.filter(lambda v: not isinstance(v, list))
# names with spaces, newlines and other control characters
point_names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1, max_size=3,
)


@st.composite
def valid_spaces(draw):
    t = draw(st.sampled_from(SMALL))
    points = draw(st.lists(point_names, min_size=t.n, max_size=t.n,
                           unique=True))
    return encode_space(t, points)


@st.composite
def malformed_spaces(draw):
    doc = draw(valid_spaces())
    points = doc["points"]
    defect = draw(st.sampled_from([
        "not-object", "extra-key", "missing-key", "points-not-list",
        "point-not-string", "duplicate-point", "opens-not-list",
        "open-not-list", "unknown-point", "no-empty-open", "not-closed",
        "too-many-points",
    ]))
    if defect == "not-object":
        return draw(non_objects)
    if defect == "extra-key":
        key = draw(st.text(max_size=5).filter(
            lambda k: k not in ("points", "opens")))
        doc[key] = draw(json_values)
    elif defect == "missing-key":
        del doc[draw(st.sampled_from(["points", "opens"]))]
    elif defect == "points-not-list":
        doc["points"] = draw(non_lists)
    elif defect == "point-not-string":
        bad = draw(json_values.filter(
            lambda v: not isinstance(v, str) or v == ""))
        points.insert(draw(st.integers(0, len(points))), bad)
    elif defect == "duplicate-point":
        if points:
            points.append(draw(st.sampled_from(points)))
        else:
            points.extend(["a", "a"])
    elif defect == "opens-not-list":
        doc["opens"] = draw(non_lists)
    elif defect == "open-not-list":
        doc["opens"].append(draw(non_lists))
    elif defect == "unknown-point":
        stranger = draw(json_values.filter(lambda v: v not in points))
        opens = doc["opens"]
        opens[draw(st.integers(0, len(opens) - 1))].append(stranger)
    elif defect == "no-empty-open":
        doc["opens"] = [u for u in doc["opens"] if u]
    elif defect == "not-closed":
        # the union of the two singletons is missing
        a, b, c = draw(st.lists(point_names, min_size=3, max_size=3,
                                unique=True))
        doc = {"points": [a, b, c], "opens": [[], [a], [b], [a, b, c]]}
    else:
        names = [f"p{i}" for i in range(draw(st.integers(33, 40)))]
        doc = {"points": names, "opens": [[], names]}
    return doc


@st.composite
def malformed_maps(draw):
    domain = draw(valid_spaces())
    codomain = draw(valid_spaces().filter(lambda d: d["points"]))
    targets = codomain["points"]
    assignment = {
        p: draw(st.sampled_from(targets)) for p in domain["points"]
    }
    doc = {"domain": domain, "codomain": codomain, "assignment": assignment}
    defect = draw(st.sampled_from([
        "not-object", "missing-key", "bad-space", "space-not-object",
        "missing-space-file", "assignment-wrong-type", "pair-not-list",
        "missing-point", "unknown-point", "unknown-target",
    ]))
    if defect == "not-object":
        return draw(non_objects)
    if defect == "missing-key":
        del doc[draw(st.sampled_from(["domain", "codomain", "assignment"]))]
    elif defect == "bad-space":
        doc[draw(st.sampled_from(["domain", "codomain"]))] = draw(
            malformed_spaces())
    elif defect == "space-not-object":
        doc[draw(st.sampled_from(["domain", "codomain"]))] = draw(
            non_objects.filter(lambda v: not isinstance(v, str)))
    elif defect == "missing-space-file":
        doc["domain"] = "no-such-space.json"
    elif defect == "assignment-wrong-type":
        # list forms are the pair-not-list defect's
        doc["assignment"] = draw(non_lists.filter(
            lambda v: not isinstance(v, dict)))
    elif defect == "pair-not-list":
        pairs = [[p, q] for p, q in assignment.items()]
        bad = draw(non_lists)
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
        doc["assignment"] = pairs
    elif defect == "missing-point" and domain["points"]:
        del assignment[draw(st.sampled_from(domain["points"]))]
    elif defect == "unknown-point" or not domain["points"]:
        stranger = draw(point_names.filter(
            lambda v: v not in domain["points"]))
        assignment[stranger] = targets[0]
    else:
        source = draw(st.sampled_from(domain["points"]))
        assignment[source] = draw(json_values.filter(
            lambda v: v not in targets))
    return doc


def _run_cli(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    return code, out.getvalue(), err.getvalue()


def _assert_refused(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(malformed_spaces())
def test_malformed_space_documents_are_refused(doc):
    _assert_refused(*_run_cli("classify-space", doc))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(malformed_maps())
def test_malformed_map_documents_are_refused(doc):
    _assert_refused(*_run_cli("classify-map", doc))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.binary(max_size=20))
def test_bytes_that_are_not_a_json_document_are_refused(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(err):
            code = main(["classify-space", path])
    _assert_refused(code, out.getvalue(), err.getvalue())
