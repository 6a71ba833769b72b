"""JSON documents describing spaces and maps with named points.

A space document lists point names and opens as lists of names; nothing
is implicit, so a family missing the empty list or the full point list
fails validation with the axiom named.  The library itself works on bit
masks; names exist only at this boundary.
"""

import json

from .errors import (
    DocumentError,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from .maps import SpaceMap
from .setclasses import check_subset_budget
from .space import SubsetMask, Topology, build_topology, iter_points


def default_point_names(n: int):
    """a, b, c, ... for small spaces; indexed names past the alphabet."""
    if n <= 26:
        return list("abcdefghijklmnopqrstuvwxyz"[:n])
    return [f"p{i}" for i in range(n)]


def mask_to_names(mask: SubsetMask, points) -> list:
    return [points[x] for x in iter_points(mask)]


def format_set(mask: SubsetMask, points) -> str:
    """The subset written with its point names, as {a,b}."""
    return "{" + ",".join(mask_to_names(mask, points)) + "}"


def names_to_mask(names, index) -> SubsetMask:
    mask = 0
    for name in names:
        # a list or object is no point name, and is not hashable either
        if not isinstance(name, str) or name not in index:
            raise DocumentError(f"unknown point {name!r}")
        mask |= 1 << index[name]
    return mask


def _point_index(points) -> dict:
    if not isinstance(points, list) or not all(
        isinstance(p, str) and p for p in points
    ):
        raise DocumentError("points must be a list of nonempty strings")
    if len(set(points)) != len(points):
        raise DocumentError("point names must be distinct")
    return {name: x for x, name in enumerate(points)}


def encode_space(t: Topology, points=None) -> dict:
    points = list(points) if points is not None else default_point_names(t.n)
    if len(points) != t.n:
        raise DocumentError(f"need {t.n} point names, got {len(points)}")
    _point_index(points)  # refuse what decode_space would refuse
    return {
        "points": points,
        "opens": [mask_to_names(u, points) for u in t.opens],
    }


def decode_space(doc, per_subset: bool = False) -> tuple:
    """Validate a space document and build its topology.

    Returns (topology, points).  Structural problems raise DocumentError;
    axiom violations raise the topology error naming the witness pair.
    per_subset refuses a space too large for a per-subset scan (see
    check_subset_budget) before its opens are read.
    """
    if not isinstance(doc, dict):
        raise DocumentError("space document must be an object")
    unknown = set(doc) - {"points", "opens"}
    if unknown:
        raise DocumentError(f"unexpected keys {sorted(unknown)}")
    if "points" not in doc or "opens" not in doc:
        raise DocumentError("space document needs 'points' and 'opens'")
    points = doc["points"]
    index = _point_index(points)
    if per_subset:
        check_subset_budget(len(points))
    opens_field = doc["opens"]
    if not isinstance(opens_field, list) or not all(
        isinstance(u, list) for u in opens_field
    ):
        raise DocumentError("opens must be a list of lists of point names")
    opens = [names_to_mask(u, index) for u in opens_field]
    try:
        return build_topology(len(points), opens), list(points)
    except (NotClosedUnderUnion, NotClosedUnderIntersection) as exc:
        op = "union" if isinstance(exc, NotClosedUnderUnion) else "intersection"
        # names that would break the one-line error fall back to masks
        named = all(p.isprintable() for p in points)
        shown = " and ".join(
            format_set(m, points) if named else f"{m:#b}" for m in exc.witness
        )
        raise type(exc)(*exc.witness, f"invalid topology: not closed under "
                        f"{op}; witness opens {shown}") from None


def encode_map(f: SpaceMap, domain_points=None, codomain_points=None) -> dict:
    domain = encode_space(f.domain, domain_points)
    codomain = encode_space(f.codomain, codomain_points)
    targets = [codomain["points"][y] for y in f.assignment]
    return {
        "domain": domain,
        "codomain": codomain,
        "assignment": dict(zip(domain["points"], targets)),
    }


def read_json(path, what: str):
    """The JSON value in the file at path; every failure is a DocumentError.

    what names the file in messages ("space", "map", "domain", ...).
    Nesting too deep for the parser counts as invalid JSON.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {what} file {path!r}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DocumentError(f"{what} file is not valid JSON: {exc}")


def _resolve_space_field(field, what, per_subset):
    """A map document's domain/codomain: inline document or file path."""
    if isinstance(field, str):
        field = read_json(field, what)
    return decode_space(field, per_subset)


def decode_map(doc, per_subset: bool = False) -> tuple:
    """Validate a map document.  Returns (map, domain_points, codomain_points).

    per_subset applies to both spaces as in decode_space.
    """
    if not isinstance(doc, dict):
        raise DocumentError("map document must be an object")
    for key in ("domain", "codomain", "assignment"):
        if key not in doc:
            raise DocumentError(f"map document needs {key!r}")
    dom, dom_points = _resolve_space_field(doc["domain"], "domain", per_subset)
    cod, cod_points = _resolve_space_field(doc["codomain"], "codomain",
                                           per_subset)
    raw = doc["assignment"]
    if isinstance(raw, list):
        if not all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str)
            for pair in raw
        ):
            raise DocumentError("assignment pairs must be [from, to]")
        raw = dict(raw)
        if len(raw) != len(doc["assignment"]):
            raise DocumentError("assignment pairs must be [from, to]")
    if not isinstance(raw, dict):
        raise DocumentError("assignment must map point names to point names")
    dom_index = {name: x for x, name in enumerate(dom_points)}
    cod_index = {name: y for y, name in enumerate(cod_points)}
    missing = [p for p in dom_points if p not in raw]
    if missing:
        raise DocumentError(f"assignment misses domain points {missing}")
    unknown = [p for p in raw if p not in dom_index]
    if unknown:
        raise DocumentError(f"assignment has unknown domain points {unknown}")
    assignment = []
    for name in dom_points:
        target = raw[name]
        if not isinstance(target, str) or target not in cod_index:
            raise DocumentError(f"unknown codomain point {target!r}")
        assignment.append(cod_index[target])
    return SpaceMap(dom, cod, assignment), dom_points, cod_points


def load_space(path, per_subset: bool = False):
    return decode_space(read_json(path, "space"), per_subset)


def load_map(path, per_subset: bool = False):
    return decode_map(read_json(path, "map"), per_subset)
