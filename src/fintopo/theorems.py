"""Checkable propositions over finite spaces, with exhaustive sweeps.

Every proposition is either universal (checked on every instance in
budget; a failing instance is reported as a counterexample) or
existential (the sweep must find a witness).  Sweeps never stop early:
the full budget is always traversed and the canonically first hit is
reported, so in-process and process-pool runs give identical reports.

A proposition is a formula that returns its hits: the counterexamples
of a universal claim, the examples of an existential one.  Set- and
space-scope formulas read a ClassTable of some spaces side by side, and
nothing else (a space property through ClassTable.per_space), and
return a bitmap over their subsets or one bit per space; map-scope
formulas read one int fact word per map.  One traversal per scope feeds
every requested proposition.

The instance order fixing "first" is: ground-set size ascending,
topology canonical order, subset numeric order, map order by
(domain size, codomain size, domain topology, codomain topology,
assignment lexicographic).

Set and space sweeps visit one space per isomorphism class and weight
it by the size of its orbit, the labeled spaces homeomorphic to it.
The classes of one size are evaluated in chunks, one ClassTable of up
to 2^15 >> n spaces per chunk.  Counts and hits are those of the
labeled sweep, and the first witness is the first labeled one, taken
from the least member of the first hitting orbits.

Map sweeps build no map and no labeled Topology outside the witness
search.  A map f: X -> Y with k nonempty fibers has the fact word of the
surjection from X onto its fiber partition's k blocks (numbered by least
point), carrying the trace sigma of Y's opens on the image: the
continuity bits read only unions of blocks indexed by sigma, the other
bits only the partition.  So each domain representative X (weighted by
orbit size) takes its partition facts once per partition and its open
bits once per sigma, and counts the maps into the spaces on ny points
that give (partition, sigma): (ny)_k times the labeled preorders on ny
points that restrict to sigma, read off one walk of the _extensions
tree (see enumeration._trace_table).  A witness comes from the first
(domain size, codomain size) with a hit: the least labeled domain of
the hitting orbits, then the first labeled codomain and assignment that
hit.
"""

import json
import os
from collections import namedtuple
from functools import partial, reduce
from itertools import product
from operator import and_, or_

from .documents import (
    decode_map,
    decode_space,
    default_point_names,
    encode_map,
    encode_space,
    mask_to_names,
    names_to_mask,
)
from .enumeration import (
    EnumerationBudget,
    _class_levels,
    _trace_table,
    enumerate_topologies,
    first_in_orbits,
)
from .errors import BudgetExceeded, DocumentError
from .maps import (
    _CLASS_BIT,
    _SCL_OK,
    ContinuityClass,
    SpaceMap,
    _domain_facts,
    _fact_word,
    _open_bits,
    _partition_facts,
    enumerate_maps,
)
from .setclasses import (
    CHUNK_SUBSETS,
    ClassTable,
    SetClass,
    b_set_via_semi_closure_bitmap,
    class_table,
    ic_set_subspace_bitmap,
    semi_regular_sandwich_bitmap,
)
from .spaceprops import (
    is_discrete,
    is_extremally_disconnected,
    is_hyperconnected,
    is_indiscrete,
    is_partition,
    is_semi_connected,
    is_submaximal,
)

HOLDS = "holds-exhaustively"
FOUND = "witness-found"
EXHAUSTED = "budget-exhausted"

COUNTEREXAMPLE = "counterexample-to-universal"
EXAMPLE = "example-for-existential"

KIND_EQ_SPACE = "equivalence-per-space"
KIND_EQ_SET = "equivalence-per-set"
KIND_IMP_SET = "implication-per-set"
KIND_IMP_MAP = "implication-per-map"
KIND_EQ_MAP = "equivalence-per-map"
KIND_EXISTS = "existence-of-witness"


class Proposition(namedtuple(
        "Proposition", "id kind scope description evaluate exploratory",
        defaults=(False,))):
    """One checkable claim.

    scope fixes quantification: a "space" claim is checked on every
    topology, a "set" claim on every (topology, subset), a "map" claim on
    every map between a pair of topologies.  evaluate returns the hits,
    which are counterexamples for universal kinds and witnesses for
    existence-of-witness.  A "set" or "space" evaluator maps a table to
    an int, where table is a ClassTable of one or more spaces, one
    segment of 2^n bits each; table.per_space(is_submaximal) gives a
    space property as the segment starts (bit 0 of each segment) of the
    spaces that have it.  A "set" evaluator returns a bitmap over the
    subsets of every segment, a "space" evaluator one bit per space at
    its segment start: 0 or 1 on a one-space table.  Neither may move a
    bit from one segment into another.  A "map" evaluator maps a fact
    word to a bool.  Set and space evaluators must not depend on how the
    points are labeled: relabeling a space may only permute a set
    evaluator's hits and must keep a space evaluator's value, since the
    sweep evaluates one space per isomorphism class (every set class and
    space property here is topological, so the registered ones qualify).
    exploratory propositions are swept and reported but never gate an
    overall verdict.
    """

    __slots__ = ()

    @property
    def existential(self) -> bool:
        return self.kind == KIND_EXISTS


SC, CC = SetClass, ContinuityClass


def _bitmaps(table, *classes):
    return [table.family_bitmap(c) for c in classes]


def _disagree(x, y, z):
    """Where three formulations are not all equal (bitmaps or bools)."""
    return (x ^ y) | (x ^ z)


# ---------------------------------------------------------------------------
# set-scope formulas: bitmaps over the subsets of one space


def _ev_l00(table):
    # the semi-closure of every beta-open set is semi-regular: the
    # pointwise classes of sCl a, folded on its planes
    bo = table.family_bitmap(SC.BETA_OPEN)
    scl = table.pointwise(table.semi_closure_planes)
    return bo & ~scl[SC.SEMI_REGULAR]


def _ev_t00(table):
    # AB-set <=> semi-open B-set <=> beta-open B-set
    ab, so, bo, b = _bitmaps(table, SC.AB_SET, SC.SEMI_OPEN, SC.BETA_OPEN,
                             SC.B_SET)
    return _disagree(ab, so & b, bo & b)


def _ev_t0(table):
    # semi-regular <=> semi-closed AB-set <=> beta-closed AB-set
    sr, sc, bc, ab = _bitmaps(table, SC.SEMI_REGULAR, SC.SEMI_CLOSED,
                              SC.BETA_CLOSED, SC.AB_SET)
    return _disagree(sr, sc & ab, bc & ab)


def _ev_t0a(table):
    # open <=> AB-set that is preopen or an ic-set
    op, ab, po, ic = _bitmaps(table, SC.OPEN, SC.AB_SET, SC.PREOPEN,
                              SC.IC_SET)
    return op ^ (ab & (po | ic))


def _ev_cor_submax(table):
    # in a submaximal space the AB-sets are exactly the beta-open sets
    submaximal = table.per_space(is_submaximal)
    if not submaximal:
        return 0
    ab, bo = _bitmaps(table, SC.AB_SET, SC.BETA_OPEN)
    return (ab ^ bo) & table.spread(submaximal)


def _gap(c_in: SetClass, c_out: SetClass):
    """The sets in c_in but not in c_out; ev.gap records the pair."""
    def ev(table):
        return table.family_bitmap(c_in) & ~table.family_bitmap(c_out)
    ev.gap = (c_in, c_out)
    return ev


def _route(cls: SetClass, route):
    """Where the table's cls bitmap and a per-space route's differ.

    The route reads each topology alone, so it stays independent of the
    table it checks.
    """
    def ev(table):
        return table.family_bitmap(cls) ^ table.per_space(route)
    return ev


def _ev_equiv_tset(table):
    sc, ts = _bitmaps(table, SC.SEMI_CLOSED, SC.T_SET)
    return sc ^ ts


def _ev_equiv_scl_form(table):
    # sCl a against its closed form a | int cl a, point by point
    e = table.point_planes
    ic = table.interiors(table.closures(e))
    return reduce(or_, [p ^ (x | y) for p, x, y
                        in zip(table.semi_closure_planes, e, ic)], 0)


# ---------------------------------------------------------------------------
# space-scope formulas: a space's bit is set when it refutes the claim;
# table.empty(b) has that bit set where b has no subset


def _ev_t1(table):
    # extremally disconnected <=> AB family equals the opens
    # <=> every AB-set is open
    ab, op = _bitmaps(table, SC.AB_SET, SC.OPEN)
    return _disagree(table.per_space(is_extremally_disconnected),
                     table.empty(ab ^ op), table.empty(ab & ~op))


def _ev_t2(table):
    # submaximal <=> every preopen set is AB <=> every dense set is AB
    ab, po, dense = _bitmaps(table, SC.AB_SET, SC.PREOPEN, SC.DENSE)
    return _disagree(table.per_space(is_submaximal), table.empty(po & ~ab),
                     table.empty(dense & ~ab))


def _ev_t3(table):
    # partition <=> every AB-set is clopen <=> every AB-set is preclosed
    ab, clopen, pc = _bitmaps(table, SC.AB_SET, SC.CLOPEN, SC.PRECLOSED)
    return _disagree(table.per_space(is_partition), table.empty(ab & ~clopen),
                     table.empty(ab & ~pc))


def _ev_t4(table):
    # indiscrete <=> the only AB-sets are empty and full
    ab, full = table.family_bitmap(SC.AB_SET), (1 << table.n) - 1
    ends = table.fill(1 | 1 << full)
    return table.per_space(is_indiscrete) ^ table.empty(ab ^ ends)


def _ev_t5(table):
    # discrete <=> every subset is AB <=> every singleton is AB
    ab = table.family_bitmap(SC.AB_SET)
    singletons = reduce(and_, [ab >> (1 << x) for x in range(table.n)],
                        table.starts)
    return _disagree(table.per_space(is_discrete), table.empty(~ab),
                     singletons)


def _ev_t6(table):
    # hyperconnected <=> every nonempty AB-set is dense.  The empty set
    # is an AB-set in every space and is never dense for n >= 1, so the
    # claim is read with the same nonemptiness convention as
    # hyperconnectedness itself.
    ab, dense = _bitmaps(table, SC.AB_SET, SC.DENSE)
    return table.per_space(is_hyperconnected) ^ table.empty(
        ab & ~dense & ~table.starts)


def _ev_t7(table):
    # semi-connected <=> no split into two disjoint nonempty AB-sets;
    # mirrored, the AB bitmap has bit full - a at a
    ab, full = table.family_bitmap(SC.AB_SET), (1 << table.n) - 1
    ends = table.fill(1 | 1 << full)
    return table.per_space(is_semi_connected) ^ table.empty(
        ab & table.mirror(ab) & ~ends)


# ---------------------------------------------------------------------------
# map-scope formulas: True when the map's fact word (see maps._fact_word)
# is a hit


def _bits(word: int, *classes):
    return [word & _CLASS_BIT[cc] != 0 for cc in classes]


def _map_gap(cc_in: ContinuityClass, cc_out: ContinuityClass):
    """The maps in class cc_in but not in cc_out."""
    def ev(word):
        has_in, has_out = _bits(word, cc_in, cc_out)
        return has_in and not has_out
    return ev


def _ev_s42(word):
    ab, semi, beta, b = _bits(word, CC.AB_CONTINUOUS, CC.SEMI_CONTINUOUS,
                              CC.BETA_CONTINUOUS, CC.B_CONTINUOUS)
    return _disagree(ab, semi and b, beta and b)


def _ev_s42a(word):
    a, beta, lc = _bits(word, CC.A_CONTINUOUS, CC.BETA_CONTINUOUS,
                        CC.LC_CONTINUOUS)
    return a != (beta and lc)


def _ev_s43(word):
    cont, ab, pre, ic = _bits(word, CC.CONTINUOUS, CC.AB_CONTINUOUS,
                              CC.PRE_CONTINUOUS, CC.IC_CONTINUOUS)
    return cont != (ab and (pre or ic))


def _ev_equiv_strirr_scl(word):
    (strirr,) = _bits(word, CC.STRONGLY_IRRESOLUTE)
    return strirr != (word & _SCL_OK != 0)


# ---------------------------------------------------------------------------
# registry


def _build_registry():
    P = Proposition
    so, ab = SC.SEMI_OPEN, SC.AB_SET
    a_s, b_s, lc = SC.A_SET, SC.B_SET, SC.LOCALLY_CLOSED
    return (
        # generalized-set claims
        P("l00", KIND_IMP_SET, "set",
          "the semi-closure of every beta-open set is semi-regular",
          _ev_l00),
        P("t00", KIND_EQ_SET, "set",
          "AB-set iff semi-open B-set iff beta-open B-set", _ev_t00),
        P("cor-submax", KIND_IMP_SET, "set",
          "in a submaximal space the AB-sets are exactly the beta-open sets",
          _ev_cor_submax),
        P("t0", KIND_EQ_SET, "set",
          "semi-regular iff semi-closed AB-set iff beta-closed AB-set",
          _ev_t0),
        P("t0a", KIND_EQ_SET, "set",
          "open iff an AB-set that is preopen or an ic-set", _ev_t0a),
        # inclusion chain around AB-sets
        P("chain-a-ab", KIND_IMP_SET, "set",
          "every A-set is an AB-set", _gap(a_s, ab)),
        P("chain-ab-b", KIND_IMP_SET, "set",
          "every AB-set is a B-set", _gap(ab, b_s)),
        P("chain-ab-so", KIND_IMP_SET, "set",
          "every AB-set is semi-open", _gap(ab, so)),
        P("chain-a-lc", KIND_IMP_SET, "set",
          "every A-set is locally closed", _gap(a_s, lc)),
        P("chain-lc-b", KIND_IMP_SET, "set",
          "every locally closed set is a B-set", _gap(lc, b_s)),
        # agreement of independent formulations
        P("equiv-tset", KIND_EQ_SET, "set",
          "semi-closed agrees with the t-set equation int A = int cl A",
          _ev_equiv_tset),
        P("equiv-sr-sandwich", KIND_EQ_SET, "set",
          "semi-regular agrees with the regular-open sandwich form",
          _route(SC.SEMI_REGULAR, semi_regular_sandwich_bitmap)),
        P("equiv-bset-scl", KIND_EQ_SET, "set",
          "B-set scan agrees with the single-open semi-closure form",
          _route(b_s, b_set_via_semi_closure_bitmap)),
        P("equiv-scl-form", KIND_EQ_SET, "set",
          "semi-closure scan agrees with the closed form A union int cl A",
          _ev_equiv_scl_form),
        P("equiv-ic-subspace", KIND_EQ_SET, "set",
          "ic-set closed form agrees with the literal subspace check",
          _route(SC.IC_SET, ic_set_subspace_bitmap)),
        # space characterizations
        P("t1", KIND_EQ_SPACE, "space",
          "extremally disconnected iff the AB-sets are exactly the opens",
          _ev_t1),
        P("t2", KIND_EQ_SPACE, "space",
          "submaximal iff every preopen set is AB iff every dense set is AB",
          _ev_t2),
        P("t3", KIND_EQ_SPACE, "space",
          "partition space iff every AB-set is clopen iff preclosed",
          _ev_t3),
        P("t4", KIND_EQ_SPACE, "space",
          "indiscrete iff the only AB-sets are the empty and full sets",
          _ev_t4),
        P("t5", KIND_EQ_SPACE, "space",
          "discrete iff every subset is AB iff every singleton is AB",
          _ev_t5),
        P("t6", KIND_EQ_SPACE, "space",
          "hyperconnected iff every nonempty AB-set is dense", _ev_t6),
        P("t7", KIND_EQ_SPACE, "space",
          "semi-connected iff the space never splits into two disjoint "
          "nonempty AB-sets", _ev_t7),
        # set-level witnesses: strictness and independence
        P("nonrev-ab-a", KIND_EXISTS, "set",
          "some AB-set is not an A-set", _gap(ab, a_s)),
        P("nonrev-ab-b", KIND_EXISTS, "set",
          "some B-set is not an AB-set", _gap(b_s, ab)),
        P("nonrev-ab-so", KIND_EXISTS, "set",
          "some semi-open set is not an AB-set", _gap(so, ab)),
        P("indep-ab-lc", KIND_EXISTS, "set",
          "some AB-set is not locally closed", _gap(ab, lc)),
        P("indep-lc-ab", KIND_EXISTS, "set",
          "some locally closed set is not an AB-set", _gap(lc, ab)),
        # continuity hierarchy
        P("s41-i", KIND_IMP_MAP, "map",
          "every A-continuous function is AB-continuous",
          _map_gap(CC.A_CONTINUOUS, CC.AB_CONTINUOUS)),
        P("s41-ii", KIND_IMP_MAP, "map",
          "every strongly irresolute function is AB-continuous",
          _map_gap(CC.STRONGLY_IRRESOLUTE, CC.AB_CONTINUOUS)),
        P("s41-iii", KIND_IMP_MAP, "map",
          "every AB-continuous function is B-continuous",
          _map_gap(CC.AB_CONTINUOUS, CC.B_CONTINUOUS)),
        P("s41-iv", KIND_IMP_MAP, "map",
          "every AB-continuous function is semi-continuous",
          _map_gap(CC.AB_CONTINUOUS, CC.SEMI_CONTINUOUS)),
        P("s42", KIND_EQ_MAP, "map",
          "AB-continuous iff semi- and B-continuous iff beta- and "
          "B-continuous", _ev_s42),
        P("s42a", KIND_EQ_MAP, "map",
          "A-continuous iff beta-continuous and LC-continuous", _ev_s42a),
        P("s43", KIND_EQ_MAP, "map",
          "continuous iff AB-continuous and precontinuous or ic-continuous",
          _ev_s43),
        P("equiv-strirr-scl", KIND_EQ_MAP, "map",
          "preimage form of strong irresoluteness agrees with the "
          "semi-closure image form (recorded, not asserted)",
          _ev_equiv_strirr_scl, exploratory=True),
        # map-level witnesses: the hierarchy implications are strict
        P("nonrev-s41-i", KIND_EXISTS, "map",
          "some AB-continuous function is not A-continuous",
          _map_gap(CC.AB_CONTINUOUS, CC.A_CONTINUOUS)),
        P("nonrev-s41-ii", KIND_EXISTS, "map",
          "some AB-continuous function is not strongly irresolute",
          _map_gap(CC.AB_CONTINUOUS, CC.STRONGLY_IRRESOLUTE)),
        P("nonrev-s41-iii", KIND_EXISTS, "map",
          "some B-continuous function is not AB-continuous",
          _map_gap(CC.B_CONTINUOUS, CC.AB_CONTINUOUS)),
        P("nonrev-s41-iv", KIND_EXISTS, "map",
          "some semi-continuous function is not AB-continuous",
          _map_gap(CC.SEMI_CONTINUOUS, CC.AB_CONTINUOUS)),
    )


_REGISTRY = _build_registry()
_BY_ID = {p.id: p for p in _REGISTRY}


def registry():
    """All propositions, in sweep order."""
    return list(_REGISTRY)


def proposition(pid: str) -> Proposition:
    if pid not in _BY_ID:
        raise KeyError(f"unknown proposition id {pid!r}")
    return _BY_ID[pid]


# ---------------------------------------------------------------------------
# witnesses and reports


class Witness(namedtuple(
        "Witness", "proposition_id polarity topology subset codomain "
        "assignment", defaults=(None, None, None))):
    __slots__ = ()

    def to_document(self) -> dict:
        doc = {"proposition": self.proposition_id, "polarity": self.polarity}
        if self.assignment is not None:
            doc["map"] = encode_map(
                SpaceMap(self.topology, self.codomain, self.assignment)
            )
        else:
            doc["space"] = encode_space(self.topology)
            if self.subset is not None:
                doc["subset"] = mask_to_names(
                    self.subset, default_point_names(self.topology.n)
                )
        return doc


class SweepReport(namedtuple(
        "SweepReport", "proposition_id kind description budget "
        "spaces_checked sets_checked maps_checked hits verdict witnesses")):
    __slots__ = ()

    def to_document(self) -> dict:
        doc = {
            "proposition": self.proposition_id,
            "kind": self.kind,
            "description": self.description,
            "budget": {
                "max_n": self.budget.max_n,
                "max_spaces": self.budget.max_spaces,
                "max_maps": self.budget.max_maps,
            },
            "n_range": [0, self.budget.max_n],
            "spaces_checked": self.spaces_checked,
            "sets_checked": self.sets_checked,
            "maps_checked": self.maps_checked,
            "hits": self.hits,
            "verdict": self.verdict,
            "witnesses": [w.to_document() for w in self.witnesses],
        }
        # an unset codomain cap adds no keys, so such reports keep their
        # exact bytes
        if self.budget.codomain_max_n is not None:
            doc["budget"]["codomain_max_n"] = self.budget.codomain_max_n
            doc["codomain_n_range"] = [0, self.budget.codomain_max_n]
        return doc


def serialize_report(report) -> str:
    """Canonical text form; byte-identical across equivalent runs."""
    if isinstance(report, list):
        doc = [r.to_document() for r in report]
    else:
        doc = report.to_document()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def default_budget(scope: str) -> EnumerationBudget:
    # map sweeps quantify over pairs of spaces, so their default size cap
    # is one lower than the set/space sweeps
    return EnumerationBudget(max_n=3 if scope == "map" else 4)


# ---------------------------------------------------------------------------
# sweep drivers


def _report(p, budget, spaces, sets_, maps_, hits, best, exhausted):
    if best is not None:
        verdict = FOUND
    elif exhausted or p.existential:
        verdict = EXHAUSTED
    else:
        verdict = HOLDS
    return SweepReport(
        proposition_id=p.id, kind=p.kind, description=p.description,
        budget=budget, spaces_checked=spaces, sets_checked=sets_,
        maps_checked=maps_, hits=hits, verdict=verdict,
        witnesses=[best] if best is not None else [],
    )


def _polarity(p) -> str:
    return EXAMPLE if p.existential else COUNTEREXAMPLE


def _orbit_levels(props, budget):
    """Sweep one space per isomorphism class, size by size.

    Every set class and space property is topological, so relabeling a
    space permutes each set formula's hits and keeps every space
    formula's value: all the labeled spaces of one orbit have the same
    hit count.  Yields (n, labeled spaces of size n, hits per
    proposition, the hitting representatives per proposition), each
    representative weighted by its orbit size.  A level is evaluated in
    chunks of up to CHUNK_SUBSETS >> n spaces, and a chunk's hits are
    counted per orbit size over the segments of its spaces of that size.
    """
    for n, level in enumerate(_class_levels(budget)):
        hits = [0] * len(props)
        hitting = [[] for _ in props]
        size = max(1, CHUNK_SUBSETS >> n)
        for start in range(0, len(level), size):
            chunk = level[start:start + size]
            table = ClassTable(t for t, _ in chunk)
            orbits = [orbit for _, orbit in chunk]
            weights = [(orbit, table.spread(table.where(
                [o == orbit for o in orbits]))) for orbit in set(orbits)]
            for i, p in enumerate(props):
                got = p.evaluate(table)
                if got:
                    hits[i] += sum(orbit * (got & segments).bit_count()
                                   for orbit, segments in weights)
                    hitting[i] += table.spaces(
                        table.starts ^ table.empty(got))
        yield n, sum(orbit for _, orbit in level), hits, hitting


def _first_witness(p, hitting):
    """The canonically first labeled hit among the orbits of hitting.

    Hits are kept by relabeling, so the first labeled space with a hit
    is the least member of the hitting orbits.  That member's own
    formula, not its representative's, gives the subset.
    """
    t = first_in_orbits(hitting)
    got = p.evaluate(ClassTable((t,)))
    if not got:
        raise ValueError(
            f"proposition {p.id}: the evaluator hits a space but not a "
            "relabeling of it, so it depends on the point labels"
        )
    subset = (got & -got).bit_length() - 1 if p.scope == "set" else None
    return Witness(p.id, _polarity(p), t, subset=subset)


def _sweep_spaces(props, budget):
    """One orbit traversal of the spaces in budget for set/space
    propositions; counts are of labeled spaces and subsets."""
    hits = [0] * len(props)
    best = [None] * len(props)
    spaces = sets_ = 0
    exhausted = False
    try:
        for n, labeled, level_hits, hitting in _orbit_levels(props, budget):
            spaces += labeled
            sets_ += labeled << n
            for i, p in enumerate(props):
                hits[i] += level_hits[i]
                if best[i] is None and hitting[i]:
                    best[i] = _first_witness(p, hitting[i])
    except BudgetExceeded:
        exhausted = True
    return [
        _report(p, budget, spaces, sets_ if p.scope == "set" else 0, 0,
                hits[i], best[i], exhausted)
        for i, p in enumerate(props)
    ]


def _partitions(n: int):
    """Every partition of n points, as the block of each point, with
    blocks numbered by their least point, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for head in _partitions(n - 1):
        for block in range(max(head, default=-1) + 2):
            yield head + (block,)


def _fact_histograms(tx, traces, codomain_n):
    """Per codomain size ny <= codomain_n, {fact word: the number of maps
    from tx into a space on ny points with that word}, one word per
    (fiber partition, trace topology)."""
    facts = _domain_facts(tx)
    by_ny = [{} for _ in range(codomain_n + 1)]
    for blocks in _partitions(tx.n):
        k = max(blocks, default=-1) + 1
        if k >= len(traces):
            continue  # more blocks than any codomain has points
        pre, partition_word = _partition_facts(blocks, k, facts)
        for sigma, counts in traces[k]:
            word = partition_word | _open_bits(pre, sigma, facts)
            for ny, count in enumerate(counts):
                if count:
                    by_ny[ny][word] = by_ny[ny].get(word, 0) + count
    return by_ny


def Pool(processes):
    """multiprocessing.Pool, imported on first use (see _map_histograms)."""
    import multiprocessing
    return multiprocessing.Pool(processes)


_CHUNK_DOMAINS = 8

# _open_bits calls above which a process pool pays; measured between
# (max_n, codomain_max_n) (4, 4) at 18,809 calls and (5, 3) at 116,348.
# The 12 map propositions in process against a forced pool of two, four
# runs each on 2 cores: (4, 4) 0.036-0.037 s against 0.040-0.057 s,
# (5, 3) 0.229-0.235 s against 0.153-0.165 s, (5, 4) 1.07-1.08 s against
# 0.61-0.64 s
_POOL_MIN_CALLS = 50_000


def _map_histograms(domains, codomain_n):
    """Per (domain size, codomain size) in sweep order, the codomain size
    and the labeled maps of each fact word: {word: [count, domain
    representatives with it]}.

    domains holds the classes of each size, one representative per
    isomorphism class with its orbit size: the fact words are
    topological, so every labeled domain of an orbit has the same
    histogram.  Codomains range over the spaces on at most codomain_n
    points, counted by _trace_table without being listed, up to as many
    blocks as the largest domain has points.  Past
    _POOL_MIN_CALLS _open_bits calls, they run on a pool of one worker
    per CPU this process may use, if more than one; multiprocessing is
    imported only then (see Pool).
    """
    traces = _trace_table(codomain_n, len(domains) - 1)
    work = partial(_fact_histograms, traces=traces, codomain_n=codomain_n)
    reps = [tx for level in domains for tx, _ in level]
    # one call per (representative, partition into k blocks, sigma on k)
    calls = sum(len(level) * len(traces[k]) for n, level in enumerate(domains)
                for blocks in _partitions(n)
                if (k := max(blocks, default=-1) + 1) < len(traces))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if calls > _POOL_MIN_CALLS and cpus > 1:
        with Pool(processes=cpus) as pool:
            done = iter(list(pool.imap(work, reps, _CHUNK_DOMAINS)))
    else:
        done = map(work, reps)
    for level in domains:
        level = [(tx, orbit, next(done)) for tx, orbit in level]
        for ny in range(codomain_n + 1):
            words = {}
            for tx, orbit, by_ny in level:
                for word, count in by_ny[ny].items():
                    entry = words.setdefault(word, [0, []])
                    entry[0] += orbit * count
                    entry[1].append(tx)
            yield ny, words


def _map_witness(p, hitting, ny, budget):
    """The canonically first map with a hit, from a domain in the orbits
    of hitting into a labeled space on ny points: the least labeled
    domain of those orbits, then the first codomain and assignment that
    hit."""
    tx = first_in_orbits(hitting)
    facts = _domain_facts(tx)
    for ty in enumerate_topologies(ny, budget):
        for f in enumerate_maps(tx, ty):
            if p.evaluate(_fact_word(f, facts)):
                return Witness(p.id, _polarity(p), tx, codomain=ty,
                               assignment=f.assignment)


def _sweep_maps(props, budget):
    """One traversal of the maps in budget for map propositions; counts
    and witnesses are those of the labeled maps."""
    # domains range over n <= max_n, codomains over n <= codomain_n;
    # spaces_checked and the budget read the orbit sums of both sides
    top = max(budget.max_n, budget.codomain_n)
    both_sides = budget._replace(max_n=top)
    try:
        levels = list(_class_levels(both_sides))
    except BudgetExceeded:
        return [_report(p, budget, 0, 0, 0, 0, None, True) for p in props]
    counts = [sum(orbit for _, orbit in level) for level in levels]
    spaces = sum(counts)
    sizes = product(range(budget.max_n + 1), range(budget.codomain_n + 1))
    # ny ** nx maps per pair of spaces; checked before any map is counted
    total = sum(counts[nx] * counts[ny] * ny ** nx for nx, ny in sizes)
    if total > budget.max_maps:
        return [
            _report(p, budget, spaces, 0, 0, 0, None, True) for p in props
        ]
    hits = [0] * len(props)
    best = [None] * len(props)
    maps_ = 0
    for ny, words in _map_histograms(levels[:budget.max_n + 1],
                                     budget.codomain_n):
        maps_ += sum(count for count, _ in words.values())
        for i, p in enumerate(props):
            hit = [entry for word, entry in words.items() if p.evaluate(word)]
            hits[i] += sum(count for count, _ in hit)
            if best[i] is None and hit:
                hitting = [tx for _, txs in hit for tx in txs]
                best[i] = _map_witness(p, hitting, ny, both_sides)
    return [
        _report(p, budget, spaces, 0, maps_, hits[i], best[i], False)
        for i, p in enumerate(props)
    ]


def verify(p, budget: EnumerationBudget | None = None) -> SweepReport:
    """Exhaustively evaluate one proposition within the budget.

    Budget overruns surface as a budget-exhausted verdict, never as an
    exception.
    """
    return verify_all([p], budget)[0]


def verify_all(ids=None, budget: EnumerationBudget | None = None):
    """Sweep the requested propositions (default: the whole registry).

    ids holds proposition ids or Proposition objects.  The set- and
    space-scope propositions share one traversal of the spaces, the
    map-scope ones one traversal of the maps; budget None gives each
    group its default_budget.  Set and space evaluators take the table
    alone and must be kept by relabeling the points (see Proposition);
    one found to depend on the labels raises ValueError.  A long map
    traversal runs on a process pool (see _map_histograms); its report
    is byte-identical to the one-process one.  Reports come back in
    request order.
    """
    if ids is None:
        ids = registry()
    props = [proposition(p) if isinstance(p, str) else p for p in ids]
    swept = {}
    spatial = [p for p in props if p.scope != "map"]
    if spatial:
        swept.update(zip(spatial, _sweep_spaces(
            spatial, budget or default_budget("set"))))
    mapped = [p for p in props if p.scope == "map"]
    if mapped:
        swept.update(zip(mapped, _sweep_maps(
            mapped, budget or default_budget("map"))))
    return [swept[p] for p in props]


def acceptable(p, report: SweepReport) -> bool:
    """Did this sweep outcome meet the proposition's expectation?

    Universal claims must hold exhaustively.  Existential claims must
    find a witness; running out of budget without one is inconclusive
    rather than failed, so it stays acceptable.  Exploratory claims are
    recorded, never gating.
    """
    if isinstance(p, str):
        p = proposition(p)
    if p.exploratory:
        return True
    if p.existential:
        return report.verdict in (FOUND, EXHAUSTED)
    return report.verdict == HOLDS


# ---------------------------------------------------------------------------
# directed counterexample search and witness replay


# every set-scope existential claim is a _gap: the registered claim
# behind each tracked (class in, class out) pair
_KNOWN_GAPS = {p.evaluate.gap: p for p in _REGISTRY
               if p.scope == "set" and p.existential}


def _gap_proposition(class_from: SetClass, class_to: SetClass) -> Proposition:
    """The registered claim for a tracked gap, else an ad-hoc universal
    one: every class_from set is in class_to."""
    return _KNOWN_GAPS.get((class_from, class_to)) or Proposition(
        f"counterexample-{class_from.value}-to-{class_to.value}",
        KIND_IMP_SET, "set",
        f"every {class_from.value} set is {class_to.value}",
        _gap(class_from, class_to),
    )


def find_counterexample(class_from: SetClass, class_to: SetClass,
                        budget: EnumerationBudget | None = None):
    """First set in class_from but not class_to, in canonical order.

    Returns None when the inclusion holds everywhere within budget, and
    raises BudgetExceeded when a size is refused before any hit.  The
    orbit traversal stops after the first size with a hit.  The witness
    reuses the registered proposition id when the gap is one the
    registry tracks, so replay goes through the same evaluator.
    """
    budget = budget or default_budget("set")
    p = _gap_proposition(class_from, class_to)
    for _, _, _, (hitting,) in _orbit_levels([p], budget):
        if hitting:
            return _first_witness(p, hitting)
    return None


def _decode_witness(doc):
    if not isinstance(doc, dict):
        raise DocumentError("witness document must be an object")
    if not isinstance(doc.get("proposition"), str):
        raise DocumentError("witness document needs a 'proposition' string")
    pid, polarity = doc["proposition"], doc.get("polarity")
    if "map" in doc:
        f, _, _ = decode_map(doc["map"], per_subset=True)
        return Witness(pid, polarity, f.domain, codomain=f.codomain,
                       assignment=f.assignment)
    if "space" not in doc:
        raise DocumentError("witness document needs 'map' or 'space'")
    t, points = decode_space(doc["space"], per_subset=True)
    subset = None
    if "subset" in doc:
        if not isinstance(doc["subset"], list):
            raise DocumentError("witness subset must be a list of point names")
        index = {name: x for x, name in enumerate(points)}
        subset = names_to_mask(doc["subset"], index)
    return Witness(pid, polarity, t, subset=subset)


def _evaluate_witness(w: Witness) -> bool:
    pid = w.proposition_id
    # an ad-hoc id is one _gap_proposition gives an untracked gap
    gaps = (_gap_proposition(a, b) for a, b in product(SetClass, repeat=2))
    p = _BY_ID.get(pid) or next((g for g in gaps if g.id == pid), None)
    if p is None:
        raise KeyError(f"cannot replay unknown proposition {pid!r}")
    if (w.assignment is not None) != (p.scope == "map"):
        shape = "a map" if p.scope == "map" else "a space"
        raise DocumentError(f"witness for {pid!r} needs {shape}")
    if p.scope == "map":
        f = SpaceMap(w.topology, w.codomain, w.assignment)
        hit = p.evaluate(_fact_word(f, _domain_facts(f.domain)))
    else:
        got = p.evaluate(class_table(w.topology))
        if p.scope == "set":
            if w.subset is None:
                raise DocumentError(f"witness for {pid!r} needs a subset")
            got = got >> w.subset & 1
        hit = bool(got)
    return hit if p.existential else not hit


def replay_witness(doc) -> bool:
    """Re-evaluate a (possibly serialized) witness.

    True when the evaluation reproduces the recorded polarity: True for
    an existential example, False for a counterexample.  A malformed
    document, or a witness of the wrong shape or polarity for its
    proposition, raises DocumentError; an unknown id raises KeyError.
    A space, domain or codomain over 12 points raises GroundSetTooLarge
    (a document before its opens are read): replay scans every subset.
    """
    w = doc if isinstance(doc, Witness) else _decode_witness(doc)
    if w.polarity not in (EXAMPLE, COUNTEREXAMPLE):
        raise DocumentError(
            f"witness polarity must be {EXAMPLE!r} or {COUNTEREXAMPLE!r}, "
            f"got {w.polarity!r}"
        )
    val = _evaluate_witness(w)
    if w.polarity == EXAMPLE:
        return val is True
    return val is False
