"""Proposition registry, exhaustive sweeps, witness replay."""

import hashlib
import json
import os
import pickle
import random
from functools import cache, partial, reduce
from itertools import product
from operator import and_

import pytest

from fintopo import (
    BudgetExceeded,
    ContinuityClass,
    DocumentError,
    EnumerationBudget,
    GroundSetTooLarge,
    SetClass,
    SpaceMap,
    Witness,
    acceptable,
    class_table,
    continuity_profile,
    encode_map,
    enumerate_isomorphism_classes,
    enumerate_maps,
    enumerate_topologies,
    enumeration,
    find_counterexample,
    is_continuous_in,
    is_strongly_irresolute,
    proposition,
    registry,
    replay_witness,
    serialize_report,
    setclasses,
    spaceprops,
    strongly_irresolute_scl,
    verify,
    verify_all,
    maps,
    theorems,
)

from fintopo.cli import main
from fintopo.enumeration import _class_levels, first_in_orbits
from fintopo.setclasses import is_semi_open

from helpers import (
    FakePool,
    allow_cpus,
    canonical_rows_by_brute_force,
    chunk_segments,
    force_pool,
    four_point_space,
    indiscrete,
    labeled_map_histogram,
    labeled_sweep_maps,
    labeled_sweep_spaces,
    labeled_topologies,
    labeled_trace_table,
    random_preorder_topology,
    sierpinski,
    three_point_space,
)

# map sweep with four-point domains but codomains capped at two points
CAPPED = EnumerationBudget(max_n=4, codomain_max_n=2)

# the full registry, in sweep order
EXPECTED_IDS = (
    "l00", "t00", "cor-submax", "t0", "t0a",
    "chain-a-ab", "chain-ab-b", "chain-ab-so", "chain-a-lc", "chain-lc-b",
    "equiv-tset", "equiv-sr-sandwich", "equiv-bset-scl", "equiv-scl-form",
    "equiv-ic-subspace",
    "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "nonrev-ab-a", "nonrev-ab-b", "nonrev-ab-so", "indep-ab-lc",
    "indep-lc-ab",
    "s41-i", "s41-ii", "s41-iii", "s41-iv", "s42", "s42a", "s43",
    "equiv-strirr-scl",
    "nonrev-s41-i", "nonrev-s41-ii", "nonrev-s41-iii", "nonrev-s41-iv",
)

# sha256 of serialize_report(verify_all()), the default `verify all`
# report: 27 set/space propositions on <= 4 points, 12 map propositions
# on <= 3
DEFAULT_REPORT_SHA256 = (
    "51835d0e3dffb0653a96403ceea8e6772acc4a54fca20b4fa6fd820a9875713c"
)

KINDS = {
    "equivalence-per-space", "equivalence-per-set", "implication-per-set",
    "implication-per-map", "equivalence-per-map", "existence-of-witness",
}


def test_registry_manifest():
    props = registry()
    assert tuple(p.id for p in props) == EXPECTED_IDS
    assert len(props) >= 24


def test_registry_shape():
    for p in registry():
        assert p.kind in KINDS
        assert p.scope in {"space", "set", "map"}
        assert p.existential == (p.kind == "existence-of-witness")
        assert p.description
    assert proposition("t5").kind == "equivalence-per-space"
    assert proposition("s41-i").scope == "map"
    assert proposition("equiv-strirr-scl").exploratory is True
    assert proposition("t00").exploratory is False


def test_unknown_proposition():
    with pytest.raises(KeyError):
        proposition("no-such-claim")


def test_set_sweep_counts_and_verdict():
    report = verify("t00", EnumerationBudget(max_n=3))
    assert report.verdict == "holds-exhaustively"
    assert report.spaces_checked == 1 + 1 + 4 + 29
    assert report.sets_checked == 1 + 2 + 4 * 4 + 29 * 8
    assert report.maps_checked == 0
    assert report.hits == 0
    assert report.witnesses == []


def test_space_sweep_verdict():
    report = verify("t1", EnumerationBudget(max_n=3))
    assert report.verdict == "holds-exhaustively"
    assert report.spaces_checked == 35
    assert report.sets_checked == 0


def test_verify_accepts_id_or_proposition():
    budget = EnumerationBudget(max_n=2)
    by_id = verify("t4", budget)
    by_obj = verify(proposition("t4"), budget)
    assert by_id.to_document() == by_obj.to_document()


def test_existential_first_witness_is_canonical():
    # smallest B-set that is not an AB-set lives on the two-point space
    # with one open singleton
    report = verify("nonrev-ab-b", EnumerationBudget(max_n=2))
    assert report.verdict == "witness-found"
    assert report.hits == 2  # one in each of the two mirrored copies
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    assert w.topology == sierpinski()
    assert w.subset == 0b10
    assert w.polarity == "example-for-existential"
    assert replay_witness(w) is True


def test_witness_survives_serialization():
    report = verify("nonrev-ab-b", EnumerationBudget(max_n=2))
    doc = report.witnesses[0].to_document()
    round_tripped = json.loads(json.dumps(doc))
    assert replay_witness(round_tripped) is True


def test_map_witness_document_shape():
    report = verify("nonrev-s41-ii", EnumerationBudget(max_n=2))
    assert report.verdict == "witness-found"
    doc = report.witnesses[0].to_document()
    assert set(doc) == {"proposition", "polarity", "map"}
    assert set(doc["map"]) == {"domain", "codomain", "assignment"}
    assert replay_witness(doc) is True


def test_replay_refuses_a_thirteen_point_codomain():
    # replay lists the preimage of every codomain subset; a document is
    # refused before its opens are read
    w = Witness("nonrev-s41-ii", "example-for-existential", sierpinski(),
                codomain=indiscrete(13), assignment=(0, 1))
    for replayed in (w, w.to_document()):
        with pytest.raises(GroundSetTooLarge, match=r"2\^13 subsets"):
            replay_witness(replayed)


def test_find_counterexample_registered_gap():
    w = find_counterexample(SetClass.B_SET, SetClass.AB_SET)
    assert w.proposition_id == "nonrev-ab-b"
    assert w.polarity == "example-for-existential"
    assert w.topology == sierpinski()
    assert w.subset == 0b10
    assert replay_witness(w) is True


def test_find_counterexample_synthetic_id():
    w = find_counterexample(SetClass.OPEN, SetClass.CLOSED)
    assert w.proposition_id == "counterexample-open-to-closed"
    assert w.polarity == "counterexample-to-universal"
    assert w.topology == sierpinski()
    assert w.subset == 0b01
    assert replay_witness(w) is True
    assert replay_witness(json.loads(json.dumps(w.to_document()))) is True


def test_find_counterexample_none_for_true_inclusion():
    assert find_counterexample(SetClass.OPEN, SetClass.SEMI_OPEN) is None
    assert find_counterexample(SetClass.A_SET, SetClass.AB_SET) is None


def test_replay_rejects_unknown_id():
    doc = {
        "proposition": "no-such-claim",
        "polarity": "counterexample-to-universal",
        "space": {"points": ["a"], "opens": [[], ["a"]]},
        "subset": ["a"],
    }
    with pytest.raises(KeyError):
        replay_witness(doc)


_SPACE_WITNESS = {
    "proposition": "nonrev-ab-b",
    "polarity": "example-for-existential",
    "space": {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]},
    "subset": ["b"],
}


@pytest.mark.parametrize("doc, message", [
    ({k: v for k, v in _SPACE_WITNESS.items() if k != "polarity"},
     "polarity must be"),
    ({**_SPACE_WITNESS, "polarity": "bogus"}, "got 'bogus'"),
    ({**_SPACE_WITNESS, "proposition": "s41-i"}, "'s41-i' needs a map"),
    (["nonrev-ab-b"], "must be an object"),
    ({k: v for k, v in _SPACE_WITNESS.items() if k != "space"},
     "needs 'map' or 'space'"),
    ({**_SPACE_WITNESS, "subset": 1}, "subset must be a list"),
], ids=["no-polarity", "bogus-polarity", "map-id-space-witness",
        "not-an-object", "no-space", "subset-not-a-list"])
def test_replay_rejects_malformed_document(doc, message):
    assert replay_witness(_SPACE_WITNESS) is True
    with pytest.raises(DocumentError, match=message):
        replay_witness(doc)


def test_replay_ad_hoc_witness_needs_a_subset():
    w = find_counterexample(SetClass.OPEN, SetClass.CLOSED)
    doc = w.to_document()
    del doc["subset"]
    with pytest.raises(ValueError, match="needs a subset"):
        replay_witness(doc)


def test_replay_tracked_gap_only_under_its_registered_id():
    doc = find_counterexample(SetClass.B_SET, SetClass.AB_SET).to_document()
    assert replay_witness(doc) is True
    doc["proposition"] = "counterexample-B-set-to-AB-set"
    with pytest.raises(KeyError):
        replay_witness(doc)


def test_space_budget_exhaustion_is_a_verdict():
    report = verify("t00", EnumerationBudget(max_n=3, max_spaces=5))
    assert report.verdict == "budget-exhausted"
    assert report.witnesses == []
    assert acceptable("t00", report) is False


def test_map_budget_refusal_is_deterministic():
    report = verify("s42", EnumerationBudget(max_n=2, max_maps=10))
    assert report.verdict == "budget-exhausted"
    assert report.maps_checked == 0
    assert report.spaces_checked == 6


def test_acceptable_semantics():
    budget = EnumerationBudget(max_n=2)
    held = verify("t1", budget)
    assert acceptable("t1", held) is True
    found = verify("nonrev-ab-b", budget)
    assert acceptable("nonrev-ab-b", found) is True
    # no semi-open non-AB set exists on two points or fewer: inconclusive,
    # not failed
    dry = verify("nonrev-ab-so", budget)
    assert dry.verdict == "budget-exhausted"
    assert acceptable("nonrev-ab-so", dry) is True


def test_exploratory_never_gates():
    report = verify("equiv-strirr-scl", EnumerationBudget(max_n=2))
    assert report.verdict == "holds-exhaustively"
    assert acceptable("equiv-strirr-scl", report) is True


def test_parallel_report_is_byte_identical(monkeypatch):
    budget = EnumerationBudget(max_n=2)
    seq = verify("s41-iii", budget)
    force_pool(monkeypatch)
    par = verify("s41-iii", budget)
    assert serialize_report(seq) == serialize_report(par)
    assert seq.maps_checked == par.maps_checked == 83


def test_serialization_is_deterministic_across_runs():
    budget = EnumerationBudget(max_n=2)
    first = serialize_report(verify("t00", budget))
    second = serialize_report(verify("t00", budget))
    assert first == second
    assert first.endswith("\n")


def test_verify_all_selection_and_order():
    reports = verify_all(["t5", "t4"], EnumerationBudget(max_n=2))
    assert [r.proposition_id for r in reports] == ["t5", "t4"]
    assert all(r.verdict == "holds-exhaustively" for r in reports)


def test_report_document_fields():
    report = verify("t7", EnumerationBudget(max_n=2))
    doc = report.to_document()
    assert doc["proposition"] == "t7"
    assert doc["kind"] == "equivalence-per-space"
    assert doc["n_range"] == [0, 2]
    assert doc["budget"]["max_n"] == 2
    assert doc["verdict"] == "holds-exhaustively"
    assert doc["witnesses"] == []
    text = serialize_report([report])
    assert json.loads(text)[0] == json.loads(json.dumps(doc))


def test_records_survive_pickling():
    # reports, their witnesses and budgets are named tuples; a round trip
    # keeps their type, their fields and their report bytes
    reports = [verify("nonrev-ab-b", EnumerationBudget(max_n=2)),
               verify("nonrev-s41-i", CAPPED)]
    for report in reports:
        (w,) = report.witnesses
        for record in (report, w, report.budget):
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record) and back == record
        assert serialize_report(pickle.loads(pickle.dumps(report))) == (
            serialize_report(report))
    assert reports[1].witnesses[0].assignment is not None


def test_default_budgets_by_scope():
    assert verify("t4").budget.max_n == 4
    assert verify("s41-i").budget.max_n == 3


def test_four_point_domain_witness_for_nonrev_s41_i():
    # no map between spaces on <= 3 points is AB-continuous without
    # being A-continuous (every such space has its AB-sets among its
    # A-sets), so this existential needs a four-point domain
    dry = verify("nonrev-s41-i", EnumerationBudget(max_n=3))
    assert dry.verdict == "budget-exhausted"
    assert dry.maps_checked == 24907  # complete sweep, not a cutoff

    f = SpaceMap(four_point_space(), sierpinski(), (1, 0, 0, 1))
    assert is_continuous_in(f, ContinuityClass.AB_CONTINUOUS) is True
    assert is_continuous_in(f, ContinuityClass.A_CONTINUOUS) is False
    w = Witness("nonrev-s41-i", "example-for-existential",
                four_point_space(), codomain=sierpinski(),
                assignment=(1, 0, 0, 1))
    assert replay_witness(w) is True
    assert replay_witness(json.loads(json.dumps(w.to_document()))) is True

    # the engine finds a witness of its own once domains reach four points
    found = verify("nonrev-s41-i", CAPPED)
    assert found.verdict == "witness-found"
    engine_w = found.witnesses[0]
    assert engine_w.topology.n == 4
    assert engine_w.codomain.n <= 2
    assert replay_witness(engine_w) is True
    doc = json.loads(json.dumps(engine_w.to_document()))
    assert replay_witness(doc) is True


def test_codomain_cap_sweeps_capped_pairs_only():
    # domains on <= 4 points (1+1+4+29+355 spaces) into codomains on
    # <= 2 points (1+1+4 spaces): sum over domain sizes n of
    # count(n) * (0**n + 1 + 4 * 2**n) = 6 + 9 + 68 + 957 + 23075
    # max_maps is compared against that capped total
    exact = EnumerationBudget(max_n=4, codomain_max_n=2, max_maps=24115)
    report = verify("s41-i", exact)
    assert report.verdict == "holds-exhaustively"
    assert report.maps_checked == 24115
    assert report.spaces_checked == 390
    short = EnumerationBudget(max_n=4, codomain_max_n=2, max_maps=24114)
    assert verify("s41-i", short).verdict == "budget-exhausted"


def test_codomain_cap_above_max_n():
    # domains on <= 2 points into codomains on <= 3 points
    report = verify("s41-i", EnumerationBudget(max_n=2, codomain_max_n=3))
    assert report.verdict == "holds-exhaustively"
    assert report.maps_checked == 35 + 96 + 1112
    assert report.spaces_checked == 35


def test_codomain_cap_parallel_report_is_byte_identical(monkeypatch):
    # domains on <= 3 points into codomains on <= 2 points: 6+9+68+957
    budget = EnumerationBudget(max_n=3, codomain_max_n=2)
    seq = verify("nonrev-s41-ii", budget)
    force_pool(monkeypatch)
    par = verify("nonrev-s41-ii", budget)
    assert serialize_report(seq) == serialize_report(par)
    assert seq.verdict == "witness-found"
    assert seq.maps_checked == par.maps_checked == 1040


def test_codomain_cap_report_keys():
    plain = verify("s42", EnumerationBudget(max_n=2)).to_document()
    assert set(plain["budget"]) == {"max_n", "max_spaces", "max_maps"}
    assert set(plain) == {
        "proposition", "kind", "description", "budget", "n_range",
        "spaces_checked", "sets_checked", "maps_checked", "hits",
        "verdict", "witnesses",
    }
    capped = verify(
        "s42", EnumerationBudget(max_n=2, codomain_max_n=1)
    ).to_document()
    assert capped["budget"]["codomain_max_n"] == 1
    assert capped["n_range"] == [0, 2]
    assert capped["codomain_n_range"] == [0, 1]


def test_codomain_cap_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(codomain_max_n=-1)
    assert EnumerationBudget(max_n=0, codomain_max_n=0).codomain_n == 0
    assert EnumerationBudget(max_n=3).codomain_n == 3


def test_witness_subset_names():
    w = Witness("t00", "counterexample-to-universal", sierpinski(),
                subset=0b10)
    doc = w.to_document()
    assert doc["space"]["points"] == ["a", "b"]
    assert doc["subset"] == ["b"]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_default_report_bytes_one_traversal_per_scope(monkeypatch):
    calls = []
    real = theorems.enumerate_topologies

    def counted(n, budget=None):
        calls.append(n)
        return real(n, budget)
    monkeypatch.setattr(theorems, "enumerate_topologies", counted)
    assert _sha256(serialize_report(verify_all())) == DEFAULT_REPORT_SHA256
    # one codomain size per map witness, all three on two points; the
    # sweeps themselves walk isomorphism classes, not the labeled stream
    assert calls == [2, 2, 2]


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_default_report_starts_no_pool(monkeypatch):
    # 395 _open_bits calls at the default (3, 3), 18,809 at (4, 4): both
    # below the constant
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(theorems, "Pool", _no_pool)
    assert _sha256(serialize_report(verify_all())) == DEFAULT_REPORT_SHA256
    verify_all(MAP_IDS, EnumerationBudget(max_n=4, codomain_max_n=4,
                                          max_maps=10**12))


def test_long_map_sweep_uses_one_pool(monkeypatch):
    # 116,348 _open_bits calls at (5, 3), above the constant
    budget = EnumerationBudget(max_n=5, codomain_max_n=3, max_maps=10**12)
    allow_cpus(monkeypatch, 1)
    monkeypatch.setattr(theorems, "Pool", _no_pool)
    in_process = serialize_report(verify_all(MAP_IDS, budget))
    made = []
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(theorems, "Pool", partial(FakePool, made))
    assert serialize_report(verify_all(MAP_IDS, budget)) == in_process
    assert made == [2]


@pytest.mark.parametrize("affinity, pools", [(1, []), (3, [3])])
def test_pool_size_follows_cpu_affinity(monkeypatch, affinity, pools):
    # os.cpu_count is the machine's; the affinity mask is what taskset
    # sets, and one CPU gets no pool
    made = []
    monkeypatch.setattr(theorems, "_POOL_MIN_CALLS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(theorems, "Pool", partial(FakePool, made))
    verify_all(MAP_IDS, EnumerationBudget(max_n=2))
    assert made == pools


@pytest.mark.parametrize("max_n, codomain_max_n, calls", [
    (5, 1, 186), (3, 3, 395), (4, 2, 1_091), (4, 4, 18_809),
])
def test_pool_threshold_reads_the_open_bits_calls(monkeypatch, max_n,
                                                  codomain_max_n, calls):
    # the sweep counts its _open_bits calls before making them, and
    # takes the pool only above the constant
    budget = EnumerationBudget(max_n=max_n, codomain_max_n=codomain_max_n,
                               max_maps=10**12)
    made, counted = [], []
    real = theorems._open_bits
    monkeypatch.setattr(theorems, "_open_bits",
                        lambda *args: counted.append(1) or real(*args))
    force_pool(monkeypatch)
    monkeypatch.setattr(theorems, "Pool", partial(FakePool, made))
    for threshold, pools in ((calls, []), (calls - 1, [2])):
        monkeypatch.setattr(theorems, "_POOL_MIN_CALLS", threshold)
        made.clear()
        counted.clear()
        verify_all(MAP_IDS, budget)
        assert (len(counted), made) == (calls, pools)


def test_map_budget_is_checked_before_pairs_exist():
    # 7,332 spaces on <= 5 points make 7332**2 pairs and far more maps
    # than max_maps; the refusal comes from per-size counts alone
    report = verify("s41-i", EnumerationBudget(max_n=5))
    assert report.verdict == "budget-exhausted"
    assert report.maps_checked == 0
    assert report.spaces_checked == 7332


# sha256 of serialize_report of the 12 map propositions refused at
# max_n=6 (by max_maps) and max_n=7 (by max_spaces), recorded from the
# sweep that enumerated every labeled space on both sides first
MAP_REFUSAL_SHA256 = {
    6: "ec2f8766bd5422b918410d3fba769a339e578dcbb91e3f42250f8a8150f30db8",
    7: "fca09fd67c0f0fb937c38b100d154b3cc3701a38fccabb1e86c06c67d3ebe7c6",
}


def _no_labeled_spaces(*args, **kwargs):
    raise AssertionError("labeled topologies built for a refused sweep")


@pytest.mark.parametrize("max_n, spaces", [(6, 216_859), (7, 0)])
def test_map_refusal_builds_no_labeled_space(monkeypatch, max_n, spaces):
    # sizes 0..6 fit max_spaces, but their maps exceed max_maps; seven
    # points hold 9,535,241 spaces, more than max_spaces
    monkeypatch.setattr(theorems, "enumerate_topologies", _no_labeled_spaces)
    reports = verify_all(MAP_IDS, EnumerationBudget(max_n=max_n))
    for report in reports:
        assert report.verdict == "budget-exhausted"
        assert (report.spaces_checked, report.maps_checked) == (spaces, 0)
    assert _sha256(serialize_report(reports)) == MAP_REFUSAL_SHA256[max_n]


def test_fact_words_agree_with_definitions():
    # every map between spaces on <= 3 points: one bit per continuity
    # class against the definitional maps.is_continuous_in, the scl bit
    # against maps.strongly_irresolute_scl
    spaces = [t for n in range(4) for t in enumerate_topologies(n)]
    maps_ = 0
    for tx in spaces:
        facts = maps._domain_facts(tx)
        for ty in spaces:
            for f in enumerate_maps(tx, ty):
                word = maps._fact_word(f, facts)
                for cc in ContinuityClass:
                    holds = is_continuous_in(f, cc)
                    assert (word & maps._CLASS_BIT[cc] != 0) == holds
                scl_ok = word & maps._SCL_OK != 0
                assert scl_ok == strongly_irresolute_scl(f)
                maps_ += 1
    assert maps_ == 24907


def test_scl_bit_agrees_with_oracles_on_larger_maps():
    # _SCL_OK reads the unions of fibers off the semi-closed family; it
    # must agree with the literal image form, both preimage forms of
    # strong irresoluteness and "every fiber is semi-open" (unions of
    # fibers are closed under complement, semi-open sets under union)
    rng = random.Random(2718)
    strirr = maps._CLASS_BIT[ContinuityClass.STRONGLY_IRRESOLUTE]
    seen = {True: 0, False: 0}
    for j in range(1500):
        nx, ny = rng.randint(4, 8), rng.randint(1, 5)
        tx = random_preorder_topology([rng.getrandbits(nx) for _ in range(nx)])
        ty = random_preorder_topology([rng.getrandbits(ny) for _ in range(ny)])
        # few image points make fibers coarse, so verdicts vary
        targets = rng.sample(range(ny), 1 + j % min(ny, 3))
        f = SpaceMap(tx, ty, [rng.choice(targets) for _ in range(nx)])
        word = maps._fact_word(f, maps._domain_facts(tx))
        fibers = [sum(1 << x for x, y in enumerate(f.assignment) if y == z)
                  for z in range(ny)]
        verdicts = {
            word & maps._SCL_OK != 0,
            word & strirr != 0,
            strongly_irresolute_scl(f),
            is_strongly_irresolute(f),
            all(is_semi_open(tx, fiber) for fiber in fibers),
        }
        assert len(verdicts) == 1, f.assignment
        seen[verdicts.pop()] += 1
    assert min(seen.values()) >= 500, seen


SET_SPACE_IDS = [p.id for p in registry() if p.scope != "map"]
BIG = os.environ.get("FINTOPO_BIG_SWEEPS") == "1"


def _orbit_and_labeled(monkeypatch, ids, budget):
    """serialize_report of the orbit sweep and of the labeled oracle."""
    orbit = verify_all(ids, budget)
    with monkeypatch.context() as m:
        m.setattr(theorems, "_sweep_spaces", labeled_sweep_spaces)
        labeled = verify_all(ids, budget)
    for report in orbit:
        for w in report.witnesses:
            assert replay_witness(w) is True
            assert replay_witness(json.loads(json.dumps(w.to_document())))
    return serialize_report(orbit), serialize_report(labeled)


@pytest.mark.parametrize("max_n", [
    # the default max_spaces at five points does the same work as the
    # size-boundary case 6942, so it runs only in big sweeps
    pytest.param(n, marks=pytest.mark.skipif(
        n == 5 and not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable"))
    for n in range(6)
])
def test_orbit_sweep_matches_labeled_oracle(monkeypatch, max_n):
    orbit, labeled = _orbit_and_labeled(
        monkeypatch, SET_SPACE_IDS, EnumerationBudget(max_n=max_n)
    )
    assert orbit == labeled


# labeled topologies per size, OEIS A000798: a size is refused iff it
# has more than max_spaces
_LABELED = [1, 1, 4, 29, 355, 6942]
_BOUNDARIES = sorted({
    cap for total in _LABELED[1:] for cap in (total - 1, total, total + 1)
} - {0})


@pytest.mark.parametrize("max_spaces", [
    # 6943 does the same work as 6942, so it runs only in big sweeps
    pytest.param(cap, marks=pytest.mark.skipif(
        cap > _LABELED[-1] and not BIG,
        reason="set FINTOPO_BIG_SWEEPS=1 to enable"))
    for cap in _BOUNDARIES
])
def test_orbit_sweep_matches_labeled_oracle_at_size_boundaries(
    monkeypatch, max_spaces,
):
    budget = EnumerationBudget(max_n=5, max_spaces=max_spaces)
    orbit, labeled = _orbit_and_labeled(monkeypatch, SET_SPACE_IDS, budget)
    assert orbit == labeled
    exhausted = max_spaces < _LABELED[-1]
    checked = sum(t for t in _LABELED if t <= max_spaces)
    for doc in json.loads(orbit):
        assert doc["spaces_checked"] == checked
        # every universal claim holds, so only a refused size stops it
        if not proposition(doc["proposition"]).existential:
            assert (doc["verdict"] == "budget-exhausted") == exhausted


def test_orbit_sweep_matches_labeled_oracle_with_repeated_ids(monkeypatch):
    ids = ["t00", "nonrev-ab-b", "t00", "t5", "nonrev-ab-b", "t5"]
    orbit, labeled = _orbit_and_labeled(
        monkeypatch, ids, EnumerationBudget(max_n=4)
    )
    assert orbit == labeled
    assert [d["proposition"] for d in json.loads(orbit)] == ids


# sha256 of serialize_report of the 27 set/space propositions at max_n=6,
# and at max_n=7 with max_spaces raised, recorded from the sweep in which
# equiv-sr-sandwich and equiv-bset-scl decided each subset on its own;
# at max_n=8, recorded from the sweep in which the oracles and space
# properties called interior once per subset
SET_SPACE_REPORTS = {
    6: (EnumerationBudget(max_n=6),
        "c0160ed712721340bfea6a7f4c1826c5e7db317097b6cfc7babe99f37c62c2d7"),
    7: (EnumerationBudget(max_n=7, max_spaces=10_000_000),
        "ab81d8acf92301116107db5c69d3f34f5597fd3cd38c5244b76cc635ae2e308a"),
    8: (EnumerationBudget(max_n=8, max_spaces=10**9),
        "d53f67b93fd44d1525da7b919fe6c2dd5defd11009fdbfe40f6774759711b33c"),
}


@pytest.mark.parametrize("max_n", [
    6,
    # 9,752,100 labeled spaces, 4,535 classes on seven points, and
    # 652,531,454 labeled spaces, 35,979 classes on eight
    *(pytest.param(n, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable"))
      for n in (7, 8)),
])
def test_set_space_reports_pinned(max_n):
    budget, digest = SET_SPACE_REPORTS[max_n]
    report = serialize_report(verify_all(SET_SPACE_IDS, budget))
    assert _sha256(report) == digest


def _flipped(table, cls, bits):
    """A copy of table with the membership in cls of the bits flipped."""
    bitmaps = {c: table.family_bitmap(c) for c in SetClass}
    bitmaps[cls] ^= bits
    return setclasses.ClassTable(table.topologies, bitmaps)


@pytest.mark.parametrize("pid, cls", [
    ("equiv-sr-sandwich", SetClass.SEMI_REGULAR),
    ("equiv-bset-scl", SetClass.B_SET),
    ("equiv-ic-subspace", SetClass.IC_SET),
])
def test_oracles_catch_a_corrupted_table(monkeypatch, pid, cls):
    # one flipped bit of the table is a hit at exactly that subset
    p = proposition(pid)
    for t in (four_point_space(), sierpinski(), indiscrete(3)):
        table = class_table(t)
        assert p.evaluate(table) == 0
        for a in t.subsets():
            assert p.evaluate(_flipped(table, cls, 1 << a)) == 1 << a
    # the full set is in each family of every space, so dropping it
    # from every table the sweep builds makes it hit once per labeled
    # space
    def corrupted(spaces):
        table = setclasses.ClassTable(spaces)
        return _flipped(table, cls, table.fill(1 << (1 << table.n) - 1))

    monkeypatch.setattr(theorems, "ClassTable", corrupted)
    report = verify(pid, EnumerationBudget(max_n=3))
    assert report.verdict == "witness-found"
    assert report.hits == report.spaces_checked == 35
    assert report.witnesses[0].subset == 0


def test_oracles_catch_a_corrupted_semi_closed_bit():
    # equiv-tset hits at exactly the flipped subset, and equiv-scl-form
    # hits wherever the flip moves the fold over the semi-closed family
    tset, scl_form = proposition("equiv-tset"), proposition("equiv-scl-form")
    moved = 0
    for t in (four_point_space(), sierpinski(), indiscrete(3),
              three_point_space()):
        table = class_table(t)
        assert tset.evaluate(table) == 0
        assert scl_form.evaluate(table) == 0
        want = setclasses.semi_closures(t)
        for a in t.subsets():
            flipped = _flipped(table, SetClass.SEMI_CLOSED, 1 << a)
            assert tset.evaluate(flipped) == 1 << a
            scl = setclasses._superset_meets(
                t.n, flipped.family(SetClass.SEMI_CLOSED))
            hits = sum(1 << b for b in t.subsets() if scl[b] != want[b])
            assert scl_form.evaluate(flipped) == hits
            moved += hits != 0
    assert moved > 20


def _one_space_hits(p, t):
    return p.evaluate(class_table(t))


@pytest.mark.parametrize("n", range(6))
def test_chunked_evaluators_match_one_space_evaluations(n):
    # every set/space proposition on a chunk of K = 2, 3 or all spaces
    # gives, segment by segment, its hits on each space's own table, and
    # hits the same spaces: a shift that leaks across segments (the
    # projection, t7's mirror, t5's singletons, t4's equality) shows as
    # a wrong bit in a neighbour.  Every labeled space on at most four
    # points and every class on five; a size with fewer than four
    # spaces is repeated, so that its chunks hold several.
    budget = EnumerationBudget(max_n=5)
    if n < 5:
        spaces = list(enumerate_topologies(n, budget))
    else:
        spaces = [t for t, _ in enumerate_isomorphism_classes(n, budget)]
    if len(spaces) < 4:
        spaces *= 3
    props = [proposition(pid) for pid in SET_SPACE_IDS]
    want = {p.id: [_one_space_hits(p, t) for t in spaces] for p in props}
    hit = set()
    for size in (2, 3, len(spaces)):
        for start in range(0, len(spaces), size):
            chunk = spaces[start:start + size]
            table = setclasses.ClassTable(chunk)
            for p in props:
                got = p.evaluate(table)
                one = want[p.id][start:start + size]
                assert chunk_segments(got, n, len(chunk)) == one, (
                    p.id, size, start)
                assert table.spaces(table.starts ^ table.empty(got)) == [
                    t for t, bits in zip(chunk, one) if bits]
                hit.update(p.id for bits in one if bits)
    # existential claims hit from two points on
    assert bool(hit) == (n >= 2)


def _sweep_keeps_its_bytes(want):
    """The 27 set/space propositions at max_n=5 give the report want,
    and their 5 witnesses replay."""
    reports = verify_all(SET_SPACE_IDS, EnumerationBudget(max_n=5))
    assert serialize_report(reports) == want
    witnesses = [w for report in reports for w in report.witnesses]
    assert len(witnesses) == 5
    assert all(replay_witness(w) for w in witnesses)


def test_set_space_sweep_builds_no_semi_closure_table(monkeypatch):
    # l00, equiv-scl-form and the B-set route read sCl off point planes,
    # so the sweep and its witnesses never fold a per-subset
    # semi-closure table
    want = serialize_report(verify_all(SET_SPACE_IDS,
                                       EnumerationBudget(max_n=5)))

    def refuse(*args):
        raise AssertionError("a semi-closure table was built")

    for route in (setclasses.semi_closures,
                  setclasses.b_set_via_semi_closure_bitmap,
                  setclasses.semi_regular_sandwich_bitmap):
        route.cache_clear()
    setclasses.class_table.cache_clear()
    monkeypatch.setattr(setclasses, "_superset_meets", refuse)
    _sweep_keeps_its_bytes(want)


def test_set_space_sweep_calls_no_space_profile(monkeypatch):
    # a space property reaches a formula through ClassTable.per_space,
    # one predicate at a time, so neither the sweep nor witness replay
    # asks space_profile for every property of a space
    want = serialize_report(verify_all(SET_SPACE_IDS,
                                       EnumerationBudget(max_n=5)))

    def refuse(t):
        raise AssertionError("space_profile called")

    monkeypatch.setattr(spaceprops, "space_profile", refuse)
    monkeypatch.setattr(theorems, "space_profile", refuse, raising=False)
    _sweep_keeps_its_bytes(want)


def _splits_by_scan(ab, full):
    """t7's split, one subset at a time: some nonempty a and full - a
    are both AB-sets."""
    return any(ab >> a & 1 and ab >> (full ^ a) & 1 for a in range(1, full))


def test_t7_split_formula_matches_per_subset_scan(monkeypatch):
    # with semi-connectedness read as True, t7 hits exactly the spaces
    # that split, and with it read as False exactly those that do not:
    # every space on at most five points (n = 0 and n = 1 included) and
    # seeded sparse and dense spaces on 8 to 12 points
    t7 = proposition("t7")
    rng = random.Random(2407)
    spaces = [t for n in range(6)
              for t in enumerate_topologies(n, EnumerationBudget(max_n=5))]
    # seed rows that AND more draws are sparser and give more opens
    for n, draws, _ in product(range(8, 13), (2, 3, 4), range(3)):
        spaces.append(random_preorder_topology([
            reduce(and_, [rng.getrandbits(n) for _ in range(draws)])
            for _ in range(n)]))
    seen = set()
    for t in spaces:
        table = class_table(t)
        split = _splits_by_scan(table.family_bitmap(SetClass.AB_SET), t.full)
        monkeypatch.setattr(theorems, "is_semi_connected", lambda t: True)
        assert t7.evaluate(table) == split, t
        monkeypatch.setattr(theorems, "is_semi_connected", lambda t: False)
        assert t7.evaluate(table) == (not split), t
        seen.add((t.n > 5, split))
    # both outcomes occur among the small spaces and among the seeded ones
    assert len(seen) == 4


def test_orbit_witness_is_the_least_labeled_member(monkeypatch):
    # one ad-hoc claim per class on <= 4 points, hit by the nonempty
    # opens of that class's spaces only.  Many representatives are not
    # the first labeled member of their class, and the least nonempty
    # open depends on the labeling, so the witness shows whether the
    # sweep reports the first labeled hit.
    form = cache(canonical_rows_by_brute_force)

    def only(target):
        def ev(table):
            keep = table.where([form(t.min_nbhd) == target
                                for t in table.topologies])
            return (table.family_bitmap(SetClass.OPEN) & ~table.starts
                    & table.spread(keep))
        return ev

    budget = EnumerationBudget(max_n=4)
    props = [
        theorems.Proposition(
            f"class-{k}", "implication-per-set", "set", "no such space",
            only(form(t.min_nbhd)),
        )
        for k, (t, _) in enumerate(
            c for n in range(5)
            for c in enumerate_isomorphism_classes(n, budget)
        )
    ]
    orbit = verify_all(props, budget)
    with monkeypatch.context() as m:
        m.setattr(theorems, "_sweep_spaces", labeled_sweep_spaces)
        labeled = verify_all(props, budget)
    assert serialize_report(orbit) == serialize_report(labeled)
    assert all(r.witnesses for r in orbit[1:])


def test_label_dependent_evaluator_is_refused():
    # an evaluator that hits one labeling of a class but not its least
    # labeled member cannot be swept by orbits
    budget = EnumerationBudget(max_n=3)
    rep = next(
        t for n in range(4) for t, _ in enumerate_isomorphism_classes(n, budget)
        if first_in_orbits([t]) != t
    )
    p = theorems.Proposition(
        "label-dependent", "implication-per-set", "set", "not this labeling",
        lambda table: table.where([t == rep for t in table.topologies]),
    )
    with pytest.raises(ValueError, match="depends on the point labels"):
        verify_all([p], budget)


def test_orbit_sweep_counts_labeled_spaces():
    report = verify("nonrev-ab-b", EnumerationBudget(max_n=5))
    assert report.spaces_checked == sum(_LABELED)
    assert report.sets_checked == sum(t << n for n, t in enumerate(_LABELED))
    assert report.witnesses[0].topology == sierpinski()


def test_orbit_sweep_refuses_seven_points_part_way():
    # sizes 0..6 hold 216,859 labeled spaces; n = 7 holds 9,535,241,
    # more than the default max_spaces, so it is refused
    report = verify("t4", EnumerationBudget(max_n=7))
    assert report.verdict == "budget-exhausted"
    assert report.spaces_checked == 216_859


def _first_gaps_by_labeled_scan(budget):
    """{(class_from, class_to): (topology, subset)} of the first labeled
    set in class_from but not class_to, for every pair with one."""
    pairs = list(product(SetClass, repeat=2))
    first = {}
    for n in range(budget.max_n + 1):
        for t in labeled_topologies(n, budget):
            table = class_table(t)
            for a, b in pairs:
                gap = table.family_bitmap(a) & ~table.family_bitmap(b)
                if gap and (a, b) not in first:
                    first[a, b] = (t, (gap & -gap).bit_length() - 1)
    return first


def test_find_counterexample_matches_labeled_scan():
    budget = theorems.default_budget("set")
    first = _first_gaps_by_labeled_scan(budget)
    for a, b in product(SetClass, repeat=2):
        w = find_counterexample(a, b)
        if (a, b) not in first:
            assert w is None
            continue
        assert (w.topology, w.subset) == first[a, b]
        assert w.topology.min_nbhd == first[a, b][0].min_nbhd
        assert w.proposition_id == theorems._gap_proposition(a, b).id
        assert replay_witness(w) is True


def test_gap_proposition_resolves_exactly_the_tracked_gaps():
    # the five set-scope existential claims are the tracked gaps; every
    # other pair of classes gets the ad-hoc universal claim
    tracked = {
        (SetClass.AB_SET, SetClass.A_SET): "nonrev-ab-a",
        (SetClass.B_SET, SetClass.AB_SET): "nonrev-ab-b",
        (SetClass.SEMI_OPEN, SetClass.AB_SET): "nonrev-ab-so",
        (SetClass.AB_SET, SetClass.LOCALLY_CLOSED): "indep-ab-lc",
        (SetClass.LOCALLY_CLOSED, SetClass.AB_SET): "indep-lc-ab",
    }
    ad_hoc = 0
    for a, b in product(SetClass, repeat=2):
        p = theorems._gap_proposition(a, b)
        if (a, b) in tracked:
            assert p is proposition(tracked[a, b])
            continue
        assert p.id == f"counterexample-{a.value}-to-{b.value}"
        assert (p.kind, p.scope) == ("implication-per-set", "set")
        ad_hoc += 1
    assert ad_hoc == 356
    # a serialized ad-hoc witness replays under its id
    w = find_counterexample(SetClass.SEMI_OPEN, SetClass.OPEN)
    assert w.proposition_id == "counterexample-semi-open-to-open"
    assert replay_witness(json.loads(json.dumps(w.to_document()))) is True


def test_find_counterexample_budget_refusal():
    # every open set is semi-open, so no size has a hit, and the
    # three-point size (29 spaces) is refused
    tight = EnumerationBudget(max_n=3, max_spaces=5)
    with pytest.raises(BudgetExceeded):
        find_counterexample(SetClass.OPEN, SetClass.SEMI_OPEN, tight)
    # a hit on two points comes before the refused size
    w = find_counterexample(SetClass.B_SET, SetClass.AB_SET, tight)
    assert (w.topology, w.subset) == (sierpinski(), 0b10)


MAP_IDS = [p.id for p in registry() if p.scope == "map"]


def _no_semi_closure_table(n, family):
    raise AssertionError("a semi-closure table was built")


def test_map_path_builds_no_semi_closure_table(monkeypatch, tmp_path, capsys):
    # every map fact is read off family bitmaps: with the per-subset
    # semi-closure fold refused, the map routes give what they gave before
    rng = random.Random(1729)
    tx = random_preorder_topology([rng.getrandbits(12) for _ in range(12)])
    ty = random_preorder_topology([rng.getrandbits(3) for _ in range(3)])
    f = SpaceMap(tx, ty, [rng.randrange(3) for _ in range(12)])
    path = tmp_path / "map.json"
    path.write_text(json.dumps(encode_map(f)))

    def run():
        assert main(["classify-map", str(path)]) == 0
        reports = verify_all(MAP_IDS, EnumerationBudget(max_n=3))
        witnesses = [w for report in reports for w in report.witnesses]
        assert witnesses
        for w in witnesses:
            assert replay_witness(w) is True
        return (continuity_profile(f), capsys.readouterr().out,
                serialize_report(reports))

    want = run()
    setclasses.class_table.cache_clear()
    setclasses.interior_table.cache_clear()
    setclasses.semi_closures.cache_clear()
    monkeypatch.setattr(setclasses, "_superset_meets", _no_semi_closure_table)
    assert run() == want


def _factored_and_labeled(monkeypatch, budget):
    """serialize_report of the map sweep and of the labeled oracle."""
    factored = verify_all(MAP_IDS, budget)
    with monkeypatch.context() as m:
        m.setattr(theorems, "_sweep_maps", labeled_sweep_maps)
        labeled = verify_all(MAP_IDS, budget)
    for report in factored:
        for w in report.witnesses:
            assert replay_witness(w) is True
            assert replay_witness(json.loads(json.dumps(w.to_document())))
    return serialize_report(factored), serialize_report(labeled)


def _factored_histogram(budget):
    """{word: labeled maps} of the factored sweep, over every size."""
    words = {}
    for _, level in theorems._map_histograms(
        list(_class_levels(budget)), budget.codomain_n,
    ):
        for word, (count, _) in level.items():
            words[word] = words.get(word, 0) + count
    return words


@pytest.mark.parametrize("max_n, codomain_max_n",
                         list(product(range(4), repeat=2)))
def test_map_sweep_matches_labeled_oracle(monkeypatch, max_n, codomain_max_n):
    budget = EnumerationBudget(max_n=max_n, codomain_max_n=codomain_max_n)
    _, labeled = labeled_map_histogram(budget)
    assert _factored_histogram(budget) == {
        word: count for word, (count, _) in labeled.items()
    }
    factored, labeled = _factored_and_labeled(monkeypatch, budget)
    assert factored == labeled


def _labeled_maps(budget):
    top = max(budget.max_n, budget.codomain_n)
    sizes = [len(list(labeled_topologies(n))) for n in range(top + 1)]
    return sum(
        sizes[nx] * sizes[ny] * ny ** nx
        for nx, ny in product(range(budget.max_n + 1),
                              range(budget.codomain_n + 1))
    )


@pytest.mark.parametrize("budget", [EnumerationBudget(max_n=3), CAPPED],
                         ids=["default", "capped"])
def test_map_sweep_matches_labeled_oracle_at_map_budget(monkeypatch, budget):
    total = _labeled_maps(budget)
    for cap, refused in ((total - 1, True), (total, False)):
        factored, labeled = _factored_and_labeled(
            monkeypatch, budget._replace(max_maps=cap))
        assert factored == labeled
        for doc in json.loads(factored):
            assert doc["maps_checked"] == (0 if refused else total)
            if refused:
                assert doc["verdict"] == "budget-exhausted"


@pytest.mark.parametrize("max_spaces", sorted({
    cap for total in _LABELED[1:4] for cap in (total - 1, total)} - {0}))
def test_map_sweep_matches_labeled_oracle_at_space_budget(monkeypatch,
                                                          max_spaces):
    budget = EnumerationBudget(max_n=3, max_spaces=max_spaces)
    factored, labeled = _factored_and_labeled(monkeypatch, budget)
    assert factored == labeled
    refused = max_spaces < _LABELED[3]
    for doc in json.loads(factored):
        assert doc["spaces_checked"] == (0 if refused else sum(_LABELED[:4]))


def test_map_sweep_matches_labeled_oracle_on_the_acceptance_witness(
    monkeypatch,
):
    factored, labeled = _factored_and_labeled(monkeypatch, CAPPED)
    assert factored == labeled
    (doc,) = [d for d in json.loads(factored)
              if d["proposition"] == "nonrev-s41-i"]
    assert doc["maps_checked"] == 24115
    assert doc["verdict"] == "witness-found"


def test_parallel_map_sweep_matches_labeled_oracle(monkeypatch):
    made = []
    force_pool(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(theorems, "Pool", partial(FakePool, made))
        faked, labeled = _factored_and_labeled(monkeypatch, CAPPED)
    assert made == [2]
    assert faked == labeled
    real, _ = _factored_and_labeled(monkeypatch, CAPPED)
    assert real == labeled


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_four_point_map_histogram_matches_labeled_oracle(monkeypatch):
    # 33,827,652 labeled maps, built one by one on a pool of two workers;
    # the factored sweep runs on a forced pool of two workers
    budget = EnumerationBudget(max_n=4, max_maps=33_827_652)
    _, labeled = labeled_map_histogram(budget, parallel=True, workers=2)
    force_pool(monkeypatch)
    factored = _factored_histogram(budget)
    assert factored == {word: count for word, (count, _) in labeled.items()}
    assert sum(factored.values()) == 33_827_652


def _no_classes(*args):
    raise AssertionError("the trace table reads no class or relabeling")


@pytest.mark.parametrize("cap, blocks", [
    (5, 5),
    # the last level counted, not walked
    (5, 4),
    # the last two levels counted, not walked, with nothing between
    (5, 3),
    (4, 2),
    # and with one level walked but unkept
    (5, 2),
    # 216,859 labeled codomains; the oracle lists each one's traces
    pytest.param(6, 6, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")),
    pytest.param(6, 4, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")),
])
def test_trace_table_matches_labeled_oracle(monkeypatch, cap, blocks):
    # N(ny, k, sigma) for every ny <= cap and k <= min(ny, blocks), from
    # one walk of the labeled preorders against the labeled codomains'
    # traces
    monkeypatch.setattr(enumeration, "_canonical", _no_classes)
    monkeypatch.setattr(enumeration, "_relabelings", _no_classes)
    table = theorems._trace_table(cap, blocks)
    keyed = [{frozenset(opens): counts for opens, counts in row}
             for row in table]
    assert [len(row) for row in keyed] == [len(row) for row in table]
    assert keyed == labeled_trace_table(cap)[:blocks + 1]


@pytest.mark.parametrize("budget", [EnumerationBudget(max_n=3), CAPPED],
                         ids=["default", "capped"])
def test_map_sweep_builds_maps_and_spaces_for_witnesses_only(monkeypatch,
                                                             budget):
    sizes, built, searched = [], [], []
    real_topologies, real_maps = theorems.enumerate_topologies, enumerate_maps

    def topologies(n, cap=None):
        sizes.append(n)
        return real_topologies(n, cap)

    def searched_maps(tx, ty):
        for f in real_maps(tx, ty):
            searched.append(f)
            yield f

    class CountedMap(SpaceMap):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(theorems, "enumerate_topologies", topologies)
    monkeypatch.setattr(theorems, "enumerate_maps", searched_maps)
    monkeypatch.setattr(maps, "SpaceMap", CountedMap)
    monkeypatch.setattr(theorems, "SpaceMap", CountedMap)
    reports = verify_all(MAP_IDS, budget)
    witnesses = [w for report in reports for w in report.witnesses]
    assert witnesses
    assert sorted(sizes) == sorted(w.codomain.n for w in witnesses)
    # every map built is one the witness search visits
    assert len(built) == len(searched) > 0


# sha256 of serialize_report of the 12 map propositions over every map
# between spaces on <= 4 and on <= 5 points, recorded from the sweep
# that built one SpaceMap per (domain, partition, trace topology); and
# from spaces on <= 4 points into spaces on <= 5, recorded from the
# sweep that counted codomain classes, injections and orbit sizes
@pytest.mark.parametrize("max_n, codomain_max_n, max_maps, digest", [
    (4, None, 33_827_652,
     "d9d12e3a0aa0e0d24f3320708a7439337f407610efaa88ab4afabde5d57f29ac"),
    (4, 5, 1_599_984_504,
     "fb70c40aa3dd1b609580a81e232eab92cbeacc20f84551fd56deb5674d1e678b"),
    pytest.param(
        5, None, 154_771_368_636,
        "9134d85bd435bc1b9e000a37dbcdb3fcca607664b8c557c3cb528dec9e501b82",
        marks=pytest.mark.skipif(
            not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")),
])
def test_full_map_sweep_report_bytes(max_n, codomain_max_n, max_maps, digest):
    budget = EnumerationBudget(max_n=max_n, codomain_max_n=codomain_max_n,
                               max_maps=max_maps)
    report = verify_all(MAP_IDS, budget)
    assert _sha256(serialize_report(report)) == digest
    assert all(r.maps_checked == max_maps for r in report)
