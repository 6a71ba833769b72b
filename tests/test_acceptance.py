"""End-to-end acceptance gate.

Each test covers one delivery criterion and prints exactly one
"ACCEPTANCE <k> <name>: PASS|FAIL" line before asserting, so the gate
can be read off the test log directly.  Budgets and runtime ceilings
are part of the contract and are asserted, not just measured.
"""

import json
import random
import time

from fintopo import (
    EnumerationBudget,
    NotClosedUnderUnion,
    SetClass,
    class_table,
    closure,
    complement,
    count_reflexive_transitive_relations,
    count_topologies,
    decode_space,
    enumerate_topologies,
    enumerate_topologies_naive,
    interior,
    is_in_class,
    replay_witness,
    semi_closure,
    serialize_report,
    specialization_preorder,
    topology_from_preorder,
    verify,
)
from fintopo.cli import main

from helpers import force_pool, random_preorder_topology

E1A_DOC = {
    "points": ["a", "b", "c", "d"],
    "opens": [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c", "d"]],
}
E1B_DOC = {
    "points": ["a", "b", "c"],
    "opens": [[], ["a"], ["a", "b", "c"]],
}


def _verdict(number, name, problems):
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not problems, "\n".join(problems)


def _expect(problems, condition, message):
    if not condition:
        problems.append(message)


def test_criterion_1_golden_fixtures():
    start = time.perf_counter()
    problems = []
    e1a, _ = decode_space(E1A_DOC)
    e1b, _ = decode_space(E1B_DOC)
    cases = [
        (e1a, 0b0110, "{b,c}", [
            (SetClass.AB_SET, True),
            (SetClass.SEMI_OPEN, True),
            (SetClass.A_SET, False),
            (SetClass.LOCALLY_CLOSED, False),
            (SetClass.PREOPEN, False),
        ]),
        (e1b, 0b100, "{c}", [
            (SetClass.B_SET, True),
            (SetClass.SEMI_CLOSED, True),
            (SetClass.AB_SET, False),
        ]),
        (e1b, 0b011, "{a,b}", [
            (SetClass.SEMI_OPEN, True),
            (SetClass.AB_SET, False),
        ]),
    ]
    for t, a, shown, expectations in cases:
        for cls, expected in expectations:
            got = is_in_class(t, a, cls)
            _expect(
                problems, got == expected,
                f"{shown}: {cls.value} is {got}, expected {expected}",
            )
    elapsed = time.perf_counter() - start
    _expect(problems, elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s")
    _verdict(1, "golden fixture classifications", problems)


def test_criterion_2_enumeration_counts():
    problems = []
    start = time.perf_counter()
    counts = [count_topologies(n) for n in range(5)]
    small = time.perf_counter() - start
    _expect(
        problems, counts == [1, 1, 4, 29, 355],
        f"n<=4 counts {counts}, expected [1, 1, 4, 29, 355]",
    )
    _expect(problems, small < 5.0, f"n<=4 took {small:.2f}s, limit 5s")
    naive = [sum(1 for _ in enumerate_topologies_naive(n)) for n in range(4)]
    _expect(
        problems, naive == [1, 1, 4, 29],
        f"naive oracle counts {naive}, expected [1, 1, 4, 29]",
    )
    start = time.perf_counter()
    big = count_topologies(5, EnumerationBudget(max_n=5))
    relations = count_reflexive_transitive_relations(5)
    large = time.perf_counter() - start
    _expect(
        problems, big == 6942 == relations,
        f"n=5 counts {big} (enumerator) and {relations} (relation filter), "
        "expected 6942 from both",
    )
    _expect(problems, large < 60.0, f"n=5 took {large:.2f}s, limit 60s")
    _verdict(2, "enumeration counts with independent oracles", problems)


SET_SPACE_SWEEP = [
    "l00", "t00", "cor-submax", "t0", "t0a",
    "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "chain-a-ab", "chain-ab-b", "chain-ab-so", "chain-a-lc", "chain-lc-b",
    "equiv-tset", "equiv-sr-sandwich", "equiv-bset-scl", "equiv-scl-form",
]


def test_criterion_3_set_and_space_sweeps():
    problems = []
    budget = EnumerationBudget(max_n=4)
    start = time.perf_counter()
    for pid in SET_SPACE_SWEEP:
        report = verify(pid, budget)
        _expect(
            problems,
            report.verdict == "holds-exhaustively" and report.hits == 0,
            f"{pid}: verdict {report.verdict} with {report.hits} hit(s)",
        )
    elapsed = time.perf_counter() - start
    _expect(problems, elapsed < 30.0, f"took {elapsed:.1f}s, limit 30s")
    _verdict(3, "set and space sweeps exhaustive to four points", problems)


MAP_SWEEP = ["s41-i", "s41-ii", "s41-iii", "s41-iv", "s42", "s42a", "s43"]
TOTAL_MAPS_N3 = 24907


def test_criterion_4_map_sweeps(monkeypatch):
    problems = []
    budget = EnumerationBudget(max_n=3)
    start = time.perf_counter()
    sequential = [verify(pid, budget) for pid in MAP_SWEEP]
    elapsed = time.perf_counter() - start
    for report in sequential:
        _expect(
            problems,
            report.verdict == "holds-exhaustively" and report.hits == 0,
            f"{report.proposition_id}: verdict {report.verdict} "
            f"with {report.hits} hit(s)",
        )
        _expect(
            problems, report.maps_checked == TOTAL_MAPS_N3,
            f"{report.proposition_id}: checked {report.maps_checked} maps, "
            f"expected {TOTAL_MAPS_N3}",
        )
    _expect(problems, elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s")
    force_pool(monkeypatch)
    parallel = [verify(pid, budget) for pid in MAP_SWEEP]
    _expect(
        problems,
        serialize_report(sequential) == serialize_report(parallel),
        "process-pool report differs from the in-process one",
    )
    _verdict(4, "map sweeps exhaustive to three points", problems)


def test_criterion_5_existential_witnesses():
    problems = []
    searches = [
        ("nonrev-ab-a", EnumerationBudget(max_n=4)),
        ("nonrev-ab-b", EnumerationBudget(max_n=4)),
        ("nonrev-ab-so", EnumerationBudget(max_n=4)),
        ("indep-ab-lc", EnumerationBudget(max_n=4)),
        ("indep-lc-ab", EnumerationBudget(max_n=4)),
        # an AB-continuous map that is not A-continuous needs a domain
        # with an AB-set that is not an A-set, and every such domain has
        # at least four points; a two-point codomain suffices, so the
        # codomain cap keeps this sweep at 24,115 maps instead of the
        # 33.8M of a full four-point map sweep
        ("nonrev-s41-i", EnumerationBudget(max_n=4, codomain_max_n=2)),
        ("nonrev-s41-ii", EnumerationBudget(max_n=3)),
        ("nonrev-s41-iii", EnumerationBudget(max_n=3)),
        ("nonrev-s41-iv", EnumerationBudget(max_n=3)),
    ]
    for pid, budget in searches:
        report = verify(pid, budget)
        if report.verdict != "witness-found":
            problems.append(
                f"{pid}: verdict {report.verdict} within max_n="
                f"{budget.max_n}, expected witness-found"
            )
            continue
        round_tripped = json.loads(
            json.dumps(report.witnesses[0].to_document())
        )
        _expect(
            problems, replay_witness(round_tripped) is True,
            f"{pid}: witness does not replay after serialization",
        )
    _verdict(5, "existential witnesses within declared budgets", problems)


def _invariant_problems(t):
    problems = []
    table = class_table(t)
    chains = [
        (SetClass.OPEN, SetClass.SEMI_OPEN),
        (SetClass.SEMI_OPEN, SetClass.BETA_OPEN),
        (SetClass.OPEN, SetClass.PREOPEN),
        (SetClass.PREOPEN, SetClass.BETA_OPEN),
    ]
    for smaller, larger in chains:
        if table.family_bitmap(smaller) & ~table.family_bitmap(larger):
            problems.append(
                f"{t.opens}: {smaller.value} not inside {larger.value}"
            )
    for a in t.subsets():
        ca = complement(a, t.n)
        ia, cc = interior(t, a), closure(t, a)
        if ia != complement(closure(t, ca), t.n):
            problems.append(f"{t.opens}: duality fails at {a:#b}")
        if interior(t, ia) != ia or closure(t, cc) != cc:
            problems.append(f"{t.opens}: idempotence fails at {a:#b}")
        s = semi_closure(t, a)
        if (s == a) != table.contains(a, SetClass.SEMI_CLOSED):
            problems.append(
                f"{t.opens}: semi-closure fixed point wrong at {a:#b}"
            )
    if topology_from_preorder(specialization_preorder(t)) != t:
        problems.append(f"{t.opens}: preorder round trip fails")
    return problems


def test_criterion_6_invariant_suite():
    problems = []
    for n in range(5):
        for t in enumerate_topologies(n):
            problems.extend(_invariant_problems(t))
    rng = random.Random(90125)
    for _ in range(25):
        seeds = [rng.randrange(32) for _ in range(5)]
        problems.extend(_invariant_problems(random_preorder_topology(seeds)))
    _verdict(6, "invariant suite exhaustive and sampled", problems)


def test_criterion_7_cli_contract(tmp_path, capsys):
    problems = []
    code = main(["verify", "all", "--max-n", "3"])
    out = capsys.readouterr()
    _expect(
        problems, code == 0,
        f"verify all --max-n 3 exited {code}, expected 0:\n{out.out}",
    )
    corrupted = {
        "points": E1A_DOC["points"],
        "opens": [[], ["a"], ["b"], ["b"], ["a", "b", "c", "d"]],
    }
    try:
        decode_space(corrupted)
        problems.append("corrupted fixture passed validation")
    except NotClosedUnderUnion as exc:
        _expect(
            problems, exc.witness == (0b0001, 0b0010),
            f"axiom witness {exc.witness}, expected (1, 2)",
        )
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(corrupted))
    code = main(["classify-space", str(path)])
    err = capsys.readouterr().err
    _expect(problems, code == 2, f"corrupted fixture exited {code}")
    _expect(
        problems,
        "not closed under union" in err
        and "witness opens {a} and {b}" in err,
        f"unexpected validation message: {err!r}",
    )
    _verdict(7, "command line contract and axiom witnesses", problems)
