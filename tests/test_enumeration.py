"""Topology enumeration: counts, canonical order, and oracle agreement."""

import hashlib
import os
import pickle
import subprocess
import sys
from collections import defaultdict

import pytest

import fintopo
from fintopo import (
    MAX_ENUMERATION_N,
    BudgetExceeded,
    EnumerationBudget,
    Preorder,
    Topology,
    build_topology,
    count_reflexive_transitive_relations,
    count_topologies,
    enumerate_isomorphism_classes,
    enumerate_topologies,
    enumerate_topologies_naive,
    topology_from_preorder,
)
from fintopo import enumeration

import helpers
from helpers import (
    canonical_rows_by_brute_force,
    labeled_preorder_count,
    labeled_topologies,
    preorders_by_brute_force,
    unfiltered_next_level,
    up_sets_by_scan,
)

# labeled topology counts for n = 0..4
KNOWN_COUNTS = [1, 1, 4, 29, 355]

BIG = os.environ.get("FINTOPO_BIG_SWEEPS") == "1"


def test_known_counts_main_path():
    for n, expected in enumerate(KNOWN_COUNTS):
        assert count_topologies(n) == expected


def test_count_builds_no_topology(monkeypatch):
    # the count sums orbit sizes read from the class rows (A000798)
    def no_topology(*args):
        raise AssertionError("count_topologies built a topology")

    monkeypatch.setattr(enumeration, "topology_from_preorder", no_topology)
    counts = [count_topologies(n) for n in range(MAX_ENUMERATION_N + 1)]
    assert counts == KNOWN_COUNTS + [6942, 209527]


def test_count_canonicalizes_nothing_at_the_counted_size(monkeypatch):
    # the count builds the classes two sizes down and only counts their
    # descendants; the sum of orbit sizes at size n is its oracle
    canonical, tables = [], []
    real_canonical, real_relabelings = (enumeration._canonical,
                                        enumeration._relabelings)

    def spied_canonical(rows, *args):
        canonical.append(len(rows))
        return real_canonical(rows, *args)

    def spied_relabelings(n):
        tables.append(n)
        return real_relabelings(n)

    for n in range(MAX_ENUMERATION_N + 1):
        canonical.clear()
        tables.clear()
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_canonical", spied_canonical)
            patch.setattr(enumeration, "_relabelings", spied_relabelings)
            count = count_topologies(n)
        assert all(size < n - 1 for size in canonical + tables)
        if n > 2:  # the spies see the level two below
            assert n - 2 in canonical and n - 2 in tables
        classes = enumerate_isomorphism_classes(n)
        assert count == sum(orbit for _, orbit in classes)
        if n <= 5:
            assert count == count_reflexive_transitive_relations(n)


def test_naive_oracle_counts():
    assert sum(1 for _ in enumerate_topologies_naive(0)) == 1
    assert sum(1 for _ in enumerate_topologies_naive(1)) == 1
    assert sum(1 for _ in enumerate_topologies_naive(2)) == 4
    assert sum(1 for _ in enumerate_topologies_naive(3)) == 29


def test_main_path_agrees_with_naive_oracle():
    for n in range(4):
        main = [t.canonical_key() for t in enumerate_topologies(n)]
        naive = [t.canonical_key() for t in enumerate_topologies_naive(n)]
        assert main == naive


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_main_path_agrees_with_naive_oracle_n4():
    main = [t.canonical_key() for t in enumerate_topologies(4)]
    naive = [t.canonical_key() for t in enumerate_topologies_naive(4)]
    assert main == naive


def test_no_duplicates_and_all_valid():
    for n in range(5):
        seen = set()
        for t in enumerate_topologies(n):
            key = t.canonical_key()
            assert key not in seen
            seen.add(key)
            # re-validating must succeed and reproduce the same opens
            assert build_topology(t.n, t.opens) == t


def test_canonical_stream_order():
    for n in range(5):
        keys = [t.canonical_key() for t in enumerate_topologies(n)]
        assert keys == sorted(keys)


def test_budget_max_n():
    with pytest.raises(BudgetExceeded):
        next(iter(enumerate_topologies(5, EnumerationBudget(max_n=4))))


def test_budget_max_spaces():
    budget = EnumerationBudget(max_n=4, max_spaces=10)
    with pytest.raises(BudgetExceeded):
        list(enumerate_topologies(3, budget))


def test_naive_budget_cap():
    # the n <= 4 cap is checked before the sign and the budget
    with pytest.raises(ValueError, match="^n=-1 must be non-negative$"):
        next(iter(enumerate_topologies_naive(-1)))
    for n in (5, 7):
        with pytest.raises(BudgetExceeded,
                           match="^naive family filter is capped at n=4$"):
            next(iter(enumerate_topologies_naive(n)))
    with pytest.raises(BudgetExceeded, match="^n=3 exceeds budget max_n=2$"):
        next(iter(enumerate_topologies_naive(3, EnumerationBudget(max_n=2))))


def test_budget_field_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(max_spaces=0)


@pytest.mark.parametrize("field, value, rule", [
    ("max_n", -1, "non-negative"),
    ("codomain_max_n", -1, "non-negative"),
    ("max_spaces", 0, "positive"),
    ("max_maps", 0, "positive"),
])
def test_budget_error_names_the_field(field, value, rule):
    # keywords, positions, _make and _replace all go through one check
    fields = list(EnumerationBudget())
    fields[EnumerationBudget._fields.index(field)] = value
    builds = [
        lambda: EnumerationBudget(**{field: value}),
        lambda: EnumerationBudget(*fields),
        lambda: EnumerationBudget._make(fields),
        lambda: EnumerationBudget()._replace(**{field: value}),
    ]
    for build in builds:
        with pytest.raises(ValueError,
                           match=f"^{field} must be {rule}, got {value}$"):
            build()


def test_budget_checks_its_fields_in_order():
    # with several fields bad, the message names the first in this order
    bad = {"max_n": -1, "codomain_max_n": -1, "max_spaces": 0, "max_maps": 0}
    order = list(bad)
    for i, field in enumerate(order):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EnumerationBudget(**{f: bad[f] for f in order[i:]})


def test_budget_record_shape():
    budget = EnumerationBudget()
    assert repr(budget) == ("EnumerationBudget(max_n=4, max_spaces=1000000, "
                            "max_maps=5000000, codomain_max_n=None)")
    replaced = budget._replace(max_n=6, codomain_max_n=2)
    assert type(replaced) is EnumerationBudget
    assert replaced == EnumerationBudget(6, 1_000_000, 5_000_000, 2)
    assert replaced.codomain_n == 2 and budget.codomain_n == 4
    for b in (budget, replaced):
        assert pickle.loads(pickle.dumps(b)) == b


@pytest.mark.parametrize("entry", [
    count_topologies,
    lambda n: list(enumerate_topologies(n)),
    enumerate_isomorphism_classes,
    count_reflexive_transitive_relations,
    lambda n: list(enumerate_topologies_naive(n)),
], ids=["count", "stream", "classes", "relations", "naive"])
def test_negative_n_refused(entry):
    with pytest.raises(ValueError, match="^n=-1 must be non-negative$"):
        entry(-1)


def test_relation_counter_small():
    assert count_reflexive_transitive_relations(0) == 1
    assert count_reflexive_transitive_relations(1) == 1
    assert count_reflexive_transitive_relations(2) == 4
    assert count_reflexive_transitive_relations(3) == 29


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_n5_count_cross_checked():
    budget = EnumerationBudget(max_n=5)
    assert count_topologies(5, budget) == 6942
    assert count_reflexive_transitive_relations(5) == 6942


def test_up_sets_match_definitional_scan():
    for n in range(6):
        for t in enumerate_topologies(n, EnumerationBudget(max_n=n)):
            assert t.opens == up_sets_by_scan(t.min_nbhd)
            assert topology_from_preorder(Preorder(t.min_nbhd)) == t


def test_rows_are_exactly_the_preorders():
    for n in range(5):
        rows = [t.min_nbhd for t in enumerate_topologies(n)]
        assert sorted(rows) == preorders_by_brute_force(n)


def test_enumeration_equals_sorted_oracle_list():
    for n in range(5):
        budget = EnumerationBudget(max_n=n)
        oracle = sorted(
            (
                build_topology(n, up_sets_by_scan(rows))
                for rows in preorders_by_brute_force(n)
            ),
            key=Topology.canonical_key,
        )
        got = list(enumerate_topologies(n, budget))
        assert got == oracle
        assert [t.min_nbhd for t in got] == [t.min_nbhd for t in oracle]
        assert count_topologies(n, budget) == len(oracle)


def _stream_sha256(n):
    """sha256 of the canonical stream, one line of opens and minimal
    neighbourhoods per topology."""
    digest = hashlib.sha256()
    for t in enumerate_topologies(n):
        line = ",".join(map(str, t.opens)) + ";" + ",".join(map(str, t.min_nbhd))
        digest.update((line + "\n").encode())
    return digest.hexdigest()


# recorded from the row-by-row submask walk this stream replaced
N5_STREAM_SHA256 = (
    "3931c82d47900030a6f5b6ab88f8aa3f0f1d8f4a5c686f21c8bb8a764af17c99"
)


def test_n5_canonical_stream_pinned():
    assert _stream_sha256(5) == N5_STREAM_SHA256


def _counted_preorder(validated):
    class CountedPreorder(Preorder):
        def validate(self):
            validated.append(self.rows)
            super().validate()
    return CountedPreorder


def test_validate_runs_on_every_representative_and_budget_counts_match(
    monkeypatch,
):
    # the labeled walk validates every four-point preorder; the class
    # generator validates only its representatives on up to four points,
    # since a relabeling of a valid preorder is valid
    walked, generated = [], []
    monkeypatch.setattr(helpers, "Preorder", _counted_preorder(walked))
    monkeypatch.setattr(enumeration, "Preorder", _counted_preorder(generated))
    assert len(list(labeled_topologies(4))) == 355
    assert len(walked) == 355
    assert len(list(enumerate_topologies(4))) == 355
    assert len(generated) == sum(CLASS_COUNTS[:5]) == 47
    # a size is refused at its (max_spaces + 1)-th labeled topology,
    # before any of its preorders is validated: at cap 1 the two-point
    # size is refused, at 100 and 354 the four-point one
    for cap, below in ((1, 2), (100, 14), (354, 14)):
        budget = EnumerationBudget(max_n=4, max_spaces=cap)
        walked.clear()
        generated.clear()
        with pytest.raises(BudgetExceeded, match="at n=4$"):
            list(labeled_topologies(4, budget))
        with pytest.raises(BudgetExceeded, match="at n=4$"):
            list(enumerate_topologies(4, budget))
        assert walked == []
        assert len(generated) == below
        with pytest.raises(BudgetExceeded, match="at n=4$"):
            count_topologies(4, budget)
    budget = EnumerationBudget(max_n=4, max_spaces=355)
    assert count_topologies(4, budget) == 355
    assert len(list(enumerate_topologies(4, budget))) == 355
    assert len(list(labeled_topologies(4, budget))) == 355


def test_stream_equals_the_labeled_walk_and_orbits_have_their_size():
    # enumerate_topologies expands the class generator's orbits; the
    # labeled walk reaches every labeled topology without them
    for n in range(6):
        budget = EnumerationBudget(max_n=n)
        got = list(enumerate_topologies(n, budget))
        walked = list(labeled_topologies(n, budget))
        assert got == walked
        assert [t.min_nbhd for t in got] == [t.min_nbhd for t in walked]
        tables = enumeration._relabelings(n)
        for t, orbit in enumerate_isomorphism_classes(n, budget):
            assert len(enumeration._orbit(t, tables)) == orbit


def test_refusal_names_the_requested_size():
    # four points already hold more than 100 topologies
    budget = EnumerationBudget(max_n=5, max_spaces=100)
    for run in (count_topologies, enumerate_isomorphism_classes,
                lambda n, b: list(enumerate_topologies(n, b))):
        with pytest.raises(BudgetExceeded,
                           match="^more than 100 topologies at n=5$"):
            run(5, budget)


def test_default_cap_refuses_before_any_work(monkeypatch):
    def no_rows(rows):
        raise AssertionError("preorders extended past the cap")

    monkeypatch.setattr(enumeration, "_extensions", no_rows)
    assert MAX_ENUMERATION_N == 6
    with pytest.raises(BudgetExceeded):
        enumerate_topologies(MAX_ENUMERATION_N + 1)
    with pytest.raises(BudgetExceeded):
        count_topologies(MAX_ENUMERATION_N + 1)
    with pytest.raises(BudgetExceeded):
        enumerate_isomorphism_classes(MAX_ENUMERATION_N + 1)
    with pytest.raises(BudgetExceeded):
        enumerate_topologies(5, EnumerationBudget(max_n=4))
    with pytest.raises(ValueError):
        count_topologies(-1)


def test_explicit_budget_lifts_the_default_cap():
    budget = EnumerationBudget(max_n=7, max_spaces=5)
    with pytest.raises(BudgetExceeded, match="more than 5 topologies"):
        count_topologies(7, budget)


# sha256 of the canonical n=6 stream, one line of opens per topology
N6_STREAM_SHA256 = (
    "e50f18a62c7b4e57dad150d76309cbbe481ac7545a733c3c69cc08e571d0f00d"
)


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_n6_canonical_stream_pinned():
    digest = hashlib.sha256()
    for t in enumerate_topologies(6):
        digest.update((",".join(map(str, t.opens)) + "\n").encode())
    assert digest.hexdigest() == N6_STREAM_SHA256


_COUNT_CHILD = """
import resource, sys
from fintopo import EnumerationBudget, count_topologies
n = int(sys.argv[1])
budget = EnumerationBudget(max_n=n, max_spaces=10**13)
print(count_topologies(n, budget))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


# Linux carries a process's peak RSS across exec, so a child started from
# this large test process would report the test process's peak.  A small
# launcher in between leaves the child's ru_maxrss to the count itself.
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _count_in_child(n):
    """count_topologies(n) in a fresh interpreter, and its peak RSS in KiB
    (ru_maxrss is in KiB on Linux)."""
    src = os.path.dirname(os.path.dirname(fintopo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", _LAUNCHER,
            sys.executable, "-c", _COUNT_CHILD, str(n)]
    out = subprocess.run(
        argv, env=env, check=True, capture_output=True, text=True,
    ).stdout.split()
    return int(out[0]), int(out[1])


# labeled topologies for n = 7, 8, 9, 10, OEIS A000798
@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_n7_count_in_bounded_memory():
    count, peak_kib = _count_in_child(7)
    assert count == 9_535_241
    assert peak_kib < 64 * 1024


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_n8_count():
    assert _count_in_child(8)[0] == 642_779_354


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_n9_count_in_bounded_memory():
    # the seven-point classes are built, the eight- and nine-point ones
    # only counted
    count, peak_kib = _count_in_child(9)
    assert count == 63_260_289_423
    assert peak_kib < 64 * 1024


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_n10_count_in_bounded_memory():
    # the eight-point classes are built, most of the peak _relabelings(8)
    count, peak_kib = _count_in_child(10)
    assert count == 8_977_053_873_043
    assert peak_kib < 160 * 1024


# homeomorphism classes of topologies for n = 0..6, OEIS A001930
CLASS_COUNTS = [1, 1, 3, 9, 33, 139, 718]


def test_class_counts_and_orbit_sums():
    for n, expected in enumerate(CLASS_COUNTS):
        budget = EnumerationBudget(max_n=n)
        classes = enumerate_isomorphism_classes(n, budget)
        assert len(classes) == expected
        assert sum(orbit for _, orbit in classes) == labeled_preorder_count(
            n, budget)


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_class_counts_and_orbit_sums_n7():
    budget = EnumerationBudget(max_n=7, max_spaces=10_000_000)
    classes = enumerate_isomorphism_classes(7, budget)
    assert len(classes) == 4535  # OEIS A001930
    assert sum(orbit for _, orbit in classes) == 9_535_241  # OEIS A000798


def _levels_match_the_unfiltered_oracle(max_n):
    # each size from the same classes one size down: same forms, same
    # orbit sizes, whatever their order
    budget = EnumerationBudget(max_n=max_n, max_spaces=10_000_000)
    level = {(): 1}
    for n in range(1, max_n + 1):
        filtered = enumeration._next_level(level, n, budget)
        assert filtered == unfiltered_next_level(level, n)
        level = filtered


def test_filtered_levels_equal_the_unfiltered_oracle():
    _levels_match_the_unfiltered_oracle(6)


@pytest.mark.skipif(not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_filtered_levels_equal_the_unfiltered_oracle_n7():
    _levels_match_the_unfiltered_oracle(7)


def test_filter_canonicalizes_at_most_1000_extensions_at_n6(monkeypatch):
    # 3,920 extensions of the 139 five-point classes give the 718
    # six-point ones; only those whose new point has the largest
    # invariant are put in canonical form
    budget = EnumerationBudget(max_n=6)
    level = {(): 1}
    for n in range(1, 6):
        level = enumeration._next_level(level, n, budget)
    assert sum(1 for rows in level for _ in enumeration._extensions(rows)) \
        == 3920
    calls = []
    real = enumeration._canonical

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(enumeration, "_canonical", counted)
    assert len(enumeration._next_level(level, 6, budget)) == 718
    assert len(calls) <= 1000


def test_representatives_are_valid_topologies(monkeypatch):
    validated = []
    monkeypatch.setattr(enumeration, "Preorder", _counted_preorder(validated))
    for n in range(7):
        validated.clear()
        budget = EnumerationBudget(max_n=n)
        for t, _ in enumerate_isomorphism_classes(n, budget):
            assert t.min_nbhd in validated
            if n < 6:
                assert t.opens == up_sets_by_scan(t.min_nbhd)


def _orbits_by_brute_force(n):
    """Every labeled topology on n points, grouped by canonical rows."""
    orbits = defaultdict(list)
    for t in labeled_topologies(n, EnumerationBudget(max_n=n)):
        orbits[canonical_rows_by_brute_force(t.min_nbhd)].append(t)
    return orbits


def test_one_representative_per_orbit():
    # the representatives meet every orbit of labeled topologies once,
    # and each one's weight is the size of its orbit
    for n in range(6):
        orbits = _orbits_by_brute_force(n)
        classes = enumerate_isomorphism_classes(n, EnumerationBudget(max_n=n))
        weights = {
            canonical_rows_by_brute_force(t.min_nbhd): orbit
            for t, orbit in classes
        }
        assert len(weights) == len(classes)
        assert weights == {form: len(ts) for form, ts in orbits.items()}
        # a representative's points are ordered by (row size, column size)
        for t, _ in classes:
            pairs = [(row.bit_count(), sum(r >> x & 1 for r in t.min_nbhd))
                     for x, row in enumerate(t.min_nbhd)]
            assert pairs == sorted(pairs)


def test_first_in_orbits_is_the_least_labeled_member():
    for n in range(5):
        orbits = _orbits_by_brute_force(n)
        classes = enumerate_isomorphism_classes(n, EnumerationBudget(max_n=n))
        for t, _ in classes:
            first = enumeration.first_in_orbits([t])
            orbit = orbits[canonical_rows_by_brute_force(t.min_nbhd)]
            # the labeled walk gives each orbit in canonical order
            assert first == orbit[0]
            assert first.min_nbhd == orbit[0].min_nbhd
        # over several orbits, the least of their least members
        everyone = [t for t, _ in classes]
        assert enumeration.first_in_orbits(everyone) == min(
            (ts[0] for ts in orbits.values()), key=Topology.canonical_key
        )


def test_class_budget_refuses_like_enumeration():
    # size n is refused iff it has more than max_spaces labeled spaces
    for n, total in enumerate([1, 1, 4, 29, 355, 6942]):
        fits = EnumerationBudget(max_n=n, max_spaces=total)
        assert sum(o for _, o in enumerate_isomorphism_classes(n, fits)) == total
        if total > 1:
            short = EnumerationBudget(max_n=n, max_spaces=total - 1)
            with pytest.raises(BudgetExceeded, match=f"at n={n}$"):
                enumerate_isomorphism_classes(n, short)
    with pytest.raises(BudgetExceeded):
        enumerate_isomorphism_classes(5, EnumerationBudget(max_n=4))
    with pytest.raises(BudgetExceeded):
        enumerate_isomorphism_classes(MAX_ENUMERATION_N + 1)
    with pytest.raises(ValueError):
        enumerate_isomorphism_classes(-1)


def test_count_refuses_like_the_labeled_oracle():
    # size n is refused iff it has more than max_spaces labeled spaces,
    # with the labeled walk's message, also when the cap already refuses
    # a smaller size on the way
    counts = [1, 1, 4, 29, 355, 6942]
    for n, total in enumerate(counts):
        caps = {counts[m] - 1 for m in range(1, n + 1)} | {total}
        for cap in caps - {0}:
            budget = EnumerationBudget(max_n=n, max_spaces=cap)
            try:
                expected = labeled_preorder_count(n, budget)
            except BudgetExceeded as exc:
                with pytest.raises(BudgetExceeded) as got:
                    count_topologies(n, budget)
                assert str(got.value) == str(exc)
            else:
                assert count_topologies(n, budget) == expected == total


def test_count_stops_at_the_first_total_past_the_cap(monkeypatch):
    # 6,942 fits the five-point level, and the six-point sum passes it
    # before every four-point class's descendants are counted
    counted = []
    real = enumeration._descendant_counts

    def spied(rows, depth):
        counted.append(len(rows))
        return real(rows, depth)
    monkeypatch.setattr(enumeration, "_descendant_counts", spied)
    with pytest.raises(BudgetExceeded,
                       match="^more than 6942 topologies at n=6$"):
        count_topologies(6, EnumerationBudget(max_n=6, max_spaces=6942))
    assert 0 < counted.count(4) < CLASS_COUNTS[4]


def _children(rows):
    return len(list(enumeration._extensions(rows)))


def _descendant_counts_match(depth, max_n):
    # counted with _extensions alone, not through the routine under test
    budget = EnumerationBudget(max_n=max_n, max_spaces=10_000_000)
    for level in enumeration._row_levels(budget):
        for rows in level:
            want = [_children(rows)]
            got = enumeration._descendant_counts(rows, depth)
            if depth == 2:
                want.append(sum(map(_children,
                                    enumeration._extensions(rows))))
                assert got[:1] == enumeration._descendant_counts(rows, 1)
            assert got == want, rows


@pytest.mark.parametrize("depth, max_n", [
    # every class on at most 6 points: 30,397 extensions on the last level
    (1, 6),
    pytest.param(1, 7, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")),
    # every class on at most 5 points: on the last level, 3,920
    # extensions with 179,012 extensions of their own
    (2, 5),
    pytest.param(2, 6, marks=pytest.mark.skipif(
        not BIG, reason="set FINTOPO_BIG_SWEEPS=1 to enable")),
])
def test_descendant_counts_match_the_extensions(depth, max_n):
    # depth 1 gives [children], depth 2 [children, grandchildren], so the
    # first entry at depth 2 is depth 1's
    _descendant_counts_match(depth, max_n)


@pytest.mark.parametrize("cap, blocks", [
    (3, 3), (4, 4), (5, 4), (5, 3), (4, 2), (5, 2),
    (0, 0), (1, 0), (2, 0), (3, 0),
])
def test_trace_walk_counts_one_level_of_leaves(monkeypatch, cap, blocks):
    # the walk counts, and walks no further from, every preorder on
    # k = max(blocks, cap - 2) points when k < cap, for the cap - k
    # levels up to cap; it counts nothing where cap <= blocks
    calls = []
    real = enumeration._descendant_counts

    def spied(rows, depth):
        calls.append((len(rows), depth))
        return real(rows, depth)
    monkeypatch.setattr(enumeration, "_descendant_counts", spied)
    enumeration._trace_table(cap, blocks)
    k = max(blocks, cap - 2)
    if cap <= blocks:
        assert calls == []
    else:
        assert calls == [(k, cap - k)] * KNOWN_COUNTS[k]


def test_count_extends_no_preorder_below_the_counted_size(monkeypatch):
    # the four-point classes are built, and their descendants only counted
    real = enumeration._extensions

    def refuse_four_or_five(rows):
        if len(rows) in (4, 5):
            raise AssertionError(f"a {len(rows)}-point preorder was extended")
        return real(rows)
    monkeypatch.setattr(enumeration, "_extensions", refuse_four_or_five)
    assert count_topologies(6) == 209_527


def test_class_budget_stops_inside_the_refused_size(monkeypatch):
    # n = 7 has 9,535,241 labeled spaces: the default max_spaces is
    # passed part way through, before every six-point class is extended
    extended = []
    real = enumeration._extensions

    def counted(rows):
        extended.append(len(rows))
        return real(rows)
    monkeypatch.setattr(enumeration, "_extensions", counted)
    with pytest.raises(BudgetExceeded, match="at n=7$"):
        enumerate_isomorphism_classes(7, EnumerationBudget(max_n=7))
    assert 0 < extended.count(6) < CLASS_COUNTS[6]
