"""Enumerating every topology on n labeled points.

The enumerator grows one preorder (a finite topology in disguise) per
homeomorphism class, lists the relabelings of each and yields the
spaces in a canonical order; the count sums orbit sizes and builds no
labeled space at all.  Two independent oracles confirm the counts.
"""

import time

from fintopo import (
    EnumerationBudget,
    count_reflexive_transitive_relations,
    count_topologies,
    enumerate_topologies,
    enumerate_topologies_naive,
)

# the labeled counts start 1, 1, 4, 29, 355, 6942, 209527
for n in range(5):
    print(f"topologies on {n} labeled points: {count_topologies(n)}")

# all four topologies on two points, canonically ordered
print("\nn = 2 stream:")
for t in enumerate_topologies(2):
    print("  opens:", [bin(u) for u in t.opens])

# oracle 1: filter every candidate family for the axioms (tiny n only)
naive = sum(1 for _ in enumerate_topologies_naive(3))
print("\nnaive family filter at n=3:", naive)

# oracle 2: count reflexive transitive relation matrices directly
relations = count_reflexive_transitive_relations(4)
print("relation filter at n=4:", relations)

# the big one: n = 5 through both independent routes
start = time.perf_counter()
main_count = count_topologies(5, EnumerationBudget(max_n=5))
mid = time.perf_counter()
relation_count = count_reflexive_transitive_relations(5)
end = time.perf_counter()
print(f"\nn = 5: {main_count} (enumerator, {mid - start:.2f}s), "
      f"{relation_count} (relation filter, {end - mid:.2f}s)")
assert main_count == relation_count == 6942

# budgets make runaway sweeps impossible
try:
    list(enumerate_topologies(6, EnumerationBudget(max_n=5)))
except Exception as exc:
    print("budget refusal:", exc)
