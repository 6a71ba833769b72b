"""Exhaustive enumeration of all topologies on n labeled points.

Main path: finite topologies correspond exactly to preorders (Stong,
1966), so the enumerator walks reflexive relation matrices row by row,
drawing each row only from the masks the decided rows still allow, and
takes each preorder's up-sets as the unions of its rows.  Counting needs
no topology at all: count_topologies counts the validated rows.  Two
independent routes exist for cross-checks: a naive filter over all
candidate open-set families (small n ground truth) and a vectorized
transitive-relation counter.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded
from .space import Preorder, Topology, build_topology, full_mask, up_sets

# Largest ground set enumerated when no budget is given.  The CLI's
# enumerate command is capped by the same constant.
MAX_ENUMERATION_N = 6


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard caps for sweep loops.

    max_n bounds the ground-set size of every swept space, and of the
    domain of every swept map.  codomain_max_n bounds map codomains
    separately; None means the same as max_n.  The size caps must be
    non-negative, max_spaces and max_maps positive.
    """

    max_n: int = 4
    max_spaces: int = 1_000_000
    max_maps: int = 5_000_000
    codomain_max_n: int | None = None

    def __post_init__(self):
        if self.max_n < 0:
            raise ValueError(f"max_n must be non-negative, got {self.max_n}")
        if self.codomain_max_n is not None and self.codomain_max_n < 0:
            raise ValueError("codomain_max_n must be non-negative, got "
                             f"{self.codomain_max_n}")
        for name in ("max_spaces", "max_maps"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    @property
    def codomain_n(self) -> int:
        """The effective codomain size cap."""
        if self.codomain_max_n is None:
            return self.max_n
        return self.codomain_max_n


def _preorder_rows(n: int):
    """Yield every reflexive transitive row assignment on n points.

    rows[i] is the up-set mask of point i, decided in index order.  Row i
    must lie inside every decided row that contains i, so its candidates
    are i plus the submasks of the AND of those rows, taken in increasing
    order.  Each candidate is then checked only for the down condition:
    a decided j in row i needs rows[j] inside row i.  Once every decided
    pair (a, b) with b in rows[a] satisfies rows[a] >= rows[b], chains
    through decided points compose automatically.
    """
    if n == 0:
        yield ()
        return
    full = full_mask(n)

    def extend(prefix):
        i = len(prefix)
        base = 1 << i
        upper = full
        for row in prefix:
            if row & base:
                upper &= row
        free = upper & ~base
        decided = [(1 << j, row) for j, row in enumerate(prefix)]
        last = i == n - 1
        sub = 0
        while True:
            candidate = base | sub
            for bit, row in decided:
                if candidate & bit and row & ~candidate:
                    break
            else:
                if last:
                    yield prefix + (candidate,)
                else:
                    yield from extend(prefix + (candidate,))
            if sub == free:
                break
            # the next larger submask of free
            sub = (sub - free) & free

    yield from extend(())


def _checked_budget(n: int, budget: EnumerationBudget | None):
    """The budget to enumerate n points under, refused before any work."""
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    budget = budget or EnumerationBudget(max_n=MAX_ENUMERATION_N)
    if n > budget.max_n:
        raise BudgetExceeded(f"n={n} exceeds budget max_n={budget.max_n}")
    return budget


def _preorders(n: int, budget: EnumerationBudget):
    """Validated row tuples of every preorder on n points, in row order.

    Raises BudgetExceeded at the (max_spaces + 1)-th preorder.
    """
    for count, rows in enumerate(_preorder_rows(n), 1):
        Preorder(rows).validate()
        if count > budget.max_spaces:
            raise BudgetExceeded(
                f"more than {budget.max_spaces} topologies at n={n}"
            )
        yield rows


def enumerate_topologies(n: int, budget: EnumerationBudget | None = None):
    """Every topology on {0..n-1} exactly once, in canonical order.

    Canonical order sorts by the opens list (count first, then the
    numeric tuple), so the stream is reproducible across runs and
    backends.  Without a budget, n is capped at MAX_ENUMERATION_N.  The
    budget is checked on the call, before any work.  The stream is not
    lazy: every preorder is generated and its canonical key sorted before
    the first topology is yielded, so memory grows with the count.  Only
    the keys (opens and rows as int tuples) are held; each Topology is
    built when it is yielded.
    """
    budget = _checked_budget(n, budget)
    return _canonical_stream(n, budget)


def _canonical_stream(n: int, budget: EnumerationBudget):
    keys = []
    for rows in _preorders(n, budget):
        opens = up_sets(rows)
        keys.append((len(opens), opens, rows))
    # (count, opens) is the canonical key and unique, so rows never decide
    keys.sort()
    for _, opens, rows in keys:
        # rows double as the minimal neighbourhoods
        yield Topology(n, opens, rows)


def enumerate_topologies_naive(n: int, budget: EnumerationBudget | None = None):
    """Ground-truth oracle: filter all candidate families for the axioms.

    Tries every subset of the proper nonempty masks joined with {empty,
    full}; keeps families closed under union and intersection.  Cost is
    2^(2^n - 2) candidates, so n <= 4 is enforced.
    """
    if n > 4:
        raise BudgetExceeded("naive family filter is capped at n=4")
    if budget is not None and n > budget.max_n:
        raise BudgetExceeded(f"n={n} exceeds budget max_n={budget.max_n}")
    full = full_mask(n)
    proper = [m for m in range(1, full)]
    found = []
    for r in range(len(proper) + 1):
        for chosen in combinations(proper, r):
            family = {0, full} | set(chosen)
            if _closed_under_ops(family):
                opens = tuple(
                    sorted(family, key=lambda m: (m.bit_count(), m))
                )
                found.append(build_topology(n, opens))
    found.sort(key=lambda t: t.canonical_key())
    yield from found


def _closed_under_ops(family) -> bool:
    for u in family:
        for v in family:
            if u & v not in family or u | v not in family:
                return False
    return True


def count_topologies(n: int, budget: EnumerationBudget | None = None) -> int:
    """The number of topologies on n points, without building any.

    Counts the validated preorders under the same budget checks as
    enumerate_topologies, raising at the same point.
    """
    budget = _checked_budget(n, budget)
    return sum(1 for _ in _preorders(n, budget))


# relation matrices per vectorized chunk of the relation filter
_RELATION_CHUNK = 1 << 16


def count_reflexive_transitive_relations(n: int) -> int:
    """Count preorders on n points by brute transitivity filtering.

    Independent cross-check for enumerate_topologies: materializes every
    reflexive relation matrix in vectorized chunks and keeps those with
    R composed with R inside R.  Intended for n <= 5 (2^20 relations).
    """
    import numpy as np

    if n == 0:
        return 1
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    bits = len(cells)
    if bits > 24:
        raise BudgetExceeded("relation filter is sized for n <= 5")
    total = 0
    shifts = np.arange(bits, dtype=np.uint32)
    for start in range(0, 1 << bits, _RELATION_CHUNK):
        stop = min(start + _RELATION_CHUNK, 1 << bits)
        idx = np.arange(start, stop, dtype=np.uint32)
        flags = (idx[:, None] >> shifts) & 1
        rel = np.zeros((stop - start, n, n), dtype=bool)
        rel[:, np.arange(n), np.arange(n)] = True
        for b, (i, j) in enumerate(cells):
            rel[:, i, j] = flags[:, b]
        comp = np.einsum("bij,bjk->bik", rel, rel)
        total += int(np.all(comp <= rel, axis=(1, 2)).sum())
    return total
