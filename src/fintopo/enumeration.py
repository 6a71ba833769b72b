"""Exhaustive enumeration of all topologies on n labeled points.

Main path: finite topologies correspond exactly to preorders (Stong,
1966), and their opens are the preorder's up-sets.  One generator,
_row_levels, grows preorders one point at a time by one step,
_extensions: the new point goes above a down-set and below an up-set of
a preorder on the points before it.  It extends one representative per
homeomorphism class, keeps only the extensions whose new point has the
largest (row size, column size), and removes isomorphic copies among
those by a brute-force canonical form.  That filter is the cheap half of
McKay's canonical augmentation, "Isomorph-free exhaustive generation"
(J. Algorithms 26, 1998), and it loses no class: deleting a point of
largest invariant from any class leaves a class one size down, whose
representative's extensions give the class back with that point new.
The class counts are those of Brinkmann & McKay, "Counting unlabelled
topologies and transitive relations" (J. Integer Seq. 8, 2005).

Every entry point reads those classes, which come in no promised order
within a size.  enumerate_isomorphism_classes gives them with the
number of labeled topologies in each class.  enumerate_topologies lists
the labeled members of every class, relabeled through one table per
size (_relabelings), in canonical order.  count_topologies(n) counts
from the classes two sizes down: every labeled preorder on n points is
reached by two _extensions steps from exactly one on the points
0..n-3, and a relabeling of those points carries one preorder's
descendants one to one onto its image's, so each class on n - 2 points
adds its orbit size times its representative's descendants on n
points.  _descendant_counts reads one or two levels of that tree off
up-set bitmaps, with no preorder built: a popcount of the up-sets
under each down-set's cap, and the same read off the parent's bitmaps
for the extensions' extensions.  _trace_table counts the map sweep's
codomains by restriction, walking the labeled _extensions tree once
with no class at all.  It keeps rows only for as many blocks as a
domain can have, and counts the last one or two levels where no row
of them is kept.  Two independent routes exist for cross-checks: a
naive filter over all candidate open-set families (small n ground
truth) and a bit-plane transitive-relation counter.
"""

from collections import namedtuple
from itertools import (chain, combinations, groupby, islice, permutations,
                       product)
from math import factorial, perm

from .errors import BudgetExceeded
from .space import (
    Preorder,
    Topology,
    _columns,
    _or_table,
    _point_planes,
    _sorted_opens,
    _submasks,
    build_topology,
    full_mask,
    iter_points,
    topology_from_preorder,
    up_sets,
)

# Largest ground set enumerated when no budget is given.  The CLI's
# enumerate command is capped by the same constant.
MAX_ENUMERATION_N = 6


class EnumerationBudget(namedtuple(
        "EnumerationBudget", "max_n max_spaces max_maps codomain_max_n",
        defaults=(4, 1_000_000, 5_000_000, None))):
    """Hard caps for sweep loops.

    max_n bounds the ground-set size of every swept space, and of the
    domain of every swept map.  codomain_max_n bounds map codomains
    separately; None means the same as max_n.  The size caps must be
    non-negative, max_spaces and max_maps positive, however the budget
    is built: _make, and so _replace, go through the same check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_n < 0:
            raise ValueError(f"max_n must be non-negative, got {self.max_n}")
        if self.codomain_max_n is not None and self.codomain_max_n < 0:
            raise ValueError("codomain_max_n must be non-negative, got "
                             f"{self.codomain_max_n}")
        for name, value in zip(self._fields[1:3], self[1:3]):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))

    @property
    def codomain_n(self) -> int:
        """The effective codomain size cap."""
        if self.codomain_max_n is None:
            return self.max_n
        return self.codomain_max_n


def _checked_budget(n: int, budget: EnumerationBudget | None):
    """The budget to enumerate n points under, refused before any work."""
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    budget = budget or EnumerationBudget(max_n=MAX_ENUMERATION_N)
    if n > budget.max_n:
        raise BudgetExceeded(f"n={n} exceeds budget max_n={budget.max_n}")
    return budget


def _refusal(n: int, budget: EnumerationBudget) -> BudgetExceeded:
    return BudgetExceeded(f"more than {budget.max_spaces} topologies at n={n}")


def _level(levels, n: int, budget: EnumerationBudget, size=None):
    """Size n of levels, which yields the sizes 0, 1, ... in turn, or
    size `size` where the request for n reads a smaller one.

    No size has more topologies than the next, so a size refused on the
    way is reported as a refusal of n.
    """
    try:
        return next(islice(levels, n if size is None else size, None))
    except BudgetExceeded:
        raise _refusal(n, budget) from None


def enumerate_topologies(n: int, budget: EnumerationBudget | None = None):
    """Every topology on {0..n-1} exactly once, in canonical order.

    Canonical order sorts by the opens list (count first, then the
    numeric tuple), so the stream is reproducible across runs and
    backends.  Without a budget, n is capped at MAX_ENUMERATION_N.  The
    budget is checked on the call, before any work.  The stream lists the
    orbit of every isomorphism class on n points (see _orbit).  It is not
    lazy: every canonical key is built and sorted before the first
    topology is yielded, so memory grows with the count.  Only the keys
    (opens and rows as int tuples) are held while yielding; each
    Topology is built when it is yielded.
    """
    budget = _checked_budget(n, budget)
    return _canonical_stream(n, budget)


def _canonical_stream(n: int, budget: EnumerationBudget):
    classes = _level(_class_levels(budget), n, budget)
    # (count, opens) is the canonical key and unique, so rows never decide
    for _, opens, rows in sorted(_orbit_keys([t for t, _ in classes], n)):
        # rows double as the minimal neighbourhoods
        yield Topology(n, opens, rows)


def _relabelings(n: int):
    """{seq: image} for each of the n! orders seq of the points 0..n-1.

    Relabeling by seq gives the old point seq[k] the label k, and
    image[m] is the relabeled mask m, for every m < 2^n.  The table
    holds n!·2^n ints (645,120 at n = 7), so it is built for one size
    and dropped with it.
    """
    return {seq: _or_table([1 << seq.index(x) for x in range(n)])
            for seq in permutations(range(n))}


def _orbit(t: Topology, tables):
    """The labeled members of t's class, {rows: opens}.

    tables is _relabelings(t.n).  The orders that differ by an
    automorphism of t give the same rows, which are kept once.
    """
    members = {}
    for seq, image in tables.items():
        rows = tuple([image[t.min_nbhd[x]] for x in seq])
        if rows not in members:
            members[rows] = _sorted_opens([image[u] for u in t.opens])
    return members


def _orbit_keys(topologies, n: int):
    """(count, opens, rows) of every labeled member of the classes of
    the given topologies on n points, (count, opens) being the canonical
    key.  One _relabelings(n) table serves them all, and it is dropped
    once the last key is given."""
    tables = _relabelings(n)
    for t in topologies:
        for rows, opens in _orbit(t, tables).items():
            yield len(opens), opens, rows


def _invariants(rows):
    """Each point's (row size, column size), packed into one int.

    Isomorphisms keep the pair, and the packed ints order the points as
    the pairs do: column sizes are at most n.
    """
    n = len(rows)
    return [row.bit_count() * (n + 1) + column.bit_count()
            for row, column in zip(rows, _columns(rows))]


def _canonical(rows, tables, invariant):
    """The least relabeling of a preorder's rows, and how many give it.

    invariant is _invariants(rows).  Every isomorphism keeps it, so the
    points are ordered by it and only the orders that permute points
    inside blocks of equal invariant are read from tables, the
    _relabelings of the size.  Those that reach the least row tuple form
    one coset of the automorphism group, so their number is its order.
    """
    order = sorted(range(len(rows)), key=invariant.__getitem__)
    blocks = [list(b) for _, b in groupby(order, key=invariant.__getitem__)]
    best, automorphisms = None, 0
    for choice in product(*map(permutations, blocks)):
        seq = tuple(chain.from_iterable(choice))
        image = tables[seq]
        form = tuple([image[rows[x]] for x in seq])
        if best is None or form < best:
            best, automorphisms = form, 1
        elif form == best:
            automorphisms += 1
    return best, automorphisms


def _extensions(rows):
    """Every preorder on len(rows) + 1 points that restricts to rows.

    The new point sits above a down-set D and below an up-set U of the
    old preorder, with every point of D below every point of U.
    """
    m = len(rows)
    new, full = 1 << m, full_mask(m)
    ups = up_sets(rows)
    for up in ups:
        down = full ^ up  # a down-set is the complement of an up-set
        cap = full
        for x in iter_points(down):
            cap &= rows[x]
        # the points of D gain the new point in their rows
        lowered = tuple(row | new if down >> x & 1 else row
                        for x, row in enumerate(rows))
        for u in ups:
            if u & ~cap == 0:
                yield lowered + (new | u,)


def _descendant_counts(rows, depth: int):
    """The preorders on len(rows) + 1 points that restrict to rows, and
    for depth 2 those on len(rows) + 2 points too, as [children] or
    [children, grandchildren], with no preorder built.

    Let U be the up-sets of rows, c(v) = cap(full - v) the meet of the
    rows outside v (an up-set), and N(s) the number of w in U inside s
    (below, <= is inclusion).  c(v) is full less the union of the rows'
    complements over full - v: one union table.

    The extensions over V in U are the u in U inside c(V), so the
    children are sum_{V in U} N(c(V)): per V, a popcount of the up-sets'
    bitmap masked by the bitmap of c(V)'s subsets (Warren, Hacker's
    Delight, ch. 5).

    The extension e = (V, u) puts the new point p above full - V and
    below u, so its up-sets are the v in U inside V and the v + p with v
    in U over u.  Its own children, read as above over each of them:

        ext(e) = 1 + sum_{v in U, v <= V} N(c(v) & u & V)
                   + sum_{v in U, v >= u} N(c(v) & V)
                   + sum_{v in U, v >= u | V} #{w in U : u <= w <= c(v)}

    where the 1 is V + p alone.  Summed over e, the 1s give the
    children; the third sum, over u, gives N(c(v) & V) * N(c(V) & v) per
    pair (V, v).  w <= c(v) holds iff v holds a(w), the points not below
    every point of w, so the second sum, grouped by (V, w) with w inside
    V, is #{v in U : a(w) <= v <= V} * #{u in U : w <= u <= c(V)}; the
    fourth, grouped by (v, u), is the same sum with the names changed.
    Each interval count is a popcount of the up-sets' bitmap masked by
    one up-set's subsets and another's supersets.
    """
    full = full_mask(len(rows))
    ups = up_sets(rows)
    held = sum(1 << u for u in ups)
    missed = _or_table([full ^ row for row in rows])
    children = sum((held & _submasks(full ^ missed[full ^ up])).bit_count()
                   for up in ups)
    if depth == 1:
        return [children]
    cap = {v: full ^ missed[full ^ v] for v in ups}
    # beyond[w] = a(w), the union over y in w of the points not below y:
    # column y holds the points below y
    beyond = _or_table([full ^ column for column in _columns(rows)])
    inside = {v: held & _submasks(v) for v in ups}
    over = {w: held & (_submasks(full ^ w) << w) for w in ups}
    count = {v: bits.bit_count() for v, bits in inside.items()}
    pairs = sum(count[cap[v] & up] * count[c & v]
                for up, c in cap.items() for v in ups)
    between = sum((over[beyond[w]] & inside[up]).bit_count()
                  * (over[w] & inside[c]).bit_count()
                  for up, c in cap.items() for w in ups if w & ~up == 0)
    return [children, children + pairs + 2 * between]


def _row_levels(budget: EnumerationBudget):
    """Per size n = 0..budget.max_n, {canonical rows: orbit size} of
    every class on n points.

    Size n is built from the classes of size n - 1 (see _next_level).  It
    raises BudgetExceeded once the orbit sizes at one size sum past
    max_spaces, so a size is refused iff it has more than max_spaces
    labeled topologies, and no later size is built.  The classes of one
    size come in no promised order: counts are sums, and witnesses are
    taken from first_in_orbits.
    """
    level = {(): 1}
    for n in range(budget.max_n + 1):
        if n:
            level = _next_level(level, n, budget)
        yield level


def _class_levels(budget: EnumerationBudget):
    """_row_levels as (topology, orbit size) pairs.  Only the
    representatives pass Preorder.validate(): relabelings keep validity."""
    for level in _row_levels(budget):
        yield [
            (topology_from_preorder(Preorder(rows)), orbit)
            for rows, orbit in level.items()
        ]


def _next_level(level, n: int, budget: EnumerationBudget):
    """{canonical rows: orbit size} of every class on n points.

    level holds the classes on n - 1 points.  Only the extensions whose
    new point, n - 1, has the largest invariant are put in canonical
    form.  No class is lost: a class has a point w of largest invariant,
    and the class of its rows without w is in level, so _extensions
    gives the class back with the new point in w's place.  Isomorphic
    extensions give one canonical form, which is kept once.
    """
    tables = _relabelings(n)
    found = {}
    labeled = 0
    for rows in level:
        for extended in _extensions(rows):
            # a larger row rules the new point out before columns are counted
            if max(map(int.bit_count, extended)) > extended[-1].bit_count():
                continue
            invariant = _invariants(extended)
            if invariant[-1] < max(invariant):
                continue
            form, automorphisms = _canonical(extended, tables, invariant)
            if form in found:
                continue
            found[form] = orbit = factorial(n) // automorphisms
            labeled += orbit
            if labeled > budget.max_spaces:
                raise _refusal(n, budget)
    return found


def enumerate_isomorphism_classes(n: int,
                                  budget: EnumerationBudget | None = None):
    """One topology per homeomorphism class on n points, with its orbit.

    Returns a list of (topology, orbit size) pairs, where the orbit size
    n!/|Aut| counts the labeled topologies in the class; they sum to
    count_topologies(n).  The representatives are validated preorders,
    relabeled so that their points are ordered by (row size, column
    size) and their rows are least among such relabelings.  The budget
    is checked as in enumerate_topologies, and max_spaces bounds the
    orbit-size sum.
    """
    budget = _checked_budget(n, budget)
    return _level(_class_levels(budget), n, budget)


def first_in_orbits(topologies) -> Topology:
    """The labeled topology first in canonical order among every
    relabeling of the given topologies (all on the same n points).

    The number of opens is kept by relabeling, so only the orbits of the
    topologies with the fewest opens are listed.
    """
    fewest = min(len(t.opens) for t in topologies)
    n = topologies[0].n
    _, opens, rows = min(_orbit_keys(
        [t for t in topologies if len(t.opens) == fewest], n))
    return Topology(n, opens, rows)


def enumerate_topologies_naive(n: int, budget: EnumerationBudget | None = None):
    """Ground-truth oracle: filter all candidate families for the axioms.

    Tries every subset of the proper nonempty masks joined with {empty,
    full}; keeps families closed under union and intersection.  Cost is
    2^(2^n - 2) candidates, so n <= 4 is enforced.
    """
    if n > 4:
        raise BudgetExceeded("naive family filter is capped at n=4")
    _checked_budget(n, budget)
    full = full_mask(n)
    proper = [m for m in range(1, full)]
    found = []
    for r in range(len(proper) + 1):
        for chosen in combinations(proper, r):
            family = {0, full} | set(chosen)
            if _closed_under_ops(family):
                found.append(build_topology(n, family))
    found.sort(key=lambda t: t.canonical_key())
    yield from found


def _closed_under_ops(family) -> bool:
    for u in family:
        for v in family:
            if u & v not in family or u | v not in family:
                return False
    return True


def count_topologies(n: int, budget: EnumerationBudget | None = None) -> int:
    """The number of topologies on n labeled points, without listing them.

    Each labeled preorder on n points restricts to exactly one on the
    points 0..n-3, and is reached from it by two _extensions steps in one
    way only.  A relabeling of those n - 2 points carries the extensions
    of one preorder one to one onto those of its image, and, fixing the
    point n - 2, each extension's extensions onto its image's, so every
    member of a class has as many descendants on n points as its
    representative.  The count is the sum, over the classes on n - 2
    points, of orbit size times the representative's grandchildren
    (_descendant_counts): no preorder on n - 1 or n points is built, and
    no Topology.  The budget is checked as in enumerate_topologies: size
    n is refused iff it has more than max_spaces topologies, and the sum
    stops at the first partial total above it.
    """
    budget = _checked_budget(n, budget)
    if n < 2:
        return 1
    total = 0
    for rows, orbit in _level(_row_levels(budget), n, budget,
                              size=n - 2).items():
        total += orbit * _descendant_counts(rows, 2)[1]
        if total > budget.max_spaces:
            raise _refusal(n, budget)
    return total


def _trace_table(cap: int, blocks: int):
    """Per k <= min(cap, blocks), each preorder sigma on the points
    0..k-1 (as its opens) with N(ny, k, sigma) for every ny <= cap: the
    maps with a given k-block fiber partition into a space on ny points
    whose opens pull back to sigma on the blocks.

    A relabeling moves the image of the blocks to the points 0..k-1, and
    a subspace carries the restricted preorder, so N is (ny)_k times the
    labeled preorders on ny points that restrict to sigma: sigma's
    descendants on ny points in the tree of _extensions, walked once
    from the empty preorder.  No class, relabeling or injection is read.
    A domain on at most blocks points has no partition into more blocks,
    so no row is kept past them: a node on k points with max(blocks,
    cap - 2) <= k < cap walks no child, and its descendants on the
    cap - k levels up to cap are read from _descendant_counts.
    """
    table = [[] for _ in range(min(cap, blocks) + 1)]
    leaf = max(blocks, cap - 2)

    def walk(rows):
        k = len(rows)
        below = [int(ny == k) for ny in range(cap + 1)]
        if leaf <= k < cap:
            below[k + 1:] = _descendant_counts(rows, cap - k)
        elif k < cap:
            for extended in _extensions(rows):
                below = [a + b for a, b in zip(below, walk(extended))]
        if k <= blocks:
            table[k].append((up_sets(rows), [perm(ny, k) * count for ny,
                                             count in enumerate(below)]))
        return below

    walk(())
    return table


def count_reflexive_transitive_relations(n: int) -> int:
    """Count preorders on n points by brute transitivity filtering.

    Independent cross-check for enumerate_topologies that tests every
    reflexive relation at once.  The n(n-1) cells (i, j) off the diagonal
    are numbered, so relation r is the number whose bits are its cells,
    and cell (i, j) gets the point plane of its bit: bit r of the plane
    says r holds (i, j).  A relation fails when it holds (i, j) and
    (j, k) but not (i, k); with the diagonal all ones, only triples of
    distinct points can fail.  Sized for n <= 5 (2^20 relations).
    """
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    if n > 5:
        raise BudgetExceeded("relation filter is sized for n <= 5")
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    holds = dict(zip(cells, _point_planes(len(cells))))
    bad = 0
    for i, j, k in permutations(range(n), 3):
        bad |= holds[i, j] & holds[j, k] & ~holds[i, k]
    return (1 << len(cells)) - bad.bit_count()
