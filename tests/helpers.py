"""Shared fixture spaces and a stand-in process pool for the test suite.

Points are indexed a=bit0, b=bit1, c=bit2, d=bit3, so subset literals
below read right to left.
"""

from fintopo import Preorder, build_topology, topology_from_preorder
from fintopo.space import iter_points


def four_point_space():
    # opens {}, {a}, {b}, {a,b}, {a,b,c,d}
    return build_topology(4, [0b0000, 0b0001, 0b0010, 0b0011, 0b1111])


def three_point_space():
    # opens {}, {a}, {a,b,c}
    return build_topology(3, [0b000, 0b001, 0b111])


def sierpinski():
    # opens {}, {a}, {a,b}
    return build_topology(2, [0b00, 0b01, 0b11])


def discrete(n):
    return build_topology(n, range(1 << n))


def indiscrete(n):
    return build_topology(n, [0, (1 << n) - 1])


def random_preorder_topology(seeds):
    """Close arbitrary seed rows into a preorder and take its topology."""
    n = len(seeds)
    rows = [seeds[i] % (1 << n) | 1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = rows[i]
            for j in iter_points(rows[i]):
                merged |= rows[j]
            if merged != rows[i]:
                rows[i] = merged
                changed = True
    return topology_from_preorder(Preorder(tuple(rows)))


class FakePool:
    """Stands in for multiprocessing.Pool and starts no process.

    Install partial(FakePool, made) as theorems.Pool: each pool appends
    its processes argument to the list made, and imap runs the work in
    this process.
    """

    def __init__(self, made, processes=None):
        made.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, iterable, chunksize=1):
        return map(fn, iterable)
