"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles (subset
enumeration, permutation search, naive definitional loops) without calling
the library code paths under test.
"""

from __future__ import annotations

import itertools

from sfcheck.construct import InterpretationProfile
from sfcheck.graphs import Graph


def edge_set(g: Graph) -> set[frozenset[int]]:
    out = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (g.rows[i] >> j) & 1:
                out.add(frozenset((i, j)))
    return out


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search; only for tiny graphs."""
    if a.n != b.n:
        return False
    assert a.n <= 8, "brute-force isomorphism is exponential"
    ea, eb = edge_set(a), edge_set(b)
    if len(ea) != len(eb):
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(frozenset((perm[i], perm[j])) in eb for i, j in (tuple(e) for e in ea)):
            return True
    return False


def subset_max_clique(g: Graph, vertices=None) -> int:
    """Clique number by checking all subsets, largest first."""
    vs = list(range(g.n)) if vertices is None else list(vertices)
    assert len(vs) <= 16, "subset enumeration is exponential"
    for size in range(len(vs), 0, -1):
        for subset in itertools.combinations(vs, size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return 0


def subset_max_independent(g: Graph) -> int:
    assert g.n <= 16
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), size):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return 0


def naive_product_edges(a: Graph, b: Graph, kind: str) -> set[frozenset[int]]:
    """Product edges straight from the definitions, one pair at a time."""
    n = a.n * b.n
    out = set()
    for u in range(n):
        i, j = divmod(u, b.n)
        for w in range(u + 1, n):
            i2, j2 = divmod(w, b.n)
            ai = i != i2 and a.has_edge(i, i2)
            bj = j != j2 and b.has_edge(j, j2)
            if kind == "cartesian":
                adjacent = (i == i2 and bj) or (ai and j == j2)
            elif kind == "tensor":
                adjacent = ai and bj
            else:
                adjacent = ai or (i == i2 and bj)
            if adjacent:
                out.add(frozenset((u, w)))
    return out


def all_profiles() -> list[InterpretationProfile]:
    out = []
    for s in ("disjoint_union", "join"):
        for p in ("lexicographic", "cartesian", "tensor"):
            for b in ("explicit_path", "general"):
                for y in (1, 2):
                    out.append(InterpretationProfile(sum=s, prod=p, base_case=b, y_label=y))
    return out


def stage_vertex_count(r: int) -> int:
    """Closed form for a general-profile stage: both sides of r-1 copies."""
    return 2 * (r - 1) * r


def stacked_vertex_count(t: int, explicit_base: bool) -> int:
    total = 6 if explicit_base else stage_vertex_count(3)
    for r in range(4, t + 1):
        total += stage_vertex_count(r)
    return total


def scan_degeneracy_order(rows: tuple[int, ...], n: int) -> list[int]:
    """Smallest-last order by an O(n^2) scan for the minimum remaining
    degree, lowest index among ties; the reference for the solver's
    bucket-queue order."""
    remaining = (1 << n) - 1
    deg = [rows[v].bit_count() for v in range(n)]
    order = []
    for _ in range(n):
        best_v = -1
        best_d = n + 1
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if deg[v] < best_d:
                best_d = deg[v]
                best_v = v
        order.append(best_v)
        remaining &= ~(1 << best_v)
        m = rows[best_v] & remaining
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            deg[w] -= 1
    return order
