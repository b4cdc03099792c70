"""Exact maximum clique, independent set, and single-label clique solvers.

max_clique is a branch-and-bound search: a greedy clique seeds the lower
bound, root vertices are processed in degeneracy order, and inside the tree
candidate sets are bounded by a greedy coloring.  The search runs on an
explicit stack of (classes, color, candidates) frames, so its depth is not
bounded by Python's recursion limit.  Each coloring step and each branch
reads a table built once per call and indexed by ``bit.bit_length()``
(v + 1 for bit 1 << v): the mask that removes v and its neighbours, and
v's row.  That saves the shifts and complements of a per-vertex step but
explores exactly the tree of the recursive search it replaced
(``recursive_max_clique`` in ``tests/oracles.py``): the same classes and
the same branching order, hence the same node counts and witnesses.

oracle_max_clique is a deliberately plain clique enumeration kept
independent of the main solver so the two can cross-check each other on
small graphs.

All searches are single-threaded and fully deterministic (ties break toward
the lowest vertex index), so sizes, witnesses, and node counts reproduce
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from sfcheck.construct import LabeledGraph
from sfcheck.graphs import Graph, as_vertex_set, complement, induced

ORACLE_MAX_N = 24


@dataclass(frozen=True)
class CliqueResult:
    """Optimum size, a verified witness, and search statistics."""

    size: int
    witness: tuple[int, ...]
    nodes_explored: int


def verify_witness(g: Graph, members, mode: str) -> bool:
    """O(k^2) pairwise re-check that ``members`` is a clique / independent set.

    Independent of the solvers; every witness that leaves this module has
    passed it, and reports re-run it on load.
    """
    if mode not in ("clique", "independent"):
        raise ValueError(f"unknown witness mode {mode!r}")
    vs = as_vertex_set(g, members)
    want = mode == "clique"
    for a, b in combinations(vs, 2):
        if g.has_edge(a, b) != want:
            return False
    return True


def _degeneracy_order(rows: tuple[int, ...], n: int) -> list[int]:
    """Smallest-last order: repeatedly remove a vertex of minimum remaining
    degree, the lowest index among ties.

    Vertices sit in buckets, a dict from remaining degree to the bitmask of
    the vertices with that degree.  Removing v moves each remaining
    neighbour down one bucket; a neighbour leaves ``nbrs`` once moved, so
    none moves twice.  That costs O(n * distinct degrees) big-int
    operations in place of a Python-level O(n^2) scan for the minimum; the
    order, and so every search that follows it, is the same as that scan's
    (``tests/oracles.py::scan_degeneracy_order``).
    """
    buckets: dict[int, int] = {}
    for v in range(n):
        d = rows[v].bit_count()
        buckets[d] = buckets.get(d, 0) | (1 << v)
    remaining = (1 << n) - 1
    order = []
    for _ in range(n):
        degrees = sorted(buckets)
        low = buckets[degrees[0]]
        bit = low & -low
        v = bit.bit_length() - 1
        order.append(v)
        remaining ^= bit
        if low == bit:
            del buckets[degrees[0]]
        else:
            buckets[degrees[0]] = low ^ bit
        nbrs = rows[v] & remaining
        for e in degrees:
            if not nbrs:
                break
            moved = buckets.get(e, 0) & nbrs
            if moved:
                nbrs ^= moved
                if buckets[e] == moved:
                    del buckets[e]
                else:
                    buckets[e] ^= moved
                buckets[e - 1] = buckets.get(e - 1, 0) | moved
    return order


def _greedy_clique(rows: tuple[int, ...], n: int) -> list[int]:
    """Grow a clique by repeatedly taking the candidate with most candidate
    neighbors (ties to the lowest index); used as the initial bound."""
    cand = (1 << n) - 1
    clique: list[int] = []
    while cand:
        best_v = -1
        best_d = -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (rows[v] & cand).bit_count()
            if d > best_d:
                best_d = d
                best_v = v
        clique.append(best_v)
        cand &= rows[best_v]
    return clique


def max_clique(g: Graph) -> CliqueResult:
    """Exact maximum clique by branch and bound with a greedy-coloring bound."""
    n = g.n
    rows = g.rows
    nodes = 0

    seed = _greedy_clique(rows, n)
    best_size = len(seed)
    best_witness = tuple(sorted(seed))

    # Tables indexed by bit.bit_length(), i.e. v + 1 for bit = 1 << v:
    # nn[v + 1] masks out v and its neighbours, rb[v + 1] is row v.
    full = (1 << n) - 1
    nn = (0, *(full ^ (row | 1 << v) for v, row in enumerate(rows)))
    rb = (0, *rows)

    order = _degeneracy_order(rows, n)
    remaining = full
    for v in order:
        remaining ^= 1 << v
        cand = rows[v] & remaining
        if 1 + cand.bit_count() <= best_size:
            continue
        # Depth-first search from root v.  The node being expanded keeps its
        # state in (classes, color, cur), each ancestor's state waits on
        # ``stack``, and base[i] is the bit of the i-th clique vertex.
        base = [1 << v]
        stack: list[tuple[list[int], int, int]] = []
        while True:
            nodes += 1
            depth = len(base)
            if cand:
                # Greedy coloring: peel independent classes; a vertex in
                # class c can extend the clique to at most depth + c.
                classes: list[int] = []
                rest = cand
                while rest:
                    avail = rest
                    cls = 0
                    while avail:
                        bit = avail & -avail
                        cls |= bit
                        avail &= nn[bit.bit_length()]
                    classes.append(cls)
                    rest ^= cls
                color = len(classes)
                cur = cand
            else:
                if depth > best_size:
                    best_size = depth
                    best_witness = tuple(sorted(b.bit_length() - 1 for b in base))
                color = 0
            # Branch on the next vertex of the highest class left; once the
            # bound prunes or the classes run out, resume the parent.
            while True:
                while color and depth + color > best_size:
                    rem = classes[color - 1] & cur
                    if rem:
                        break
                    color -= 1
                else:
                    if not stack:
                        break
                    base.pop()
                    depth -= 1
                    classes, color, cur = stack.pop()
                    continue
                bit = rem & -rem
                cur ^= bit
                stack.append((classes, color, cur))
                base.append(bit)
                cand = cur & rb[bit.bit_length()]
                break
            if not stack:
                break

    if not verify_witness(g, best_witness, "clique"):
        raise AssertionError("solver produced an invalid clique witness")
    return CliqueResult(best_size, best_witness, nodes)


def max_independent_set(g: Graph) -> CliqueResult:
    """Exact maximum independent set via the complement's maximum clique."""
    res = max_clique(complement(g))
    if not verify_witness(g, res.witness, "independent"):
        raise AssertionError("solver produced an invalid independent-set witness")
    return res


def max_mono_clique(lg: LabeledGraph) -> CliqueResult:
    """Largest clique whose vertices all carry one label.

    Solves each label class on its induced subgraph; the witness is reported
    in the original vertex numbering and carries a single label.
    """
    g = lg.graph
    best_size = 0
    best_witness: tuple[int, ...] = ()
    nodes = 0
    for label in (1, 2):
        members = lg.vertices_with_label(label)
        res = max_clique(induced(g, members))
        nodes += res.nodes_explored
        if res.size > best_size:
            best_size = res.size
            best_witness = tuple(members[i] for i in res.witness)
    if not verify_witness(g, best_witness, "clique"):
        raise AssertionError("solver produced an invalid single-label witness")
    return CliqueResult(best_size, best_witness, nodes)


def oracle_max_clique(g: Graph) -> int:
    """Exact clique number by straightforward clique enumeration.

    Capped at n <= 24 so the worst case stays around 2^24 subsets.  No
    coloring, no degeneracy order; independent of max_clique by design.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle refuses n={g.n} > {ORACLE_MAX_N}")
    rows = g.rows
    best = 0

    def extend(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand and size + cand.bit_count() > best:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(size + 1, cand & rows[v])

    extend(0, (1 << g.n) - 1)
    return best
