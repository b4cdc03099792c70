"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles (subset
enumeration, permutation search, naive definitional loops) without calling
the library code paths under test.
"""

from __future__ import annotations

import binascii
import itertools
from collections.abc import Iterable
from functools import reduce
from operator import itemgetter, lt, or_
from typing import NamedTuple

from sfcheck import cli, construct, solve
from sfcheck.construct import InterpretationProfile
from sfcheck.formats import Graph6ParseError
from sfcheck.graphs import Graph, complement
from sfcheck.solve import (
    CliqueResult,
    StackResult,
    _degeneracy_order,
    _greedy_clique,
    _members,
    max_clique,
)


# The paper's graph operators, and the graphs the tests build with them.
# No command calls these: they are the reference that the stage blocks'
# clusters are held to (``test_decompose.py``), one reading of each
# profile's sum and prod, ``construct.COMBINE_OPS`` and
# ``construct.PRODUCT_KINDS``.


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Graph._trusted(n, (0,) * n)


def path(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def combine(a: Graph, b: Graph, op: str) -> Graph:
    """Disjoint union or join; a keeps indices [0, a.n), b gets [a.n, a.n+b.n)."""
    if op not in construct.COMBINE_OPS:
        raise ValueError(f"unknown combine op {op!r}")
    cross_b = (((1 << b.n) - 1) << a.n) if op == "join" else 0
    cross_a = ((1 << a.n) - 1) if op == "join" else 0
    rows = [row | cross_b for row in a.rows]
    rows.extend((row << a.n) | cross_a for row in b.rows)
    return Graph._trusted(a.n + b.n, tuple(rows))


def product(a: Graph, b: Graph, kind: str) -> Graph:
    """The product of an edgeless ``a`` with ``b``; (i, j) -> i*b.n + j: a.n
    shifted copies of b under cartesian and lexicographic, which join two
    copies only through an edge of ``a``, and a.n*b.n isolated vertices
    under tensor.  A left factor with an edge raises ValueError."""
    if kind not in construct.PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    if any(a.rows):
        raise ValueError("product takes an edgeless left factor")
    rows = (0,) * b.n if kind == "tensor" else b.rows
    return Graph._trusted(a.n * b.n, tuple(row << (i * b.n) for i in range(a.n) for row in rows))


def random_graph(n: int, edge_probability: float, rng) -> Graph:
    """G(n, p) sample drawn from ``rng``, a ``random.Random``; edge draws
    follow (i, j) lexicographic order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._trusted(n, tuple(rows))


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


def family_representatives() -> list[InterpretationProfile]:
    """The first profile of each stage family, ``construct.stage_family``,
    in ``all_profiles`` order.  The profiles of a family build the same
    dense graphs and stage route results (``test_construct.py``'s
    ``check_stage_families``), so a test that reaches only those loops
    over these nine."""
    first = {}
    for profile in all_profiles():
        first.setdefault(construct.stage_family(profile), profile)
    return list(first.values())


def profile_argv(profile: InterpretationProfile) -> list[str]:
    """The ``sfcheck`` flags that select ``profile``."""
    flags = (("--sum", cli._SUM_FLAGS, profile.sum), ("--prod", cli._PROD_FLAGS, profile.prod), ("--base", cli._BASE_FLAGS, profile.base_case))
    return [arg for flag, names, reading in flags for arg in (flag, next(k for k, v in names.items() if v == reading))] + ["--y-label", str(profile.y_label)]


def stage_vertex_count(r: int) -> int:
    """Closed form for a general-profile stage: both sides of r-1 copies."""
    return 2 * (r - 1) * r


def stacked_vertex_count(t: int, explicit_base: bool) -> int:
    total = 6 if explicit_base else stage_vertex_count(3)
    for r in range(4, t + 1):
        total += stage_vertex_count(r)
    return total


def vertex_rule_accepts(kind: str, param: int, profile: InterpretationProfile, dense: bool) -> bool:
    """The vertex rule that the stage-parameter bound replaced: a target
    loads and runs if its largest stage, and exports (``dense``) if its
    whole graph, has at most 20,000 vertices."""
    explicit = profile.base_case == "explicit_path"
    sizes = [6 if r == 3 and explicit else stage_vertex_count(r) for r in (range(3, param + 1) if kind == "SF" else (param,))]
    return (sum(sizes) if dense else max(sizes)) <= 20_000


def layout_cuts(kind: str, param: int, profile: InterpretationProfile) -> tuple[int, ...]:
    """Where each part of F(param) or SF(param) after the first starts,
    written out by the nested loops of the layout: the base path is one
    part, and any other stage is a G side then an H side of r-1 copies of
    r vertices each."""
    starts = []
    n = 0
    for r in range(3 if kind == "SF" else param, param + 1):
        sides = 1 if r == 3 and profile.base_case == "explicit_path" else 2
        for _ in range(sides):
            starts.append(n)
            n += 6 if sides == 1 else (r - 1) * r
    return tuple(starts[1:])


def dense_first_part(r: int, profile: InterpretationProfile) -> tuple[Graph, tuple[int, ...], bool]:
    """F(r)'s first part cut from the dense ``build_F(r)``, as (graph,
    labels, paired): the base path alone, or the G side, the first half,
    which an H side follows (paired)."""
    lg = construct.build_F(r, profile)
    paired = not (r == 3 and profile.base_case == "explicit_path")
    h = lg.graph.n // 2 if paired else lg.graph.n
    return Graph._trusted(h, tuple(row & (1 << h) - 1 for row in lg.graph.rows[:h])), lg.labels[:h], paired


def reference_verdict(theorem_id: str, r: int, computed: dict) -> tuple[object, str, str]:
    """(claimed, status, witness_mode) of claim ``theorem_id`` at r, from
    its computed sizes, as the claims state them; the reference for the
    checks' own verdicts.  T1.1: the largest single-label clique of F(r)
    has ceil(r/2) vertices, shown by one.  T1.2: SF(r+1) has no clique and
    no independent set on r+1 vertices; its certificate is a violating
    clique, else a violating independent set, else a maximum clique."""
    if theorem_id == "T1_1":
        claimed = -(-r // 2)
        return claimed, "CONFIRMED" if computed["mono_clique"] == claimed else "REFUTED", "clique"
    claimed = f"omega(SF({r + 1})) <= {r} and alpha(SF({r + 1})) <= {r}"
    if computed["omega"] > r:
        return claimed, "REFUTED", "clique"
    if computed["alpha"] > r:
        return claimed, "REFUTED", "independent"
    return claimed, "CONFIRMED", "clique"


def label_counts(lg) -> dict[int, int]:
    """How many vertices of the build ``lg`` carry label 1 and label 2."""
    return {label: lg.labels.count(label) for label in (1, 2)}


def class_masks(labels: tuple[int, ...]) -> tuple[int, int]:
    """The vertices labeled 1 and those labeled 2, as two masks built one
    vertex at a time; the reference for ``construct.label_masks``."""
    return tuple(sum(1 << v for v, lab in enumerate(labels) if lab == label) for label in (1, 2))


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


def recursive_max_clique(g: Graph) -> CliqueResult:
    """The solver's search as a recursive ``expand``, kept as it was before
    the explicit stack: the reference for the tree ``max_clique`` explores
    (same classes, same branching order, same node count and witness).
    It stays low-bit-first on a copy numbered in reverse degeneracy order,
    built here one bit at a time, and maps its best clique back;
    ``max_clique`` explores its mirror image (vertex i as n - 1 - i),
    highest bit first on the forward order.  Recursion depth grows with
    the clique, so keep inputs small."""
    n = g.n
    nodes = 0

    seed = _greedy_clique(g.rows, n)
    best_size = len(seed)
    best_witness = tuple(sorted(seed))

    # New vertex i is old vertex old[i]; the roots run from the last.
    old = _degeneracy_order(g.rows, n)[::-1]
    rows = [sum(1 << i for i, w in enumerate(old) if g.rows[v] >> w & 1) for v in old]

    def expand(base: list[int], cand: int) -> None:
        nonlocal nodes, best_size, best_witness
        nodes += 1
        if cand == 0:
            if len(base) > best_size:
                best_size = len(base)
                best_witness = tuple(sorted(old[v] for v in base))
            return
        # Greedy coloring: peel independent classes; a vertex in class c can
        # extend the clique to at most len(base) + c.
        classes: list[int] = []
        rest = cand
        while rest:
            avail = rest
            cls = 0
            while avail:
                v = (avail & -avail).bit_length() - 1
                cls |= 1 << v
                avail &= ~(rows[v] | (1 << v))
            classes.append(cls)
            rest &= ~cls
        cur = cand
        for color in range(len(classes), 0, -1):
            cls = classes[color - 1]
            while True:
                if len(base) + color <= best_size:
                    return
                rem = cls & cur
                if rem == 0:
                    break
                v = (rem & -rem).bit_length() - 1
                cur &= ~(1 << v)
                base.append(v)
                expand(base, cur & rows[v])
                base.pop()

    for v in range(n - 1, -1, -1):
        cand = rows[v] & ((1 << v) - 1)
        if 1 + cand.bit_count() <= best_size:
            continue
        expand([v], cand)

    if not pairwise_witness_ok(g, best_witness, "clique"):
        raise AssertionError("solver produced an invalid clique witness")
    return CliqueResult(best_size, best_witness, nodes)


def components(rows: tuple[int, ...], mask: int, flip: int) -> list[int]:
    """The components of ``mask`` in the graph of ``rows`` (flip 0) or in
    its complement (flip -1), as masks, lowest vertex first, by a plain
    walk that visits each vertex once, from the lowest one left."""
    parts = []
    while mask:
        part = mask & -mask
        todo = [part.bit_length() - 1]
        while todo:
            new = mask & (rows[todo.pop()] ^ flip) & ~part
            part |= new
            todo += _members(new)
        parts.append(part)
        mask &= ~part
    return parts


def random_cluster_table(n: int, rng) -> tuple[int, ...]:
    """A random partition of 0..n-1 into clusters, as masks: each vertex
    goes to one of at most n clusters at random, and the clusters come in
    random order, so that neither a cluster nor the first of a tie need be
    a contiguous range."""
    owner = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    clusters = [sum(1 << v for v in range(n) if owner[v] == c) for c in set(owner)]
    rng.shuffle(clusters)
    return tuple(clusters)


def class_split(g: Graph, within: int, flip: int) -> tuple[int, int]:
    """The maximum clique (flip 0) or independent set (flip -1) of ``g``
    within the mask ``within``, as (size, mask), by a split of that set
    alone on ``g`` or on its built complement: the dense reference for the
    stage route's part optima, which it reads from cluster tables.

    Pieces are split, parents first, into components or else
    co-components, until each is a clique or prime, and a prime piece is
    induced and searched.  Their cliques are combined children first: a
    co-component split keeps their union, a component split its first
    largest clique.
    """
    h = complement(g) if flip else g
    rows = h.rows
    pieces, found, splits = [within], [], []
    for piece in pieces:
        best, split = 0, None
        if all(rows[v] & piece == piece ^ (1 << v) for v in _members(piece)):
            best = piece
        else:
            for union, view in ((False, 0), (True, -1)):
                parts = components(rows, piece, view)
                if len(parts) > 1:
                    split = (union, len(pieces), len(pieces) + len(parts))
                    pieces += parts
                    break
            else:
                members = _members(piece)
                best = sum(1 << members[i] for i in max_clique(pairwise_induced(h, members)).witness)
        found.append(best)
        splits.append(split)
    for i in reversed(range(len(pieces))):
        if splits[i]:
            union, lo, hi = splits[i]
            found[i] = reduce(or_, found[lo:hi]) if union else max(found[lo:hi], key=int.bit_count)
    return found[0].bit_count(), found[0]


class MonoClique(NamedTuple):
    """A largest single-label clique: its size and its vertices."""

    size: int
    witness: tuple[int, ...]


def max_mono_clique(g: Graph, labels: tuple[int, ...]) -> MonoClique:
    """Largest clique of ``g`` whose vertices all carry one label (1 or 2),
    label 1 on a tie, from a split of each label class of ``g``.  The dense
    reference for T1.1, which reads the stage's part optima
    (``solve.stage_mono_clique``)."""
    size, mask = max((class_split(g, within, 0) for within in class_masks(labels)), key=itemgetter(0))
    return MonoClique(size, tuple(_members(mask)))


def walk_problems(n: int, rows: tuple[int, ...]) -> list[str]:
    """Range, self-loop and asymmetry messages by a per-bit walk over every
    row; the reference for ``Graph.problems()``."""
    if n < 0:
        return ["vertex count must be nonnegative"]
    if len(rows) != n:
        return ["rows length must equal vertex count"]
    out = []
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~full:
            out.append(f"row {i} addresses vertices outside 0..{n - 1}")
        if (row >> i) & 1:
            out.append(f"self-loop at vertex {i}")
        mask = row & full
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if not (rows[j] >> i) & 1:
                out.append(f"asymmetric adjacency between {i} and {j}")
    return out


def bitwise_transpose(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row j of the transpose has bit i exactly when row i has bit j, one
    bit at a time; the reference for ``graphs.transpose_rows``."""
    return tuple(sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n))


def bitwise_encode_graph6(g: Graph) -> str:
    """graph6 one bit at a time; the reference for ``encode_graph6``."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        out = ["~", "~"]
        out.extend(chr(((n >> shift) & 63) + 63) for shift in range(30, -1, -6))
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def rowwise_encode_graph6(g: Graph) -> str:
    """graph6 from one '0'/'1' string per column, read as one big int and
    spelled by base64; the encoder ``graph6_chunks`` replaced, and its
    reference at sizes the bitwise walk is too slow for."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        out = ["~", "~"]
        out.extend(chr(((n >> shift) & 63) + 63) for shift in range(30, -1, -6))
    rows = g.rows
    bits = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    nchars = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)  # whole base64 quanta, so no '=' padding
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    out.append(binascii.b2a_base64(raw, newline=False)[:nchars].translate(_B64_TO_G6).decode())
    return "".join(out)


def bitwise_decode_graph6(text: str) -> Graph:
    """graph6 one character and one bit at a time, with the same errors;
    the reference for ``decode_graph6``."""
    base = len(">>graph6<<") if text.startswith(">>graph6<<") else 0
    end = len(text)
    while end > base and text[end - 1] in "\r\n \t":
        end -= 1
    body = text[base:end]
    if not body:
        raise Graph6ParseError("empty graph6 string", base)

    vals = []
    for k, ch in enumerate(body):
        o = ord(ch)
        if o < 63 or o > 126:
            raise Graph6ParseError(f"invalid graph6 character {ch!r}", base + k)
        vals.append(o - 63)

    if vals[0] < 63:
        n = vals[0]
        pos = 1
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise Graph6ParseError("truncated size header", base + len(body))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    else:
        if len(vals) < 8:
            raise Graph6ParseError("truncated size header", base + len(body))
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8

    nbits = n * (n - 1) // 2
    ndata = (nbits + 5) // 6
    have = len(vals) - pos
    if have < ndata:
        raise Graph6ParseError(
            f"truncated edge data: need {ndata} characters, have {have}", base + len(body)
        )
    if have > ndata:
        raise Graph6ParseError("trailing characters after edge data", base + pos + ndata)

    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[pos + k // 6] >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph._trusted(n, tuple(rows))


def edgewise_encode_dimacs(g: Graph) -> str:
    """DIMACS one edge at a time; the reference for ``encode_dimacs``."""
    lines = [f"p edge {g.n} {len(edge_set(g))}"]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (g.rows[i] >> j) & 1:
                lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, set[tuple[int, int]]]:
    """n and the edges of DIMACS edge-format text, each edge as its two
    1-indexed vertices (u, v), u < v, read from its words alone.
    AssertionError unless the text is a "p edge n m" line and m distinct
    "e u v" lines with 1 <= u < v <= n."""
    header, _, body = text.partition("\n")
    p, kind, n, m = header.split()
    n, m, words = int(n), int(m), body.split()
    assert (p, kind) == ("p", "edge") and len(words) == 3 * m and set(words[::3]) <= {"e"}, "not DIMACS edge format"
    us, vs = list(map(int, words[1::3])), list(map(int, words[2::3]))
    edges = set(zip(us, vs))
    assert len(edges) == m and min(us, default=1) >= 1 and max(vs, default=n) <= n and all(map(lt, us, vs)), "a repeated or out-of-range edge"
    return n, edges


def pairwise_induced(g: Graph, members) -> Graph:
    """Induced subgraph by one bit test per member pair, renumbered in
    increasing original order."""
    vs = sorted(members)
    k = len(vs)
    rows = [0] * k
    for p in range(k):
        for q in range(p + 1, k):
            if (g.rows[vs[p]] >> vs[q]) & 1:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return Graph(k, tuple(rows))


def pairwise_witness_ok(g: Graph, members, mode: str) -> bool:
    """Whether ``members`` is a clique / independent set of ``g``, by one
    ``has_edge`` per member pair: the tests' check of every witness in a
    dense graph, written apart from ``solve._holds``, the program's.
    ValueError for an unknown mode, a member that is not an int (bools
    included), a repeated member, or one outside 0..n-1."""
    if mode not in ("clique", "independent"):
        raise ValueError(f"unknown witness mode {mode!r}")
    members = list(members)
    if not all(type(v) is int and 0 <= v < g.n for v in members) or len(set(members)) != len(members):
        raise ValueError(f"{members!r} is not a set of vertices 0..{g.n - 1}")
    want = mode == "clique"
    return all(g.has_edge(a, b) == want for a, b in itertools.combinations(members, 2))


def pairwise_composition(parts, part_optima, mode: str) -> tuple[int, ...]:
    """The witness ``solve.stage_solve`` composes for ``mode``, by building
    every candidate whole, as it once did, from each part's whole, label-1
    and label-2 optima ((size, mask) pairs, masks over the part's
    own vertices, whose first vertex leads its entry of ``parts``, as in
    ``stack_parts``): each part's optimum, then every ordered pair
    of parts' label-1 and label-2 cliques in ``itertools.permutations``
    order, or each label's independent sets over all parts; the first
    longest wins."""
    optima = [[tuple(v + start for v in _members(mask)) for _, mask in solves] for (start, *_), solves in zip(parts, part_optima)]
    candidates = [whole for whole, _, _ in optima]
    if mode == "clique":
        candidates += [a[1] + b[2] for a, b in itertools.permutations(optima, 2)]
    else:
        candidates += [sum((part[label] for part in optima), ()) for label in (1, 2)]
    return tuple(sorted(max(candidates, key=len)))


def block_optima(r: int, profile: InterpretationProfile) -> tuple[int, ...]:
    """(omega, omega_1, omega_2, alpha, alpha_1, alpha_2) of one block of
    F(r)'s first part, from the shapes ``construct.stage_block`` gives it,
    with a = r // 2 vertices labeled 1 and r - a labeled 2.  A G side's
    block is ``product(empty(1), G_z, prod)``: G_z itself under the
    lexicographic and cartesian products, and edgeless under tensor.  G_z
    is K_a + K_(r-a) under disjoint union and K_r under join.  The base
    path v-u-w-x-y-t has labels 1, 2, 1, 1, y_label, 2."""
    a = r // 2
    if r == 3 and profile.base_case == "explicit_path":
        y1 = profile.y_label == 1
        return 2, 2, 1 if y1 else 2, 3, 3 if y1 else 2, 2
    if profile.prod == "tensor":
        return 1, 1, 1, r, a, r - a
    if profile.sum == "join":
        return r, a, r - a, 1, 1, 1
    return r - a, a, r - a, 2, 1, 1


def flat_optima(part_optima) -> tuple[tuple, tuple]:
    """Per-part (size, mask) pairs, each part's whole, label-1 and label-2
    optima, masks over the part's own vertices, in the form of one mode of
    ``solve.Stage.optima``: (sizes, masks)."""
    return (
        tuple(tuple(size for size, _ in solves) for solves in part_optima),
        tuple(tuple(mask for _, mask in solves) for solves in part_optima),
    )


def label_parity(label: int) -> int:
    """1 for label 1 (odd), 0 for label 2 (even)."""
    return label % 2


def flip_label(label: int) -> int:
    """The other label: an H side's label for its G side's ``label``."""
    return 3 - label


def stack_labels(stack) -> list[int]:
    """Every vertex's label in ``stack``, in the stack's numbering: each
    part's block labels read from its odd class mask, once per copy, for
    comparison with a dense build's labels."""
    return [1 if odd >> v & 1 else 2 for _, s, _, odd, _ in stack_parts(stack) for _ in range(s.k) for v in range(s.block_n)]


def clear_memos() -> None:
    """Empty the stage memo and each stage family's list of prefixes,
    whose prefixes hold the stage memo's stages, so that the next job
    builds both afresh."""
    solve.stage.cache_clear()
    solve._chains.clear()


def prefixes_built() -> int:
    """The prefixes built since the memos were last emptied: the lengths of
    every stage family's list."""
    return solve.memo_counts()[2]


def listed_members(masks, mode: str) -> tuple[int, ...]:
    """The vertices of ``masks``, a block mask per part, checked or not,
    by the copy rule written out vertex by vertex: a part's mask fills
    every copy of its block for an independent set of a G side or the base
    path (inverse 0) and for a clique of an H side (inverse -1), and copy 0
    alone otherwise."""
    listed = []
    for (start, s, inverse, *_), mask in masks.items():
        copies = s.k if (mode == "independent") != bool(inverse) else 1
        listed += [start + c * s.block_n + v for c in range(copies) for v in range(s.block_n) if mask >> v & 1]
    return tuple(sorted(listed))


def stack_parts(stack) -> list[tuple]:
    """The parts of ``stack`` in order, each (first vertex, stage, inverse,
    odd, even), read from its prefix's chain, which holds them last first."""
    parts, chain = [], stack.prefix.parts
    while chain:
        chain, part = chain
        parts.append(part)
    return parts[::-1]


def stack_stages(stack) -> list:
    """The stages of ``stack`` in order, each an entry of the stage memo."""
    return list(dict.fromkeys(s for _, s, *_ in stack_parts(stack)))


def reference_stage_solve(parts) -> tuple[StackResult, StackResult]:
    """Maximum clique and maximum independent set of a stack of ``parts``
    (``stack_parts``), as ``solve.stage_solve`` composed them before a
    stack kept a prefix: from candidate lists over every part, O(t) per
    stack.  Ties go to a single part, then to the first candidate in part
    order, with pairs in ``itertools.permutations`` order; a witness is a
    block mask per part."""
    optima = [s.optima for s in dict.fromkeys(s for _, s, *_ in parts)]
    results = []
    for mode in ("clique", "independent"):
        # Per part, the sizes and masks of its whole, label-1 and label-2 optima.
        sizes, masks = ([part for o in optima for part in o[mode][j]] for j in (0, 1))
        # Each candidate is (size, [(part, 0 whole or a label), ...]).
        candidates = [(whole, [(i, 0)]) for i, (whole, _, _) in enumerate(sizes)]
        if mode == "independent":
            candidates += [(sum(part[label] for part in sizes), [(i, label) for i in range(len(sizes))]) for label in (1, 2)]
        elif len(sizes) > 1:
            # Part i's first best partner: the first part j != i with the largest label-2 clique.
            by_two = sorted(range(len(sizes)), key=lambda j: -sizes[j][2])[:2]
            for i, (_, one, _) in enumerate(sizes):
                j = by_two[1] if by_two[0] == i else by_two[0]
                candidates.append((one + sizes[j][2], [(i, 1), (j, 2)]))
        size, chosen = max(candidates, key=lambda c: c[0])
        results.append(StackResult(size, {parts[i]: masks[i][k] for i, k in chosen}))
    return results[0], results[1]


def schema1(report: dict) -> dict:
    """``report``, a schema-2 report, in its schema-1 form: each field that
    schema 2 deleted, rebuilt from the field it restated.  ``deterministic``
    is true; ``checks[0].profile`` is ``profile``; ``bound.t`` is
    ``target.param``, ``bound.n`` is ``graph_stats.n`` and
    ``bound.witness_ok`` is whether the status is CONFIRMED (omega and
    alpha both below t); and every node count is 0 but T1.2's
    ``alpha_nodes``, 1 under ``explicit_path``, the one node in which
    schema 1's solver searched the base path's complement.  The top-level
    ``nodes_explored`` is the check's sum."""
    check = report["checks"][0]
    if check["theorem_id"] == "T1_1":
        stats = {"mono_nodes": 0}
    else:
        stats = {"omega_nodes": 0, "alpha_nodes": int(report["profile"]["base_case"] == "explicit_path")}
    bound = report["bound"]
    if bound is not None:
        bound = dict(bound, t=report["target"]["param"], n=report["graph_stats"]["n"], witness_ok=check["status"] == "CONFIRMED")
    return dict(
        report,
        schema_version="1",
        deterministic=True,
        checks=[dict(check, profile=report["profile"], solver_stats=stats)],
        bound=bound,
        solver_stats={"nodes_explored": sum(stats.values())},
    )
