"""Exact maximum clique, independent set, and single-label clique solvers.

max_clique is a branch-and-bound search: a greedy clique seeds the lower
bound, root vertices are processed in degeneracy order, and inside the tree
candidate sets are bounded by a greedy coloring.  As in BBMC (San Segundo
et al., Computers & OR 38(2), 2011) it searches a copy renumbered in
degeneracy order, the dense core taking the high indices, and takes the
highest bit first, so the coloring peels the dense core first; it maps a
best clique back when it finds one.  A node is colored where its parent
branches to it; the classes at or below best - depth can never be branched
on, so they are peeled but not kept, and a node they use up is counted and
left there, as is a leaf.  The rest wait on an explicit stack of (classes,
color, candidates, offset) frames, so the depth is not bounded by Python's
recursion limit.  Each coloring step and each branch reads tables
built once per call and indexed by b = x.bit_length(), v + 1 for v the
highest vertex of x: v's bit, the mask that removes v and its neighbours,
and v's row, so a coloring step is one bit_length() and two table reads.
It is the mirror image (vertex i as n - 1 - i) of the recursive search it
replaced (``recursive_max_clique`` in ``tests/oracles.py``), which peels
the lowest bit of the reverse renumbering: the same classes and the same
branching order, hence the same node counts and witnesses.

oracle_max_clique is a deliberately plain clique enumeration kept
independent of the main solver so the two can cross-check each other on
small graphs.  No command calls either: the stage route below searches
nothing, and the tests check it against them.

All searches are single-threaded and fully deterministic (ties break toward
the highest vertex index in max_clique's renumbering, the same vertex as
the reference's lowest), so sizes, witnesses, and node counts reproduce
across runs.

stage_solve is the stage route: omega and alpha of a Stack, SF(t) as
its stages F(3..t), composed from solves on its parts, each the base
path or one side of a stage.  Two vertices of different parts are
adjacent exactly when their label parities differ (label 1 is odd, label
2 even): so SF(t) joins its stages, and F(r) its G and H sides, and
neither dense graph is built.  With omega_1, omega_2 (alpha_1, alpha_2)
the clique (independence) numbers of a part's label-1 and label-2 classes,

    omega = max(max_r omega(r), max over r != s of omega_1(r) + omega_2(s)),
    alpha = max(max_r alpha(r), sum_r alpha_1(r), sum_r alpha_2(r)).

README's "Why the composition is exact" proves both, and that T1.1's
single-label clique is its parts' largest.

A part's six optima (whole, label 1, label 2; clique, independent set)
come from one block of it, ``construct.stage_block``'s, by ``_optimum``,
in the query's view (the graph, or its complement read through the
graph's rows).  The block is the base path (k = 1 copy) or one copy of
the G side, which is k = r-1 disjoint copies: a product joins two copies
only through an edge of ``empty(r - 1)``.  Every block but the base path
is a disjoint union of cliques, its clusters: K_a and K_(r-a), K_r, or r
single vertices.  A clique lies in one cluster, since no edge joins two,
so the largest within a set W is the first largest C & W; an independent
set meets each cluster at most once, and one vertex of each is one, so
the largest within W is the lowest vertex of each C & W.  The six-vertex
base path, no cluster graph, takes the first largest of its 64 subsets
of W that ``_holds`` passes, masks ascending.  Each optimum is checked by
``_holds`` where it is found.

The stage memo, ``stage``, keyed on r and a ``construct.stage_family``
key, keeps each stage's answers and evicts none.  A part's query in mode
flip is its block's in view flip ^ inverse (-1 for an H side, else 0),
by the copy rule: a clique lies in one copy, the block's in copy 0; an
independent set is one in each copy, k times the block's size, kept as
the block's mask.  H is G's complement with labels flipped, so

    omega(H) = alpha(G),  omega_1(H) = alpha_2(G),  omega_2(H) = alpha_1(G),

masks included, and the same with omega and alpha exchanged.  With
h = |G| and c1, c2 G's label counts, m(F(r)) = h(h-1)/2 + c1^2 + c2^2;
the base path's m is its block's.

Each formula is a max or a sum over parts, so SF(t) follows from SF(t - 1)
and stage t in O(1): ``prefix`` keeps SF(t) as a ``Prefix`` of SF(t - 1)'s
in its stage family's list.  n and the label counts add; m adds
stage t's m and c1 d2 + c2 d1 cross edges (c1, c2 SF(t - 1)'s label
counts, d1, d2 stage t's); per mode the best whole part, the best two
label-1 and two label-2 optima and the label-class sums take in stage
t's parts.  F(r) is a one-stage prefix.  Ties go to the first largest
candidate, listed as each whole part, each ordered pair of parts in
``itertools.permutations`` order (the first's label-1 clique, the
second's label-2), then label 1's sum and label 2's.  So a best changes
only for a larger size, a pair or sum wins only above the best whole
part, and the pair is the best label-1 and label-2 cliques of two parts,
or if both are one part's, the larger of (best label-1, second label-2)
and (second label-1, best label-2), the earlier label-1 part on a tie.
A new part's label-class optima must lie in their class: the parity
rule of every pair and sum.  Only the witness a report stores is listed,
by ``Stack.members``, which checks it whole first, on every job and load.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cache, reduce
from operator import itemgetter, or_
from types import SimpleNamespace

from sfcheck.construct import InterpretationProfile, _members, _require_param, label_masks, stage_block, stage_family
from sfcheck.graphs import Graph, as_vertex_set, complement

ORACLE_MAX_N = 24


class CliqueResult(namedtuple("CliqueResult", "size witness nodes_explored")):
    """Optimum size, a verified witness, and search statistics."""

    __slots__ = ()


def verify_witness(g: Graph, members, mode: str) -> bool:
    """Whether ``members`` is a clique / independent set of ``g``, by
    ``_holds``: each member's row mask against the set, not each pair.

    Independent of the solvers; every part optimum that leaves this module
    has passed ``_holds``, every listed witness ``Stack.holds``, and a
    report loads only if a re-run of its check lists the same witness.
    """
    flip = _flip(mode)
    return _holds(g.rows, sum(1 << v for v in as_vertex_set(g, members)), flip)


def _flip(mode: str) -> int:
    """``_holds``'s flip for a witness mode: 0 for a clique, -1 for an
    independent set (a clique of the complement)."""
    if mode not in ("clique", "independent"):
        raise ValueError(f"unknown witness mode {mode!r}")
    return -1 if mode == "independent" else 0


def _holds(rows: tuple[int, ...], chosen: int, flip: int) -> bool:
    """Whether ``chosen`` is a clique of the graph of ``rows`` (flip 0) or
    of its complement (flip -1): each member's row, restricted to
    ``chosen``, must hold every other member or none, k row masks in place
    of k^2/2 single-pair queries.  One loop, stopping at the first member
    that fails: no row holds its own vertex, so with that member's bit
    added the row must be ``chosen`` or the bit alone."""
    want = 0 if flip else chosen
    rest = chosen
    while rest:
        bit = rest & -rest
        if rows[bit.bit_length() - 1] & chosen | bit != want | bit:
            return False
        rest ^= bit
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
    """Exact maximum clique by branch and bound with a greedy-coloring bound,
    on the degeneracy renumbering, highest bit first; the witness is in g's.
    Each node is colored where its parent branches to it, keeping only the
    classes above best - depth, the ones it can branch on: the same tree."""
    n = g.n
    nodes = 0

    seed = _greedy_clique(g.rows, n)
    best_size = len(seed)
    best_witness = tuple(sorted(seed))

    # New vertex i is old[i]: the dense core takes the high indices.  Each
    # row's binary digits are permuted as one string, at C speed.
    old = _degeneracy_order(g.rows, n)
    pick = itemgetter(*(n - 1 - w for w in reversed(old))) if n else None
    rows = [int("".join(pick(format(g.rows[v], f"0{n}b"))), 2) for v in old]

    # Tables indexed by b = x.bit_length(), v + 1 for x's highest vertex v:
    # bt[b] is v's bit, nn[b] masks out v and its neighbours, rb[b] is row v.
    full = (1 << n) - 1
    nn = (0, *(full ^ (row | 1 << v) for v, row in enumerate(rows)))
    rb = (0, *rows)
    bt = (0, *(1 << v for v in range(n)))

    for v in range(n):
        cand = rows[v] >> (v + 1) << (v + 1)
        if 1 + cand.bit_count() <= best_size:
            continue
        # Depth-first search from root v, branched to on b by a parent with
        # no classes.  The node being expanded keeps (classes, color, cur,
        # top), each ancestor's state waits on ``stack``, and base[i] is b
        # of the i-th clique vertex.
        b, base, stack = v + 1, [], []
        classes, color, cur, top = [], 0, 0, 0
        while True:
            # Color the child cand that b leads to, at depth d, peeling
            # classes highest vertex first: class c bounds a clique by d + c.
            # best_size only grows, so the first sub = max(best_size - d, 0)
            # are never branched on: they are peeled unkept, and a child they
            # use up is counted and left here, as a leaf is checked here.
            nodes += 1
            d = len(base) + 1
            if cand:
                rest = cand
                for _ in range(best_size - d):
                    avail = rest
                    while avail:
                        w = avail.bit_length()
                        rest ^= bt[w]
                        avail &= nn[w]
                if rest:
                    # classes[i] is class sub + i + 1, and top = d + sub.
                    stack.append((classes, color, cur, top))
                    base.append(b)
                    classes, cur, top = [], cand, best_size if best_size > d else d
                    while rest:
                        avail = rest
                        cls = 0
                        while avail:
                            w = avail.bit_length()
                            cls |= bt[w]
                            avail &= nn[w]
                        classes.append(cls)
                        rest ^= cls
                    color = len(classes)
            elif d > best_size:
                best_size = d
                best_witness = tuple(sorted(old[w - 1] for w in (*base, b)))
            # Branch on the highest vertex of the highest class left; once
            # the bound prunes or the classes run out, resume the parent.
            while True:
                while color and top + color > best_size:
                    rem = classes[color - 1] & cur
                    if rem:
                        break
                    color -= 1
                else:
                    if not stack:
                        break
                    base.pop()
                    classes, color, cur, top = stack.pop()
                    continue
                b = rem.bit_length()
                cur ^= bt[b]
                cand = cur & rb[b]
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


def _optimum(clusters: tuple[int, ...] | None, rows: tuple[int, ...], within: int, flip: int) -> int:
    """A stage block's maximum clique (flip 0) or independent set (flip -1)
    within ``within``, as a mask, by the module docstring's cluster rule,
    or the base path's (clusters None) subsets; checked by ``_holds``."""
    if clusters is None:
        found = max((chosen for chosen in range(within + 1) if chosen & within == chosen and _holds(rows, chosen, flip)), key=int.bit_count)
    elif flip:
        found = sum(meet & -meet for meet in (cluster & within for cluster in clusters))
    else:
        found = max((cluster & within for cluster in clusters), key=int.bit_count, default=0)
    if not _holds(rows, found, flip):
        raise AssertionError(f"cluster rule produced an invalid {'independent set' if flip else 'clique'}")
    return found


class StackResult(namedtuple("StackResult", "size masks")):
    """An optimum of a Stack: its size, and its witness as a block mask
    per part (``Stack.members`` lists it)."""

    __slots__ = ()


class Stage:
    """One stage as the stage memo keeps it: its answers, found from one
    block of its first part (the base path, or one copy of the G side),
    which is not kept.  ``block_n`` is the block's vertex count, ``k`` the
    part's copy count, ``paired`` whether an H side follows, ``parts`` each
    part as (first vertex in the stage, inverse, odd, even), then the
    stage's n, m and label counts (label 1 is odd, label 2 even), and
    ``optima``, per mode, (sizes, block masks), per part those of its
    whole, label-1 and label-2 optima."""

    def __init__(self, clusters: tuple[int, ...] | None, rows: tuple[int, ...], labels: tuple[int, ...], k: int) -> None:
        self.block_n, self.k, self.paired = len(rows), k, clusters is not None
        odd, even = label_masks(labels)
        h, c1 = k * len(rows), k * odd.bit_count()
        # An H side, inverse -1, is read on its G side's block, flip inverted and classes swapped.
        self.parts = ((0, 0, odd, even), (h, -1, even, odd))[: 1 + self.paired]
        if self.paired:  # the module docstring counts m
            self.n, self.m, self.label_counts = 2 * h, h * (h - 1) // 2 + c1**2 + (h - c1) ** 2, {1: h, 2: h}
        else:
            self.n, self.m, self.label_counts = h, k * sum(map(int.bit_count, rows)) // 2, {1: c1, 2: h - c1}
        # The block's six optima, per view and set, as (size, mask); one in view -1 covers all k copies.
        full = (1 << len(rows)) - 1
        masks = {(view, within): _optimum(clusters, rows, within, view) for view in (0, -1) for within in (full, odd, even)}
        solves = {(view, within): ((k if view else 1) * mask.bit_count(), mask) for (view, within), mask in masks.items()}
        self.optima = {}
        for mode, flip in (("clique", 0), ("independent", -1)):
            # Per part, the sizes and masks of its whole, label-1 and label-2 optima.
            parts = [zip(*(solves[flip ^ inverse, within] for within in (full, *classes))) for _, inverse, *classes in self.parts]
            self.optima[mode] = tuple(zip(*parts))


@cache
def stage(r: int, key: InterpretationProfile) -> Stage:
    """F(r) under a ``stage_family`` key as one block of its first part, built once."""
    return Stage(*stage_block(r, key))


class _ClassSum(Mapping):
    """A label-class sum's witness: each part's independent-set optimum in
    that class, read from a prefix's chain of parts only when listed."""

    def __init__(self, chain: tuple | None, label: int) -> None:
        self.chain, self.label = chain, label

    def __iter__(self):
        chain = self.chain
        while chain:
            chain, part = chain
            yield part

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __getitem__(self, part: tuple) -> int:
        return part[1].optima["independent"][1][part[2]][self.label]


_NONE = (-1, None, 0)  # no candidate: (size, part, block mask) that any optimum beats


def _top2(top: tuple, new: tuple) -> tuple:
    """The best two of ``top`` and a later part's ``new``, earlier on a tie."""
    return (new, top[0]) if new[0] > top[0][0] else (top[0], new) if new[0] > top[1][0] else top


class Prefix:
    """SF(t), or F(r) as a one-stage stack: ``prev`` (None for none) and
    stage ``s``.  It keeps n, m, the label counts, ``parts`` as a chain
    (earlier parts, part), each (first vertex, stage, inverse, odd, even),
    and per mode ``optima``: best whole part, best two label-1 and label-2
    optima, each (size, part, block mask), and the label-class sums.  New
    label-class optima must lie in their class."""

    def __init__(self, prev: Prefix | None, s: Stage) -> None:
        prev = prev or _EMPTY
        (c1, c2), (d1, d2) = prev.label_counts.values(), s.label_counts.values()
        # The cross edges join the new stage's odd vertices to the even ones before it, and back.
        self.n, self.m, self.label_counts = prev.n + s.n, prev.m + s.m + c1 * d2 + c2 * d1, {1: c1 + d1, 2: c2 + d2}
        parts = [(prev.n + offset, s, *part) for offset, *part in s.parts]
        self.parts = reduce(lambda chain, part: (chain, part), parts, prev.parts)
        self.optima = {}
        for mode, (whole, ones, twos, sums) in prev.optima.items():
            for part, (w, a, b), (wm, am, bm) in zip(parts, *s.optima[mode]):
                if am & part[4] or bm & part[3]:
                    raise AssertionError(f"a label class's {mode} optimum spans both parities")
                whole = max(whole, (w, part, wm), key=itemgetter(0))
                ones, twos, sums = _top2(ones, (a, part, am)), _top2(twos, (b, part, bm)), (sums[0] + a, sums[1] + b)
            self.optima[mode] = whole, ones, twos, sums


_EMPTY = SimpleNamespace(n=0, m=0, label_counts={1: 0, 2: 0}, parts=None, optima=dict.fromkeys(("clique", "independent"), (_NONE, (_NONE,) * 2, (_NONE,) * 2, (0, 0))))


_chains: dict[tuple[InterpretationProfile, InterpretationProfile], list[Prefix]] = {}  # per stage family, [SF(3), SF(4), ...]


def prefix(t: int, family: tuple[InterpretationProfile, InterpretationProfile]) -> Prefix:
    """SF(t) as a Prefix, from the list of ``stage_family``'s two keys,
    grown in order, one stage at a time, up to SF(t): no recursion."""
    chain, (base, rest) = _chains.setdefault(family, []), family
    for u in range(len(chain) + 3, t + 1):
        chain.append(Prefix(chain[-1] if chain else None, stage(u, base if u == 3 else rest)))
    return chain[t - 3]


def memo_counts() -> tuple[int, int, int]:
    """Stages built, stage memo hits and prefixes built in this process."""
    return stage.cache_info().misses, stage.cache_info().hits, sum(map(len, _chains.values()))


class Stack:
    """F(param) or SF(param) under ``profile`` (kept as ``kind``, ``param``
    and ``profile``) as a Prefix, ``prefix``, and its n, m and label
    counts: SF(t) from its stage family's list, F(r) as one stage.  The builders'
    ValueError on another kind or a parameter below 3; no dense graph."""

    def __init__(self, kind: str, param: int, profile: InterpretationProfile) -> None:
        _require_param(kind, param)
        self.kind, self.param, self.profile = kind, param, profile
        base, rest = family = stage_family(profile)
        self.prefix = prefix(param, family) if kind == "SF" else Prefix(None, stage(param, base if param == 3 else rest))
        self.n, self.m, self.label_counts = self.prefix.n, self.prefix.m, self.prefix.label_counts

    @staticmethod
    def members(masks: Mapping[tuple, int], mode: str) -> tuple[int, ...]:
        """The vertices of ``masks``, a ``mode`` witness as a block mask
        per part, numbered in the stack, ascending, once ``holds`` has
        passed it (AssertionError otherwise).  The copy rule: a part's
        mask fills all k copies of its block where it is an independent
        set in G's view (an independent set of G, or a clique of H), since
        no edge of G joins two copies, and copy 0 alone otherwise."""
        if not Stack.holds(masks, mode):
            raise AssertionError(f"stage route assembled an invalid {mode} witness")
        flip, listed = _flip(mode), []
        for (start, s, inverse, *_), mask in sorted(masks.items()):
            block, b = _members(mask), s.block_n
            copies = range(start, start + (s.k if flip ^ inverse else 1) * b, b)
            listed += [first + v for first in copies for v in block]
        return tuple(listed)

    @staticmethod
    def holds(masks: Mapping[tuple, int], mode: str) -> bool:
        """Whether ``masks``, a block mask per part, is a ``mode`` witness
        as the stage route composes it: each mask one of its part's optima
        in ``mode`` (checked where found), any other refused, valid or not,
        and the parity rule across parts: a clique meets at most two, one
        parity in each and opposite; an independent set, one parity."""
        parities = []
        for (_, s, inverse, odd, even), mask in masks.items():
            if mask not in s.optima[mode][1][inverse]:  # inverse -1 picks an H side, the stage's last part
                return False
            parities.append(bool(mask & odd) | bool(mask & even) << 1)
        if len(parities) < 2:
            return True
        if mode == "clique":
            return len(parities) == 2 and parities[0] ^ parities[1] == 3
        return reduce(or_, parities) != 3


def stage_solve(stack: Stack) -> tuple[StackResult, StackResult]:
    """Maximum clique and maximum independent set of ``stack``, read from
    its prefix in O(1) by the module docstring's formulas and tie rule."""
    whole, (a0, a1), (b0, b1), _ = stack.prefix.optima["clique"]
    # Part i's label-1 clique with the first best label-2 clique of a part j != i; the first best i.
    pairs = [(a0, b0)] if a0[1] != b0[1] else [(a0, b1), (a1, b0)] if b1[1] else []
    one, two = max(pairs, key=lambda p: (p[0][0] + p[1][0], -p[0][1][0]), default=(_NONE, _NONE))
    omega = StackResult(one[0] + two[0], dict([one[1:], two[1:]])) if one[0] + two[0] > whole[0] else StackResult(whole[0], dict([whole[1:]]))
    whole, _, _, sums = stack.prefix.optima["independent"]
    label = 2 if sums[1] > sums[0] else 1
    alpha = StackResult(whole[0], dict([whole[1:]])) if whole[0] >= sums[label - 1] else StackResult(sums[label - 1], _ClassSum(stack.prefix.parts, label))
    return omega, alpha


def stage_mono_clique(stack: Stack) -> StackResult:
    """Largest single-label clique of ``stack``: its parts' largest (the
    module docstring says why), label 1 and then the first part in order
    winning a tie."""
    _, (a0, _), (b0, _), _ = stack.prefix.optima["clique"]
    best = a0 if a0[0] >= b0[0] else b0
    return StackResult(best[0], dict([best[1:]]))


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
