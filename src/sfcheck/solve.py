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
small graphs.

All searches are single-threaded and fully deterministic (ties break toward
the highest vertex index in max_clique's renumbering, the same vertex as
the reference's lowest; the base path's witnesses are unchanged by it), so
sizes, witnesses, and node counts reproduce across runs.

stage_solve is the stage route: omega and alpha of a Stack, SF(t) laid
out as its stages F(3..t), composed from solves on its parts.  A part is
the base path or one side of a stage.  Two vertices of different parts
are adjacent exactly when their label parities differ (label 1 is odd,
label 2 even): that is how SF(t) joins its stages, and how F(r) joins
its G and H sides, so neither dense graph is built.  Write omega_1,
omega_2 (alpha_1, alpha_2) for the clique (independence) number of one
part's label-1 and label-2 classes.  Then

    omega = max(max_r omega(r), max over r != s of omega_1(r) + omega_2(s)),
    alpha = max(max_r alpha(r), sum_r alpha_1(r), sum_r alpha_2(r)).

Proof.  A clique K that meets parts r != s is joined across them, so every
vertex of K in r has the parity opposite to every vertex of K in s: all of
K within r lies in one class, all of K within s in the other.  Three
parts would need three pairwise opposite parities, so K meets at most
two, and |K| is at most omega(r) or omega_1(r) + omega_2(s) for some
r != s.  An independent set I that meets parts r != s has no edge across
them, so each of its vertices in r shares the parity of each in s, and
then of every vertex of I: I lies in one class throughout, and |I| is at
most alpha(r) or sum_r alpha_p(r) for its class p.  Each bound is met:
by one part's optimum, by an odd clique and an even clique of two
parts (every pair across them is joined), and by one class's
independent sets of every part (no pair across them is joined).

Each of a part's six optima (the part, label 1 and label 2, for clique
and for independent set) is found by splitting its set alone, parents
first, in the query's view: the graph, or for an independent set (a
clique of the complement) its complement, read through the graph's rows,
so no part's complement is built.  A piece of the set, in that view:

- a clique is its own maximum clique; a piece with no edge gives its
  lowest vertex;
- a disconnected piece has omega = max over its components: a clique is
  connected, so it lies in one;
- a piece with a disconnected complement has omega = sum over its
  co-components: each vertex of one is joined to every vertex of the
  others, so a clique is one clique from each;
- only a prime piece, connected and co-connected, is searched.

The pieces' cliques are combined children first.  On a tie the component
with the lowest first vertex wins, and a search breaks ties toward the
highest vertex index in its renumbering.
T1.1 reads the same optima: a label class has one parity, so no edge of
it crosses between parts, and its largest clique is its parts' largest.

Cographs are exactly the graphs this split leaves no prime piece of
(Corneil, Lerchs and Stewart Burlingham, Discrete Applied Mathematics
3(3), 1981).  Every stage side is one under every profile (r-1 disjoint
copies of K_a + K_(r-a) or of K_r, or edgeless, and their complement).
Only the six-vertex base path and its complement are prime.

The stage memo, ``stage``, of MEMO_SIZE entries keyed on (r, profile),
is the one memo of solved results.  A Stack asks it for each stage under
the profile fields that stage reads alone (``_stage_profiles``): sum and
prod, base_case at r = 3, and for the base path y_label only.  It builds
one block of F(r)'s first part, from ``construct.build_block``: the base
path (k = 1 copy), or one copy of the G side, ``product(empty(1), G_z,
prod)``.  The G side is k = r-1 disjoint copies of it, since a product
joins two copies only through an edge of ``empty(r - 1)``.  The build
splits the block six times, per view (the graph or its complement) and
set (the block, its label-1 or its label-2 vertices), each optimum
checked by ``_holds`` where it is found, and keeps only the answers
``Stage`` lists: 0.20 MB for SF(100)'s 98 stages under the default
profile, and 1.3 MB for the 512 the memo holds after SF(800), where
block rows took 29.5 MB (tracemalloc).  A part's query in mode flip is
its block's in view flip ^ inverse (-1 for an H side, else 0), read by
the copy rule: a clique lies in one copy, so its optimum is the block's,
in copy 0; an independent set (view -1) is one in each copy, so its
optimum is the block's in every copy, k times the size, and is kept as
the block's mask too.  Node counts are the block's.  The inverse is the
duality of the H side that follows a G side of h vertices: H is G's
complement with labels flipped, so a clique of H is an independent set
of G at the same offsets, H's label 1 being G's label 2.  Hence

    omega(H) = alpha(G),  omega_1(H) = alpha_2(G),  omega_2(H) = alpha_1(G),

masks and node counts included, and the same with omega and alpha
exchanged: H's optima are G's masks themselves, shared, not copied.
``stage_solve`` picks the winner from the sizes and keeps its witness
as {part index: block mask}; ``Stack.holds`` checks that each part's
mask is one of that part's optima, and the parity rule across parts.
Only a caller that stores a witness lists its vertices, copy by copy
(``Stack.members``).  A loaded report's witness is not checked on its
own: the loader re-runs the check and compares the witness it lists.
G and H hold h(h-1)/2 edges together, and a vertex of G is joined to the
H vertices of the other parity, the flips of G's vertices of its own
label; with c1 and c2 G's label counts, m(F(r)) = h(h-1)/2 + c1^2 +
c2^2, and the base path's m is its block's.  A Stack reads its n, m and
label counts from the stages' in closed form.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import accumulate
from operator import itemgetter, or_
from typing import NamedTuple

from sfcheck.construct import (
    DEFAULT_PROFILE,
    LABELS,
    InterpretationProfile,
    _require_param,
    build_block,
    label_masks,
)
from sfcheck.graphs import Graph, as_vertex_set, complement, empty, induced, product

ORACLE_MAX_N = 24

# Entries each memo keeps.  An in-process sweep to t-max 100, the largest a
# report loader accepts, keys 98 stages under one profile.
MEMO_SIZE = 512


class CliqueResult(NamedTuple):
    """Optimum size, a verified witness, and search statistics."""

    size: int
    witness: tuple[int, ...]
    nodes_explored: int


def verify_witness(g: Graph, members, mode: str) -> bool:
    """Whether ``members`` is a clique / independent set of ``g``, by
    ``_holds``: each member's row mask against the set, not each pair.

    Independent of the solvers; every part optimum that leaves this module
    has passed ``_holds``, every composed witness ``Stack.holds``, and a
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


def _members(mask: int) -> list[int]:
    """The vertices of ``mask``, ascending: where its binary digits, lowest
    first, hold a 1, found at C speed in place of one big-int step each."""
    return [found.start() for found in re.finditer("1", bin(mask)[:1:-1])]


def _components(rows: tuple[int, ...], mask: int, flip: int) -> list[int]:
    """The components of ``mask`` in the graph of ``rows`` (flip 0) or in
    its complement (flip -1), as masks, lowest vertex first."""
    parts = []
    while mask:
        part = frontier = mask & -mask
        mask ^= part
        while frontier and mask:
            bit = frontier & -frontier
            frontier ^= bit
            new = mask & (rows[bit.bit_length() - 1] ^ flip)
            if new:
                part |= new
                frontier |= new
                mask ^= new
        parts.append(part)
    return parts


def _split_clique(g: Graph, within: int, flip: int) -> tuple[int, int, int]:
    """A maximum clique (flip 0) or independent set (flip -1) of ``g``
    within ``within``, as (size, witness mask, branch-and-bound nodes), by
    the module docstring's split, with no recursion to limit its depth.  A
    prime piece is induced, complemented for an independent set, and
    searched."""
    rows = g.rows
    # Per piece, its clique's mask; per split piece, (union, first, end) of its children.
    pieces, found, splits, nodes = [within], [], {}, 0
    for piece in pieces:
        if _holds(rows, piece, flip):  # a clique in the query's view, taken whole
            found.append(piece)
        elif _holds(rows, piece, ~flip):  # no edge in the query's view: its lowest vertex
            found.append(piece & -piece)
        else:
            for union, view in ((False, flip), (True, ~flip)):
                parts = _components(rows, piece, view)
                if len(parts) > 1:  # components, or co-components for a union
                    splits[len(found)] = (union, len(pieces), len(pieces) + len(parts))
                    found.append(0)
                    pieces += parts
                    break
            else:  # prime
                members = _members(piece)
                h = induced(g, members)
                res = max_clique(complement(h) if flip else h)
                nodes += res.nodes_explored
                found.append(sum(1 << members[v] for v in res.witness))
    for i, (union, lo, hi) in reversed(splits.items()):  # children first
        found[i] = reduce(or_, found[lo:hi]) if union else max(found[lo:hi], key=int.bit_count)
    witness = found[0]
    if not _holds(rows, witness, flip):
        raise AssertionError(f"decomposition produced an invalid {'independent set' if flip else 'clique'}")
    return witness.bit_count(), witness, nodes


class StackResult(NamedTuple):
    """An optimum of a Stack: its size, its witness as one block mask per
    part index (``Stack.members`` lists it), and the node count it rests
    on."""

    size: int
    masks: dict[int, int]
    nodes_explored: int


class Stage:
    """One stage as the stage memo keeps it: its answers, found from one
    block of its first part (the base path, or one copy of the G side),
    which is not kept.  ``block_n`` is the block's vertex count, ``k`` the
    part's copy count, ``paired`` whether an H side follows, ``parts`` each
    part as (first vertex in the stage, inverse, odd, even), then the
    stage's n, m and label counts (label 1 is odd, label 2 even), and
    ``optima``, per mode, (node sum, its label-1 and label-2 share, sizes,
    block masks), per part those of its whole, label-1 and label-2 optima."""

    def __init__(self, block: Graph, labels: tuple[int, ...], k: int, paired: bool) -> None:
        self.block_n, self.k, self.paired = block.n, k, paired
        odd, even = label_masks(labels)
        h, c1 = k * block.n, k * odd.bit_count()
        # An H side, inverse -1, is read on its G side's block, flip inverted and classes swapped.
        self.parts = ((0, 0, odd, even), (h, -1, even, odd))[: 1 + paired]
        if paired:  # the module docstring counts m
            self.n, self.m, self.label_counts = 2 * h, h * (h - 1) // 2 + c1**2 + (h - c1) ** 2, {1: h, 2: h}
        else:
            self.n, self.m, self.label_counts = h, k * block.m, {1: c1, 2: h - c1}
        # The block's six splits, per view and set; one in view -1 covers all k copies.
        full, solves = (1 << block.n) - 1, {}
        for view, copies in ((0, 1), (-1, k)):
            for within in (full, odd, even):
                size, mask, nodes = _split_clique(block, within, view)
                solves[view, within] = copies * size, mask, nodes
        self.optima = {}
        for mode, flip in (("clique", 0), ("independent", -1)):
            # Per part, the sizes, masks and node counts of its whole, label-1 and label-2 optima.
            parts = [zip(*(solves[flip ^ inverse, within] for within in (full, *classes))) for _, inverse, *classes in self.parts]
            sizes, masks, nodes = zip(*parts)
            self.optima[mode] = sum(map(sum, nodes)), sum(sum(part[1:]) for part in nodes), sizes, masks


@lru_cache(maxsize=MEMO_SIZE)
def stage(r: int, profile: InterpretationProfile) -> Stage:
    """F(r) under ``profile`` as one block of its first part, built once."""
    block, labels, paired = build_block(r, profile)
    return Stage(product(empty(1), block, profile.prod), labels, r - 1, True) if paired else Stage(block, labels, 1, False)


@lru_cache(maxsize=MEMO_SIZE)
def _stage_profiles(profile: InterpretationProfile) -> tuple[InterpretationProfile, InterpretationProfile]:
    """The profiles under which ``profile``'s stage 3 and its later stages
    are memoized: stages after the third read only sum and prod, the
    general stage 3 ignores y_label, and the base path reads y_label
    alone."""
    rest = DEFAULT_PROFILE.replace(sum=profile.sum, prod=profile.prod)
    path = profile.base_case == "explicit_path"
    return DEFAULT_PROFILE.replace(y_label=profile.y_label) if path else rest.replace(base_case="general"), rest


class Stack:
    """F(param) or SF(param) under ``profile`` (kept as ``kind``, ``param``
    and ``profile``) as its memoized stages laid out in order, F(3..t) for
    SF(t); the builders' ValueError on another kind or a parameter below 3.

    Two vertices of different parts are adjacent exactly when their label
    parities differ, so n, m, the label counts and every witness check
    follow from the stages, and the dense graph is never built.  Each part
    is (first vertex, stage, inverse, odd, even), as its stage lists it.
    """

    def __init__(self, kind: str, param: int, profile: InterpretationProfile) -> None:
        _require_param(kind, param)
        self.kind, self.param, self.profile = kind, param, profile
        base, rest = _stage_profiles(profile)
        self.stages = [stage(r, base if r == 3 else rest) for r in ((param,) if kind == "F" else range(3, param + 1))]
        *self.starts, self.n = accumulate((s.n for s in self.stages), initial=0)
        self.parts = [(start + offset, s, *part) for start, s in zip(self.starts, self.stages) for offset, *part in s.parts]
        ones, twos = (sum(s.label_counts[label] for s in self.stages) for label in LABELS)
        self.label_counts = {1: ones, 2: twos}
        # The cross edges are the sum over stages i < j of odd_i * even_j +
        # even_i * odd_j: every odd-even pair but those within one stage.
        cross = ones * twos - sum(s.label_counts[1] * s.label_counts[2] for s in self.stages)
        self.m = sum(s.m for s in self.stages) + cross

    def members(self, masks: dict[int, int], mode: str) -> tuple[int, ...]:
        """The vertices of ``masks``, a ``mode`` witness as a block mask
        per part index, numbered in the stack, ascending.  The copy rule: a
        part's mask fills all k copies of its block where it is an
        independent set in G's view (an independent set of G, or a clique
        of H), since no edge of G joins two copies, and copy 0 alone
        otherwise."""
        flip, listed = _flip(mode), []
        for i in sorted(masks):
            start, s, inverse, *_ = self.parts[i]
            block, b = _members(masks[i]), s.block_n
            for first in range(start, start + (s.k if flip ^ inverse else 1) * b, b):
                listed += [first + v for v in block]
        return tuple(listed)

    def holds(self, masks: dict[int, int], mode: str) -> bool:
        """Whether ``masks``, a block mask per part index, is a ``mode``
        witness of the stack as the stage route composes it.  Each part's
        mask must be one of that part's optima in ``mode``, which
        ``_split_clique`` checked where it found them; any other mask,
        valid or not, is refused.  Across parts, the parity rule: a clique
        meets at most two parts, one parity in each and opposite, and an
        independent set that meets two or more lies in one parity."""
        parities = []
        for i, mask in masks.items():
            _, s, inverse, odd, even = self.parts[i]
            if mask not in s.optima[mode][3][inverse]:  # inverse -1 picks an H side, the stage's last part
                return False
            parities.append(bool(mask & odd) | bool(mask & even) << 1)
        if len(parities) < 2:
            return True
        if mode == "clique":
            return len(parities) == 2 and parities[0] ^ parities[1] == 3
        return reduce(or_, parities) != 3


def _checked(stack: Stack, masks: dict[int, int], mode: str, size: int, nodes: int) -> StackResult:
    """``masks`` as a StackResult of ``size``, once ``Stack.holds`` has passed it."""
    if not stack.holds(masks, mode):
        raise AssertionError(f"stage route assembled an invalid {mode} witness")
    return StackResult(size, masks, nodes)


def stage_solve(stack: Stack) -> tuple[StackResult, StackResult]:
    """Maximum clique and maximum independent set of ``stack``, composed
    from its stages' memoized part optima (the module docstring proves the
    formulas).

    Sizes pick the winner, whose masks alone are checked; none is listed.
    Ties go to a single part, then to the first candidate in part order
    (pairs in ``itertools.permutations`` order); the node count sums every
    solve the answer rests on, memoized or not, so it does not depend on
    what ran before.
    """
    results = []
    for mode in ("clique", "independent"):
        optima = [s.optima[mode] for s in stack.stages]
        # Per part, the sizes and masks of its whole, label-1 and label-2 optima.
        sizes, masks = ([part for o in optima for part in o[j]] for j in (2, 3))
        # Each candidate is (size, [(part, 0 whole or a label), ...]).
        candidates = [(whole, [(i, 0)]) for i, (whole, _, _) in enumerate(sizes)]
        if mode == "independent":
            candidates += [(sum(part[label] for part in sizes), [(i, label) for i in range(len(sizes))]) for label in LABELS]
        elif len(sizes) > 1:
            # Part i's first best partner: the first part j != i with the largest label-2 clique.
            by_two = sorted(range(len(sizes)), key=lambda j: -sizes[j][2])[:2]
            for i, (_, one, _) in enumerate(sizes):
                j = by_two[1] if by_two[0] == i else by_two[0]
                candidates.append((one + sizes[j][2], [(i, 1), (j, 2)]))
        size, chosen = max(candidates, key=lambda c: c[0])
        results.append(_checked(stack, {i: masks[i][k] for i, k in chosen}, mode, size, sum(o[0] for o in optima)))
    return results[0], results[1]


def stage_mono_clique(stack: Stack) -> StackResult:
    """Largest single-label clique of ``stack``: its parts' largest (the
    module docstring says why), label 1 and then the first part in order
    winning a tie; the node count sums both classes' solves of every part."""
    optima = [s.optima["clique"] for s in stack.stages]
    sizes, masks = ([part for o in optima for part in o[j]] for j in (2, 3))
    label, i = max(((label, i) for label in LABELS for i in range(len(sizes))), key=lambda c: sizes[c[1]][c[0]])
    return _checked(stack, {i: masks[i][label]}, "clique", sizes[i][label], sum(o[1] for o in optima))


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
