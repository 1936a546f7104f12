"""Exact minimum dominating set computation.

``gamma_exact`` is a branch and bound specialised to closed-neighbourhood
covering: vertices are preferred in descending-degree order (ties by index),
the incumbent is seeded by ``_Search.seed_cover``, and a node with
``need`` = best - count more vertices to beat the incumbent is cut by
admissible lower bounds: ceil(uncovered / (max degree + 1)) >= need, or a
greedily built 2-packing of the uncovered region reaching need (no vertex
dominates two of its vertices; Meir & Moon 1975).  Two packings are built,
in two orders, and either one cuts.  Each takes the highest vertex left, v,
and keeps only the vertices outside distance 2 of v (precomputed as
``far[v]``), so it costs one step per packed vertex; it stops as soon as it
reaches need, which makes the same cut decision as the whole packing would.
One runs in descending order; the other runs on mirrored masks, vertex v at
bit n-1-v, so it takes the vertices in ascending order without the two
integers per step that isolating the lowest bit costs.  The branch vertex
is the uncovered vertex with the fewest allowed dominators; a ``near`` mask,
the union of the closed neighbourhoods of the vertices excluded so far, is
carried down the search so that only uncovered vertices inside it are
counted, since every other one keeps its whole closed neighbourhood.

One recursive descent, the kernel, serves both passes.  A call is a node
that its parent has already counted and bounded: it carries the chosen
vertices as a mask with their count, and the vertices they leave uncovered,
plain and mirrored.  It picks the branch vertex and evaluates each child in
its own loop: there the child is counted in ``nodes``, a full cover is
recorded as ``found`` with its size as ``best`` (the search stops at the
first cover of size <= ``goal``), and a child that a bound cuts is dropped,
so that only a child that survives its bounds becomes a call.  A witness
probe's root enters that loop as the one child of its prefix; the value
pass's root, the one node that is no vertex's child, is counted and bounded
by ``minimum_size``.  The kernel is one nested function with the
branch-vertex rule inlined, built once per pass as the pass starts: the
read-only tables (``closed`` and its complements, the mirrored and packing
tables, ``cand_order``, ``pref``, ``size_classes``) are its closure locals,
so that a node reads no attribute but the mutable state (``nodes``,
``best``, ``found``, ``goal``, ``visit``, and the root's ``root`` and
``budget``), which stays on the search.  The value pass sets ``goal`` to
-1 and ``best`` and ``found`` to a seed cover, so it never stops early and
ends with an optimal cover in ``found``.  The seed is the smaller of two
covers, the greedy one on a tie: a lazy max-coverage greedy (Minoux's
accelerated greedy) and a dive along the branching rule.  Either seed
leaves the search exact, and the witness is lex-min whatever the seed.

The value pass's root prunes by symmetry: it skips a child u when a checked
automorphism sigma maps u onto an earlier root child u' (u is still excluded
from the later children).  A cover D below u has an image sigma(D) of the
same size that holds u', so sigma(D) lies below u' or an earlier child,
which were searched for every cover smaller than the incumbent.  So the
incumbent is no larger than D, and below u the search would cut every node
before a full cover: skipping u changes neither ``best`` nor ``found``.
The ``_automorphism`` calls at one root take at most as many steps as the
first child's subtree took nodes.

Witnesses are deterministic: among all minimum dominating sets the one whose
sorted vertex tuple is lexicographically smallest is reconstructed by fixing
vertices in ascending order, each probe a descent with ``goal`` = gamma and
``best`` = gamma + 1 (a feasibility search at the known optimum).  The
witness pass always follows the value pass and is seeded with its optimal
cover ``found``: as ``found`` holds the vertices fixed so far and then c,
the probe at c is known to succeed, so only the vertices below c are probed
and c is taken with no search; a probe that succeeds makes its own cover the
new incumbent.  ``each_minimum_set`` makes that probe at every vertex, hands
each full cover to a visitor and searches on, never lowering ``best``.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from itertools import accumulate
from operator import or_
from pathlib import Path
from typing import NamedTuple

from .errors import PreconditionError
from .graphs import (
    Graph,
    bit_list,
    cartesian_product,
    graph_key,
    max_degree,
)


class VizingReport(NamedTuple):
    """Exact values of one product pair; each witness is a vertex mask."""

    gamma_g: int
    gamma_h: int
    gamma_product: int
    holds: bool
    witness_g: int
    witness_h: int
    witness_product: int


def closed_neighborhoods(g: Graph) -> list[int]:
    return [g.neighbors[v] | (1 << v) for v in range(g.n)]


def is_dominating(g: Graph, vertices: int) -> bool:
    """True iff the union of closed neighbourhoods over ``vertices`` is V."""
    if vertices & ~g.vertex_mask:
        raise PreconditionError("candidate set outside the vertex set")
    covered = vertices
    for v in bit_list(vertices):
        covered |= g.neighbors[v]
    return covered == g.vertex_mask


def _automorphism(neighbors, x: int, y: int, budget: int) -> tuple[list[int] | None, int]:
    """An automorphism with x -> y as a permutation list, or None, and the
    steps taken, at most ``budget``: one per vertex put in the BFS order of
    x's component and one per image tried.  Each vertex in that order is
    mapped onto an unused neighbour of its BFS parent's image with its degree
    and its adjacency to the vertices mapped before it; vertices outside
    the component stay fixed.  The result is checked on its own before it
    is returned."""
    order, parent, comp = [x], [-1], 1 << x
    for w in order:
        if len(order) > budget:
            return None, budget
        m = neighbors[w] & ~comp
        comp |= m
        order += bit_list(m)
        parent += [w] * m.bit_count()
    steps = len(order)
    if not comp >> y & 1:
        return None, steps
    image = list(range(len(neighbors)))
    options = [1 << y] + [0] * (len(order) - 1)  # options[k]: images left for order[k]
    domain = used = 0  # order[:k] and its image
    k = 0
    while k < len(order):
        w = order[k]
        if not options[k]:
            # Every image of order[k] failed: take back order[k - 1]'s.
            k -= 1
            if k < 0:
                return None, steps
            domain ^= 1 << order[k]
            used ^= 1 << image[order[k]]
            continue
        if steps == budget:
            return None, steps
        steps += 1
        c = (options[k] & -options[k]).bit_length() - 1
        options[k] ^= 1 << c
        if neighbors[c].bit_count() == neighbors[w].bit_count() and neighbors[c] & used \
                == sum(1 << image[a] for a in bit_list(neighbors[w] & domain)):
            image[w] = c
            domain |= 1 << w
            used |= 1 << c
            k += 1
            if k < len(order):
                options[k] = neighbors[image[parent[k]]] & ~used
    # A bijection of the component onto itself that maps every edge at a
    # component vertex onto an edge.
    if sum(1 << image[w] for w in order) != comp or any(
            sum(1 << image[u] for u in bit_list(neighbors[w])) != neighbors[image[w]]
            for w in order):
        return None, steps
    return image, steps


class _Search:
    """Branch-and-bound state shared by both passes and ``each_minimum_set``."""

    def __init__(self, g: Graph, visit=None):
        # The kernel recurses once per chosen vertex, so a search is at most n
        # deep; the default limit's 1000 frames stay for the callers.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), g.n + 1000))
        self.n = g.n
        self.neighbors = g.neighbors
        self.full = g.vertex_mask
        self.closed = closed_neighborhoods(g)
        self.cover_span = max_degree(g) + 1
        self.order = sorted(range(g.n), key=lambda v: (-g.neighbors[v].bit_count(), v))
        self.pref = [0] * g.n
        for r, v in enumerate(self.order):
            self.pref[v] = r
        self.cand_order = [
            tuple(sorted(bit_list(self.closed[v]), key=lambda u: self.pref[u]))
            for v in range(g.n)
        ]
        # far[v]: every vertex farther than distance 2 from v, i.e. every w
        # whose closed neighbourhood misses closed[v]; a 2-packing that takes
        # v may still take only these.  The mirrored masks put vertex v at
        # bit n-1-v: mclosed[v] mirrors closed[v], and mfar[n-1-v] mirrors
        # far[v], so that a packing stepped by the highest mirrored bit takes
        # the vertices in ascending order.
        self.mclosed = [sum(1 << g.n - 1 - u for u in bit_list(c)) for c in self.closed]
        self.far = [self.full] * g.n
        self.mfar = [self.full] * g.n
        for v in range(g.n):
            for u in bit_list(self.closed[v]):
                self.far[v] &= ~self.closed[u]
                self.mfar[g.n - 1 - v] &= ~self.mclosed[u]
        # Vertices by closed-neighbourhood size, smallest size first; within
        # one size, pref is index order.
        sizes = {}
        for v in range(g.n):
            size = self.closed[v].bit_count()
            sizes[size] = sizes.get(size, 0) | 1 << v
        self.size_classes = sorted(sizes.items())
        # near_prefix[v]: union of closed[u] over u < v, the ``near`` mask
        # of a witness probe's prefix, which has excluded every vertex below v.
        self.near_prefix = list(accumulate(self.closed, or_, initial=0))
        self.goal = -1
        self.best = g.n
        self.found = 0  # the last full cover reached, of size best
        self.nodes = 0  # descents since the value pass started
        self.root = []  # the value pass's root children so far
        self.budget = 0  # automorphism steps left at the value pass's root
        self.visit = visit  # each_minimum_set's visitor of full covers

    def greedy_cover(self) -> int:
        """Max-coverage greedy cover; ties go to the vertex first in pref order.

        Gains only fall, so a vertex's last computed gain bounds its current
        one (lazy greedy): ``bucket[g]`` holds, as a mask over pref ranks,
        the vertices last seen with gain g, and only the lowest rank of the
        top bucket is recomputed.  If its gain held, it is the vertex of
        largest gain and, among those, of lowest pref; else it moves down.
        """
        bucket = [0] * (self.cover_span + 1)
        for r, v in enumerate(self.order):
            bucket[self.closed[v].bit_count()] |= 1 << r
        covered = chosen = 0
        top = self.cover_span
        while covered != self.full:
            while not bucket[top]:
                top -= 1
            low = bucket[top] & -bucket[top]
            bucket[top] ^= low
            v = self.order[low.bit_length() - 1]
            gain = (self.closed[v] & ~covered).bit_count()
            if gain == top:
                chosen |= 1 << v
                covered |= self.closed[v]
            else:
                bucket[gain] |= low
        return chosen

    def seed_cover(self) -> int:
        """The value pass's incumbent: the greedy cover, or a dive's cover if
        that is strictly smaller.  The dive follows the branching rule in the
        root state, where nothing is excluded: for the uncovered vertex of the
        smallest closed neighbourhood, lowest index on a tie, it takes the
        dominator of largest gain (ties go to the lower pref)."""
        chosen = covered = 0
        while covered != self.full:
            uncovered = self.full & ~covered
            m = next(uncovered & members for _, members in self.size_classes
                     if uncovered & members)
            u = max(self.cand_order[(m & -m).bit_length() - 1],
                    key=lambda u: (self.closed[u] & ~covered).bit_count())
            chosen |= 1 << u
            covered |= self.closed[u]
        greedy = self.greedy_cover()
        return chosen if chosen.bit_count() < greedy.bit_count() else greedy

    def minimum_size(self, seed: int) -> int:
        self.goal, self.best, self.found = -1, seed.bit_count(), seed
        self.nodes, self.root = 1, []
        # The root is no vertex's child, so no kernel loop evaluates it: it
        # is counted and bounded here, over the whole vertex set (its own
        # mirror).
        full, need = self.full, self.best
        if self.n > (need - 1) * self.cover_span:
            return need
        for far in self.far, self.mfar:
            m, left = full, need
            while m:
                left -= 1
                if not left:
                    return need
                m &= far[m.bit_length() - 1]
        with self._kernel() as descend:
            descend(0, 0, full, full, full, 0, None, self._image_of_earlier)
        return self.best

    def _image_of_earlier(self, u: int) -> bool:
        """True iff a verified automorphism maps the root child u onto an
        earlier root child.  The steps spent on automorphisms at the root
        add up to at most the first child's subtree's node count."""
        earlier = self.root
        self.root = earlier + [u]
        if len(earlier) == 1:
            self.budget = self.nodes - 1
        for y in earlier:
            sigma, steps = _automorphism(self.neighbors, u, y, self.budget)
            self.budget -= steps
            if sigma is not None:
                return True
        return False

    @contextmanager
    def _kernel(self):
        """The branch and bound below one node, as a function
        descend(chosen, count, uncovered, muncovered, allowed, near,
        cands=None, prune=None) that returns True at a cover of size
        <= goal.

        A call is a node that its caller has counted and bounded, carrying
        ``chosen``, its size ``count`` and the vertices left uncovered, plain
        and mirrored (vertex v at bit n-1-v).  Its loop counts each allowed
        child in ``nodes`` (after the orbit check ``prune`` and before any
        bound, so that ``_image_of_earlier`` reads every node evaluated so
        far), records a full cover, drops a child that a bound cuts, and
        calls only a child that survives.  A probe root is the one child v
        (``cands`` = (v,)) of its prefix.  The value pass's root is no
        vertex's child, so ``minimum_size`` counts it and bounds it with its
        own copy of the three bounds (a root they cut ends the pass after
        one node, as C4096's does), and passes ``_image_of_earlier`` as
        ``prune`` to the root's call alone.

        It reads the tables as closure locals, and each pass builds it once,
        as it starts: a table set after construction is still read, and no
        probe rebuilds one.  The state that callers and tests read stays on
        self.  On leaving, the kernel's reference to itself is dropped: that
        cycle would keep a finished search's tables until the cyclic garbage
        collector ran, which a long ``transform`` trace shows in its peak
        memory."""
        n, closed, mclosed = self.n, self.closed, self.mclosed
        cand_order, pref, size_classes = self.cand_order, self.pref, self.size_classes
        # far and mfar one slot up, so that a packing indexes them by
        # m.bit_length(), one more than m's highest vertex.
        far, mfar = [0] + self.far, [0] + self.mfar
        # spans[need]: (need - 1) * cover_span, the most vertices that
        # need - 1 more vertices can cover, for need from 1 - n to n + 1.  A
        # need below 1 (the incumbent fell while the parent searched)
        # indexes the -1 entries from the end, so that it cuts.
        spans = [(need - 1) * self.cover_span for need in range(n + 2)] + [-1] * n
        # opened[u]: the vertices closed[u] misses, so that a child's
        # uncovered set is one and-mask; mopened mirrors it.
        opened = [self.full ^ c for c in closed]
        mopened = [self.full ^ c for c in mclosed]
        no_key = n * (n + 1)

        def descend(chosen, count, uncovered, muncovered, allowed, near,
                    cands=None, prune=None):
            if cands is None:
                # The branch vertex: the uncovered vertex with the fewest
                # allowed dominators, ties to the lower pref, keyed as
                # count * n + pref.  ``near`` is the union of closed[u] over
                # the excluded vertices (those not in ``allowed``).  An
                # uncovered vertex outside it keeps its whole closed
                # neighbourhood as dominators, so only the ones inside are
                # counted; among the rest the smallest neighbourhood wins,
                # and within one size the lowest index, which is the lowest
                # pref.
                key = no_key
                inside = uncovered & near
                m = uncovered ^ inside
                for size, members in size_classes:
                    if low := m & members:
                        v = (low & -low).bit_length() - 1
                        key = size * n + pref[v]
                        break
                m = inside
                while m:
                    low = m & -m
                    w = low.bit_length() - 1
                    m ^= low
                    c = (closed[w] & allowed).bit_count() * n + pref[w]
                    if c < key:
                        key, v = c, w
                # Every uncovered vertex keeps an allowed dominator: the
                # value pass's root allows every vertex; a witness probe at
                # v < c allows the vertices of ``found`` above c, which
                # dominate what its prefix leaves uncovered; and a child
                # excludes at most c_v - 1 dominators of any vertex, since
                # the branch vertex v has the fewest allowed ones.  Not so
                # in an enumeration probe: a vertex with no allowed
                # dominator is picked there, and the node has no child.
                cands = cand_order[v]
            count += 1  # each child's size
            rest = allowed
            for u in cands:
                if rest >> u & 1:
                    rest ^= 1 << u
                    near |= closed[u]
                    if prune and prune(u):
                        continue
                    self.nodes += 1
                    left = uncovered & opened[u]
                    if not left:
                        if self.visit is not None and count == self.goal:
                            self.visit(chosen | 1 << u)
                        else:
                            self.best, self.found = count, chosen | 1 << u
                            if count <= self.goal:
                                return True
                        continue
                    need = self.best - count
                    if left.bit_count() > spans[need]:
                        continue
                    # Two greedy 2-packings, each stopped once it reaches
                    # need: in descending order, and in ascending order as
                    # descending over the mirrored masks.  A packing that
                    # reaches need breaks, which drops the child; only a
                    # child that both packings run dry on (each else)
                    # becomes a call.
                    m, k = left, need
                    while m:
                        k -= 1
                        if not k:
                            break
                        m &= far[m.bit_length()]
                    else:
                        mleft = muncovered & mopened[u]
                        m, k = mleft, need
                        while m:
                            k -= 1
                            if not k:
                                break
                            m &= mfar[m.bit_length()]
                        else:
                            if descend(chosen | 1 << u, count, left, mleft, rest, near):
                                return True
            return False

        try:
            yield descend
        finally:
            del descend

    def _probe(self, descend, gamma: int, v: int, chosen: int, uncovered: int,
               muncovered: int) -> bool:
        """A descent by ``descend``, this search's kernel, at gamma below
        ``chosen`` + v, every vertex up to v excluded: v is the one child of
        the prefix ``chosen``, which leaves ``uncovered`` (mirrored:
        ``muncovered``) and allows v and the vertices above it."""
        self.goal, self.best = gamma, gamma + 1
        return descend(chosen, chosen.bit_count(), uncovered, muncovered,
                       self.full >> v << v, self.near_prefix[v], (v,))

    def lexmin_witness(self, gamma: int) -> int:
        """Smallest minimum dominating set under sorted-vertex-tuple order.

        Runs after ``minimum_size``, which leaves an optimal cover in ``found``.
        """
        chosen = lo = 0
        uncovered = muncovered = self.full
        with self._kernel() as descend:
            while uncovered:
                # ``found`` holds ``chosen`` and then its next vertex c, so a
                # probe at c would succeed: probe only lo..c-1.
                rest = self.found >> lo
                c = lo + (rest & -rest).bit_length() - 1
                c = next((v for v in range(lo, c) if self._probe(
                    descend, gamma, v, chosen, uncovered, muncovered)), c)
                chosen |= 1 << c
                uncovered &= ~self.closed[c]
                muncovered &= ~self.mclosed[c]
                lo = c + 1
        return chosen


def each_minimum_set(g: Graph, gamma: int, visit) -> None:
    """Call ``visit`` once with each dominating set of ``gamma`` = gamma(g)
    vertices, as a mask.  The probe at v meets the sets whose lowest vertex is
    v: a child takes u and excludes the dominators before u, the bounds stay
    admissible at ``best`` = gamma + 1, and the root's orbit pruning never runs
    as v is chosen.  A smaller cover ends the probe and raises ``ValueError``."""
    search = _Search(g, visit)
    with search._kernel() as descend:
        for v in range(g.n):
            if search._probe(descend, gamma, v, 0, search.full, search.full):
                raise ValueError(f"{gamma} is not this graph's domination number:"
                                 f" {search.best} vertices dominate it (a wrong gamma"
                                 " cache entry?)")


def _exact(g: Graph, cache: "GammaCache | None") -> int:
    """``gamma_exact``'s witness mask: the cached one, checked, or else a
    solve of both passes, which a cache logs."""
    if cache is not None:
        key = graph_key(g)
        witness = cache.get(key)
        if witness is not None:
            # is_dominating raises PreconditionError, a ValueError, on a
            # vertex outside the graph.
            if not is_dominating(g, witness):
                raise ValueError(f"cached witness mask {witness:x} does not dominate"
                                 " this graph (a wrong gamma cache entry?)")
            # A vertex can be dropped iff every vertex of its closed
            # neighbourhood has two dominators in the mask.
            closed = closed_neighborhoods(g)
            once = twice = 0
            for v in bit_list(witness):
                twice |= once & closed[v]
                once |= closed[v]
            drop = [v for v in bit_list(witness) if not closed[v] & ~twice]
            if drop:
                raise ValueError(f"cached witness mask {witness:x} is not minimal: vertex"
                                 f" {drop[0]} can be dropped (a wrong gamma cache entry?)")
            return witness
    search = _Search(g)
    witness = search.lexmin_witness(search.minimum_size(search.seed_cover()))
    if cache is not None:
        cache.put(key, witness)
    return witness


def gamma_value(g: Graph, cache: "GammaCache | None" = None) -> int:
    """The domination number alone (cheaper than gamma_exact in scans).

    Without a cache only the value pass runs; with one, the value is the
    size of ``gamma_exact``'s witness, so that every logged entry carries
    its witness.
    """
    if cache is not None:
        return _exact(g, cache).bit_count()
    search = _Search(g)
    return search.minimum_size(search.seed_cover())


def gamma_exact(g: Graph, cache: "GammaCache | None" = None) -> tuple[int, int]:
    """Domination number together with the deterministic lex-min witness mask.

    A cached witness is used without a search once it is checked to be a
    minimal dominating set; a miss runs the value pass and then the witness
    pass.
    """
    witness = _exact(g, cache)
    return witness.bit_count(), witness


def check_vizing(g: Graph, h: Graph, cache: "GammaCache | None" = None) -> VizingReport:
    """Evaluate gamma(G box H) >= gamma(G) gamma(H) with exact values."""
    product = cartesian_product(g, h)
    gamma_g, wit_g = gamma_exact(g, cache)
    gamma_h, wit_h = gamma_exact(h, cache)
    gamma_p, wit_p = gamma_exact(product, cache)
    return VizingReport(
        gamma_g=gamma_g,
        gamma_h=gamma_h,
        gamma_product=gamma_p,
        holds=gamma_p >= gamma_g * gamma_h,
        witness_g=wit_g,
        witness_h=wit_h,
        witness_product=wit_p,
    )


class GammaCache:
    """Persistent gamma cache: an append-only text log, one graph per line.

    A line is "key value mask", the mask being the graph's lex-min minimum
    dominating set in lowercase hex and the value its size.  Two lines of
    one key must agree.  The whole log is reloaded at startup; writes go
    through a single writer (this object) and are flushed immediately, so a
    killed run keeps every graph it solved.  A final line without its
    newline is the torn write of a killed run: it is cut off the file (a
    torn "key 2 30" may read "key 2 3"), once every complete line has been
    accepted; any other malformed line, a value that is not a positive
    integer or a mask whose size is not the value included, is rejected.
    """

    def __init__(self, path: str | Path | None = None):
        self._witnesses: dict[str, int] = {}
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            data = self._path.read_bytes()
            complete = data[:data.rfind(b"\n") + 1]
            try:
                text = complete.decode()
            except UnicodeDecodeError as exc:
                raise ValueError(f"cannot read {self._path}: {exc}") from None
            for lineno, line in enumerate(text.splitlines(), 1):
                fields = line.split()
                if not fields:
                    continue
                where = f"{self._path}:{lineno}"
                if len(fields) != 3 or not fields[1].isdecimal() \
                        or not re.fullmatch("[0-9a-f]+", fields[2]):
                    raise ValueError(f"{where}: malformed cache line")
                key, value, witness = fields[0], int(fields[1]), int(fields[2], 16)
                if value < 1 or witness.bit_count() != value:
                    raise ValueError(f"{where}: malformed cache line")
                if self._witnesses.setdefault(key, witness) != witness:
                    raise ValueError(f"{where}: conflicting cache line")
            if len(data) > len(complete):
                os.truncate(self._path, len(complete))

    def __len__(self) -> int:
        return len(self._witnesses)

    def get(self, key: str) -> int | None:
        return self._witnesses.get(key)

    def put(self, key: str, witness: int):
        self._witnesses[key] = witness
        if self._path is not None:
            with self._path.open("a") as fh:
                fh.write(f"{key} {witness.bit_count()} {witness:x}\n")
