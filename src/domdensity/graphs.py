"""Bitset graphs and the structural operations everything else builds on.

Vertices are 0..n-1 and every neighbourhood is a Python int used as a
bitset, so the set algebra in the solver and the row-cover scan is plain
integer arithmetic (or, and, popcount).  Graphs are immutable after
construction.  graph6 is the one text codec here: ``emit_graph6`` and
``graph_key`` pair with ``parse_graph6``; ``cli.load_graph_text`` reads
graph files.
"""

from __future__ import annotations

import binascii
from typing import NamedTuple

from .errors import CapacityError, ParseError, PreconditionError

# The one vertex cap, on every input graph and every product: it bounds the
# memory of a graph and the depth of the solver's recursion, not its time.
MAX_VERTICES = 4096

_GRAPH6_HEADER = ">>graph6<<"
# graph6 writes 6 bits per character as chr(63 + value), base64 as its
# alphabet, so binascii packs and unpacks the payload in C.
_GRAPH6_CHARS = bytes(range(63, 127))
_BASE64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64_CHARS, _GRAPH6_CHARS)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6_CHARS, _BASE64_CHARS)


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class _GraphFields(NamedTuple):
    n: int
    neighbors: tuple[int, ...]


class Graph(_GraphFields):
    """Simple undirected graph: ``neighbors[v]`` is the open neighbourhood N(v)."""

    __slots__ = ()

    def __new__(cls, n: int, neighbors: tuple[int, ...]):
        self = super().__new__(cls, n, neighbors)
        if self.n < 1:
            raise ValueError("graph order must be a positive integer")
        if len(self.neighbors) != self.n:
            raise ValueError("neighbor table length does not match order")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.neighbors):
            if nb & ~full:
                raise ValueError(f"neighbour mask of vertex {v} references vertices >= n")
            if nb >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, nb in enumerate(self.neighbors):
            for u in iter_bits(nb):
                if not self.neighbors[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        return self

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.neighbors[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbors[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.neighbors) // 2

    def edges(self):
        for v in range(self.n):
            for u in iter_bits(self.neighbors[v] >> (v + 1)):
                yield v, v + 1 + u


def check_order(n: int, what: str = "graph order") -> None:
    """Refuse an order above ``MAX_VERTICES`` before any table is built."""
    if n > MAX_VERTICES:
        raise CapacityError(f"{what} {n} exceeds the {MAX_VERTICES}-vertex cap")


def from_edges(n: int, edges) -> Graph:
    nb = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop {u}-{v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} outside vertex range 0..{n - 1}")
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return Graph(n, tuple(nb))


def max_degree(g: Graph) -> int:
    return max(nb.bit_count() for nb in g.neighbors)


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        grown = seen
        for v in iter_bits(frontier):
            grown |= g.neighbors[v]
        frontier = grown & ~seen
        seen = grown
    return seen == g.vertex_mask


# ---------------------------------------------------------------------------
# graph6 interchange format
# ---------------------------------------------------------------------------

def _decode_order(s: str, pos: int) -> tuple[int, int]:
    c = ord(s[pos])
    if not 63 <= c <= 126:
        raise ParseError(f"invalid graph6 byte {s[pos]!r}", offset=pos)
    if c != 126:
        return c - 63, pos + 1
    if pos + 1 < len(s) and ord(s[pos + 1]) == 126:
        start, width, low = pos + 2, 6, 258048
    else:
        start, width, low = pos + 1, 3, 63
    if start + width > len(s):
        raise ParseError("truncated multi-byte order field", offset=len(s))
    n = 0
    for i in range(width):
        c = ord(s[start + i])
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 byte {s[start + i]!r}", offset=start + i)
        n = (n << 6) | (c - 63)
    if n < low:
        raise ParseError("non-minimal multi-byte order encoding", offset=pos)
    return n, start + width


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optionally prefixed by the standard header)."""
    s = text.rstrip("\r\n")
    pos = 0
    if s.startswith(_GRAPH6_HEADER):
        pos = len(_GRAPH6_HEADER)
    if pos >= len(s):
        raise ParseError("empty graph6 input", offset=pos)
    n, pos = _decode_order(s, pos)
    if n == 0:
        raise ParseError("zero-vertex graphs are not supported", offset=0)
    check_order(n)
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(s) - pos < ngroups:
        raise ParseError("truncated adjacency payload", offset=len(s))
    if len(s) - pos > ngroups:
        raise ParseError("trailing data after graph6 payload", offset=pos + ngroups)
    raw = s[pos:].encode("ascii", "ignore")
    if len(raw) < ngroups or raw.translate(None, _GRAPH6_CHARS):
        i = next(i for i in range(pos, len(s)) if not 63 <= ord(s[i]) <= 126)
        raise ParseError(f"invalid graph6 byte {s[i]!r}", offset=i)
    data = binascii.a2b_base64(raw.translate(_FROM_GRAPH6) + b"A" * (-ngroups % 4))
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    if "1" in bits[nbits:6 * ngroups]:
        raise ParseError("nonzero padding bits", offset=pos + ngroups - 1)
    nb = [0] * n
    for j in range(1, n):
        nb[j] = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in iter_bits(nb[j]):
            nb[i] |= 1 << j
    return Graph(n, tuple(nb))


def emit_graph6(g: Graph) -> str:
    """Encode ``g`` in graph6 (single-byte order for n <= 62, multi-byte above)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    else:
        head = "~~" + "".join(chr(63 + (n >> (6 * i) & 63)) for i in range(5, -1, -1))
    # Column j, the pairs (i, j) for ascending i < j, is the low j bits of
    # N(j), lowest first; the payload is padded to whole base64 quanta.
    bits = "".join(format(g.neighbors[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                   for j in range(1, n))
    ngroups = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)
    data = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return head + binascii.b2a_base64(data)[:ngroups].translate(_TO_GRAPH6).decode()


def graph_key(g: Graph) -> str:
    """Stable cache key: raw graph6 when short, sha256 of it otherwise.

    Product graphs are built deterministically, so an adjacency-exact key is
    stable across runs; hashing keeps cache lines bounded for large orders.
    """
    g6 = emit_graph6(g)
    if g.n <= 62:
        return g6
    import hashlib  # only here: its OpenSSL binding is slow to load
    return "sha256:" + hashlib.sha256(g6.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# bipartitions
# ---------------------------------------------------------------------------

class _BipartiteFields(NamedTuple):
    graph: Graph
    side_a: int
    side_b: int


class BipartiteGraph(_BipartiteFields):
    """A graph together with a certified two-sided partition, |A| <= |B|."""

    __slots__ = ()

    def __new__(cls, graph: Graph, side_a: int, side_b: int):
        self = super().__new__(cls, graph, side_a, side_b)
        g = self.graph
        if self.side_a & self.side_b:
            raise ValueError("sides overlap")
        if (self.side_a | self.side_b) != g.vertex_mask:
            raise ValueError("sides do not cover the vertex set")
        if self.side_a.bit_count() > self.side_b.bit_count():
            raise ValueError("side A must not be larger than side B")
        for v in iter_bits(self.side_a):
            if g.neighbors[v] & self.side_a:
                raise ValueError("edge inside side A")
        for v in iter_bits(self.side_b):
            if g.neighbors[v] & self.side_b:
                raise ValueError("edge inside side B")
        return self

    @property
    def size_a(self) -> int:
        return self.side_a.bit_count()

    @property
    def size_b(self) -> int:
        return self.side_b.bit_count()


def bipartition(g: Graph) -> BipartiteGraph | None:
    """Two-colour ``g``; None when an odd cycle exists.

    Deterministic side rule: in each connected component the colour class
    containing the component's lowest-index vertex goes to side A when it is
    the smaller (or equal) class, to side B otherwise.  Summing per-component
    minima keeps |A| <= |B| globally, so downstream reports are reproducible.
    """
    color = [-1] * g.n
    side_a = side_b = 0
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        comp = [1 << start, 0]
        stack = [start]
        while stack:
            v = stack.pop()
            for u in iter_bits(g.neighbors[v]):
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    comp[color[u]] |= 1 << u
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
        low, high = comp
        if low.bit_count() <= high.bit_count():
            side_a |= low
            side_b |= high
        else:
            side_a |= high
            side_b |= low
    return BipartiteGraph(g, side_a, side_b)


# ---------------------------------------------------------------------------
# Cartesian products and leaf attachment
# ---------------------------------------------------------------------------

def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (a',b') iff equal in one coordinate and
    adjacent in the other.  Vertex (a, b) gets index a * h.n + b."""
    total = g.n * h.n
    check_order(total, "product order")
    hn = h.n
    nb = [0] * total
    for a in range(g.n):
        base = a * hn
        row_targets = [a2 * hn for a2 in iter_bits(g.neighbors[a])]
        for b in range(hn):
            m = h.neighbors[b] << base
            for tb in row_targets:
                m |= 1 << (tb + b)
            nb[base + b] = m
    return Graph(total, tuple(nb))


def attach_leaves(g: Graph, targets: int) -> Graph:
    """Append one pendant vertex per target, in ascending target order."""
    if targets & ~g.vertex_mask:
        raise PreconditionError("targets outside the vertex set")
    if targets == 0:
        return g
    chosen = bit_list(targets)
    nb = list(g.neighbors)
    for i, v in enumerate(chosen):
        leaf = g.n + i
        nb[v] |= 1 << leaf
        nb.append(1 << v)
    return Graph(g.n + len(chosen), tuple(nb))
