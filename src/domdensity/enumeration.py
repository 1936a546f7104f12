"""Exhaustive enumeration of balanced k-regular bipartite graphs.

Instances live as n x n biadjacency matrices with constant row and column
sums k; equivalence means independent row and column permutations.  The
canonical member of a class is its V-minimal matrix, V(M) being the tuple
of row masks, row 0 first; ``canonical_key`` finds it and encodes its rows
as the class key.  Generation places rows in nondecreasing order with
column-sum feasibility pruning, and keeps the columns nonincreasing when
read with row 0 as the most significant bit.  That is row and column lex
symmetry breaking (Flener et al., CP 2002, "Breaking row and column
symmetries in matrix models"); every class has such a doubly-lexical
member (Lubiw 1987, "Doubly lexical orderings of matrices").  The first
member of a class the generator reaches is its V-minimal one, so a complete
matrix is kept after a self-minimality test: the column search, seeded
with the matrix's own rows, finds no member below them.  That search
bounds a node by the least value each row can still reach, its placed bits
over its unplaced ones packed into the lowest free positions.  These bound
the final rows elementwise, and elementwise >= implies sorted >=, so their
sorted vector bounds every member below the node.

A cell with 2k < n, the sparse half, is enumerated through its complement:
complementing every entry maps the classes of (n, k) one to one onto those
of (n, n - k), whose generator tests several times fewer complete matrices
((8, 5) tests 1,112, (8, 3) 4,070).  Each complement class is keyed by one
unseeded search, and the sorted keys give the members in the same order.
The trade-off is latency: a sparse cell yields its first class only after
its whole complement cell is enumerated and keyed.

This module is the one place a class is evaluated.  ``class_record``
gives its complete scan record: exact gamma, the conjectured bound
2*ceil(n/k), the order bound 2r, the n = k + 2 structure tag, and the
rank/cover obstruction report.  ``record_findings`` reads every finding
off such a record.  The ``scan`` command's one loop over ``enumerate_kreg``
goes through these two; violations become findings instead of being
asserted away.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .criteria import conjectured_kreg_bound, kreg_order_bound
from .domination import gamma_value
from .errors import CapacityError, PreconditionError
from .graphs import BipartiteGraph, Graph, is_connected
from .rankcheck import obstruction_report

SCAN_CAP = 8


class _MatrixFields(NamedTuple):
    n: int
    k: int
    rows: tuple[int, ...]


class BiadjacencyMatrix(_MatrixFields):
    """n x n 0/1 matrix with every row and column summing to k.

    ``rows[i]`` is a column bitmask (bit j set iff entry (i, j) is 1).
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, rows: tuple[int, ...]):
        self = super().__new__(cls, n, k, rows)
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match order")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} references columns >= n")
            if row.bit_count() != self.k:
                raise ValueError(f"row {i} sums to {row.bit_count()}, expected {self.k}")
        for j in range(self.n):
            s = sum(r >> j & 1 for r in self.rows)
            if s != self.k:
                raise ValueError(f"column {j} sums to {s}, expected {self.k}")
        return self

    def column(self, j: int) -> int:
        """Bitmask over row indices with a 1 in column j."""
        mask = 0
        for i, row in enumerate(self.rows):
            mask |= (row >> j & 1) << i
        return mask

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_text(self) -> str:
        return "\n".join(
            "".join(str(self.entry(i, j)) for j in range(self.n))
            for i in range(self.n)
        )


def to_graph(m: BiadjacencyMatrix) -> BipartiteGraph:
    """Row vertices 0..n-1 on side A, column vertices n..2n-1 on side B."""
    n = m.n
    nb = [m.rows[i] << n for i in range(n)]
    nb.extend(m.column(j) for j in range(n))
    g = Graph(2 * n, tuple(nb))
    side = (1 << n) - 1
    return BipartiteGraph(g, side, side << n)


# ---------------------------------------------------------------------------
# canonical form under independent row and column permutations
# ---------------------------------------------------------------------------

def canonical_key(m: BiadjacencyMatrix, below: Sequence[int] | None = None) -> str:
    """Lexicographically minimal row-sorted matrix over all column permutations.

    Column positions are assigned most-significant bit first.  Every row
    holds exactly k ones, so a row with placed bits p, whose other k - |p|
    ones still go to positions 0..pos, ends at least at
    p | ((1 << (k - |p|)) - 1): its placed bits over its lowest possible
    fill.  The search carries that value per row.  Elementwise >= implies
    sorted >=, so the sorted vector of these values lower-bounds every
    completion, and a child whose bound is not below the incumbent is cut.
    Identical columns are expanded once, and states (row values plus the
    multiset of unplaced columns) are visited once: a revisit explores the
    same subtree and cannot improve the incumbent.  The key is emitted as
    fixed-width hex row masks, smallest row first, prefixed by the (n, k)
    shape.

    ``below``, the nondecreasing rows of a member of the class, seeds the
    incumbent, and the search stops at the first member strictly below it.
    The result is then ``encode_key(n, k, below)`` iff ``below`` is the
    minimal member, and otherwise the key of some smaller member.
    """
    n = m.n
    cols = tuple(sorted(m.column(j) for j in range(n)))
    rows_of = {c: [i for i in range(n) if c >> i & 1] for c in set(cols)}
    best: list[int] | None = None if below is None else list(below)
    visited: set[tuple] = set()
    memo_floor = n - 4  # dedup only near the root, where a hit prunes most
    # The memo stays: without it enumerating (8, 7) takes 115 ms, not 0.5 ms.

    def descend(bounds: list[int], remaining: tuple[int, ...], pos: int) -> bool:
        # bounds[r]: row r's placed bits over its lowest fill at 0..pos.
        # True stops the search: a member below ``below`` was found
        nonlocal best
        if pos < 0:
            # the last expansion's bound was this leaf, and it beat ``best``
            best = sorted(bounds)
            return below is not None
        if pos >= memo_floor:
            # Row-permutation-invariant fingerprint: a row matters only
            # through its value and its memberships among unplaced columns
            # (bit i of member[r]: row r is in remaining[i]).  Automorphic
            # branches collide here and are walked once.
            member = [0] * n
            for i, col in enumerate(remaining):
                for r in rows_of[col]:
                    member[r] |= 1 << i
            state = tuple(sorted(zip(bounds, member)))
            if state in visited:
                return False
            visited.add(state)
        expansions = []
        seen = set()
        bit = 1 << pos
        low = (bit << 1) - 1
        for t, col in enumerate(remaining):
            if col in seen:
                continue
            seen.add(col)
            grown = bounds[:]
            for r in rows_of[col]:
                # place the bit and shift the row's fill down by one
                b = grown[r]
                grown[r] = b & ~low | bit | (b & low) >> 1
            expansions.append((sorted(grown), grown, t))
        expansions.sort(key=lambda e: e[0])
        for bound, grown, t in expansions:
            if best is not None and bound >= best:
                break
            if descend(grown, remaining[:t] + remaining[t + 1:], pos - 1):
                return True
        return False

    descend([(1 << m.k) - 1] * n, cols, n - 1)
    assert best is not None
    return encode_key(n, m.k, best)


def encode_key(n: int, k: int, rows) -> str:
    """Key string of the given row masks: the (n, k) shape, then every row
    as fixed-width hex, in the given order."""
    width = (n + 3) // 4
    return f"{n}.{k}." + "".join(f"{row:0{width}x}" for row in rows)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_kreg(n: int, k: int) -> Iterator[BiadjacencyMatrix]:
    """Yield the V-minimal member of every row/column-permutation class,
    in increasing V order, where V(M) is the tuple of row masks, row 0 first.

    A cell with 2k < n is enumerated as (n, n - k); each class is
    complemented and keyed unseeded, and the V-minimal members, read off the
    sorted keys, are yielded once the whole complement cell is keyed.  Every
    other cell comes from ``_enumerate_direct``.  Capped at
    n <= ``SCAN_CAP``.
    """
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n")
    if n > SCAN_CAP:
        raise CapacityError(f"enumeration capped at n <= {SCAN_CAP}")
    if 2 * k >= n:
        yield from _enumerate_direct(n, k)
        return
    full = (1 << n) - 1
    width = (n + 3) // 4
    minimal = []
    for m in _enumerate_direct(n, n - k):
        key = canonical_key(BiadjacencyMatrix(n, k, tuple(full ^ r for r in m.rows)))
        hexrows = key[-n * width:]
        minimal.append(tuple(int(hexrows[i:i + width], 16)
                             for i in range(0, n * width, width)))
    for rows in sorted(minimal):
        yield BiadjacencyMatrix(n, k, rows)


def _enumerate_direct(n: int, k: int) -> Iterator[BiadjacencyMatrix]:
    """``enumerate_kreg`` by direct generation, for a checked cell.

    Rows are placed in nondecreasing mask order starting from the forced
    minimum row (the k lowest columns), with column-sum feasibility pruning.
    The column condition (Lubiw 1987; Flener et al. 2002) cuts the rest: read
    with row 0 as the most significant bit, column j must not be smaller than
    column j + 1.  A bitmask of adjacent column pairs still tied over the
    placed rows makes it a prefix test: a row that sets bit j + 1 but not bit j
    of a tied pair is rejected.  No class is lost, because its V-minimal member

    - has nondecreasing rows,
    - has first row (1 << k) - 1,
    - has column j >= column j + 1 for every j, since swapping the two
      would lower the first row where they differ.

    Generation runs in increasing V order, so that member is the first of
    its class to appear.  It is the only member that no column permutation
    lowers, which is how duplicates are dropped: ``canonical_key`` runs
    seeded with the matrix's own rows and stops at the first member below
    them, instead of searching for the whole minimum.
    """
    candidates = [
        sum(1 << j for j in combo) for combo in combinations(range(n), k)
    ]
    candidates.sort()
    first = (1 << k) - 1

    def extend(rows: list[int], counts: list[int], start: int, tied: int):
        # bit j of ``tied``: columns j and j + 1 agree on every placed row
        if len(rows) == n:
            matrix = BiadjacencyMatrix(n, k, tuple(rows))
            if canonical_key(matrix, below=rows) == encode_key(n, k, rows):
                yield matrix
            return
        remaining = n - len(rows) - 1
        # A row may not enter a column already at k, and must enter every
        # column that the remaining rows could no longer fill.
        full = needy = 0
        for j in range(n):
            full |= (counts[j] == k) << j
            needy |= (k - counts[j] > remaining) << j
        for idx in range(start, len(candidates)):
            row = candidates[idx]
            if (row >> 1) & ~row & tied or row & full or needy & ~row:
                continue
            for j in range(n):
                counts[j] += row >> j & 1
            rows.append(row)
            yield from extend(rows, counts, idx, tied & ~(row ^ (row >> 1)))
            rows.pop()
            for j in range(n):
                counts[j] -= row >> j & 1

    counts0 = [1] * k + [0] * (n - k)
    tied0 = ((1 << (n - 1)) - 1) & ~(first ^ (first >> 1))
    yield from extend([first], counts0, 0, tied0)


# ---------------------------------------------------------------------------
# n = k + 2 structure
# ---------------------------------------------------------------------------

def is_unique_form(m: BiadjacencyMatrix) -> bool:
    """True iff some row/column permutation yields all ones minus disjoint
    2x2 zero blocks.

    Checked structurally: the rows pair up into identical twins.  That is
    enough, since at n = k + 2 every column sum leaves each column exactly
    two zeros; twin rows share their zeros, so column j's two zeros are one
    twin pair's, and the pairs' zero columns tile the column set.  Odd
    orders (and any shape other than n = k + 2) are False, the form does
    not exist there.
    """
    if m.n != m.k + 2 or m.n % 2:
        return False
    groups: dict[int, int] = {}
    for row in m.rows:
        groups[row] = groups.get(row, 0) + 1
    return all(c == 2 for c in groups.values())


# ---------------------------------------------------------------------------
# scan records
# ---------------------------------------------------------------------------

# The fields of a class record, in the order ``class_record`` builds them
# and ``scan`` writes them: the key, gamma, both bounds, structure tag and
# connectivity, then the fields of its ``rankcheck.ObstructionReport``.
SCAN_RECORD_FIELDS = (
    "key", "n", "k", "gamma", "conj_bound", "order_bound", "case", "connected",
    "rank", "full_rank", "m_rows", "m_integral", "cover_exists", "cover_witness",
)


class Finding(NamedTuple):
    kind: str
    key: str
    detail: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "key": self.key, **self.detail}


def _case(m: BiadjacencyMatrix) -> str:
    if m.n == 1:
        return "other"
    if m.n <= m.k + 1:
        return "gamma2"
    if m.n == m.k + 2:
        return "gamma4-unique-form" if is_unique_form(m) else "gamma3"
    return "other"


_CASE_GAMMA = {"gamma2": 2, "gamma3": 3, "gamma4-unique-form": 4}


def record_findings(record: dict) -> list[Finding]:
    """Every finding of a class, read off its record (the fields of
    ``SCAN_RECORD_FIELDS``).  The obstruction finding comes last."""
    key, gamma, case = record["key"], record["gamma"], record["case"]
    findings: list[Finding] = []
    expected = _CASE_GAMMA.get(case)
    if expected is not None and gamma != expected:
        findings.append(Finding("classification", key,
                                {"case": case, "gamma": gamma, "expected": expected}))
    if gamma > record["conj_bound"]:
        findings.append(Finding("conjecture-bound", key,
                                {"gamma": gamma, "bound": record["conj_bound"]}))
    order = record["order_bound"]
    if order is not None and gamma > order:
        findings.append(Finding("order-bound", key,
                                {"gamma": gamma, "bound": order}))
    if record["full_rank"] and record["cover_exists"]:
        detail = {"rank": record["rank"], "m_rows": record["m_rows"]}
        if record["k"] == 1:
            detail["note"] = ("degenerate 1-regular family: the"
                              " obstruction argument needs k >= 2")
        findings.append(Finding("obstruction", key, detail))
    return findings


def class_record(m: BiadjacencyMatrix, key: str | None = None) -> dict:
    """Evaluate one class: its complete record, as ``scan`` writes it."""
    n, k = m.n, m.k
    key = key if key is not None else canonical_key(m)
    bg = to_graph(m)
    record = {"key": key, "n": n, "k": k, "gamma": gamma_value(bg.graph),
              "conj_bound": conjectured_kreg_bound(n, k),
              "order_bound": kreg_order_bound(n, k) if n > max(k, 1) else None,
              "case": _case(m), "connected": is_connected(bg.graph),
              **obstruction_report(m)._asdict()}
    if record["cover_witness"] is not None:
        record["cover_witness"] = list(record["cover_witness"])
    return record
