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
member (Lubiw 1987, "Doubly lexical orderings of matrices").  A scan
compares every class against the conjectured bound 2*ceil(n/k) and the
order bound 2r, classifies the n = k + 2 structure, and reports
violations as findings instead of asserting them away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .criteria import conjectured_kreg_bound, kreg_order_bound
from .domination import GammaCache, gamma_value
from .errors import CapacityError, FindingError, ParseError, PreconditionError
from .graphs import BipartiteGraph, Graph, is_connected

SCAN_CAP = 7
SCAN_CAP_LARGE = 8


@dataclass(frozen=True)
class BiadjacencyMatrix:
    """n x n 0/1 matrix with every row and column summing to k.

    ``rows[i]`` is a column bitmask (bit j set iff entry (i, j) is 1).
    """

    n: int
    k: int
    rows: tuple[int, ...]

    def __post_init__(self):
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


def parse_biadjacency(text: str) -> BiadjacencyMatrix:
    """n lines of n characters from {0,1}; blanks and '#' comments ignored."""
    rows01 = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise ParseError(f"line {lineno}: characters other than 0/1", offset=lineno)
        rows01.append(line)
    if not rows01:
        raise ParseError("empty biadjacency input")
    n = len(rows01[0])
    if any(len(r) != n for r in rows01) or len(rows01) != n:
        raise ParseError(f"matrix is not square ({len(rows01)} rows, width {n})")
    rows = tuple(sum((int(c) << j) for j, c in enumerate(r)) for r in rows01)
    k = rows[0].bit_count()
    return BiadjacencyMatrix(n, k, rows)


def unique_form_matrix(n: int) -> BiadjacencyMatrix:
    """All ones minus n/2 disjoint 2x2 zero blocks along the diagonal."""
    if n < 2 or n % 2:
        raise PreconditionError("the block form needs an even order >= 2")
    full = (1 << n) - 1
    rows = tuple(full ^ (0b11 << (2 * (i // 2))) for i in range(n))
    return BiadjacencyMatrix(n, n - 2, rows)


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

def canonical_key(m: BiadjacencyMatrix) -> str:
    """Lexicographically minimal row-sorted matrix over all column permutations.

    Column positions are assigned most-significant bit first; because the
    already-assigned bits quantise every row value, the sorted partial vector
    lower-bounds every completion, which prunes the n! column orders hard.
    Identical columns are expanded once, and states (partial row values plus
    the multiset of unplaced columns) are visited once: a revisit explores
    the same subtree and cannot improve the incumbent.  The key is emitted
    as fixed-width hex row masks, smallest row first, prefixed by the (n, k)
    shape.
    """
    n = m.n
    cols = tuple(sorted(m.column(j) for j in range(n)))
    rows_of = {c: [i for i in range(n) if c >> i & 1] for c in set(cols)}
    best: list[int] | None = None
    visited: set[tuple] = set()
    memo_floor = n - 4  # dedup only near the root, where a hit prunes most

    def descend(partials: list[int], remaining: tuple[int, ...], pos: int):
        nonlocal best
        if pos < 0:
            key = sorted(partials)
            if best is None or key < best:
                best = key
            return
        if pos >= memo_floor:
            # Row-permutation-invariant fingerprint: a row matters only
            # through its partial value and its memberships among unplaced
            # columns.  Automorphic branches collide here and are walked once.
            state = tuple(sorted(
                (partials[r],) + tuple(c >> r & 1 for c in remaining)
                for r in range(n)))
            if state in visited:
                return
            visited.add(state)
        expansions = []
        seen = set()
        bit = 1 << pos
        for t, col in enumerate(remaining):
            if col in seen:
                continue
            seen.add(col)
            grown = partials[:]
            for r in rows_of[col]:
                grown[r] |= bit
            expansions.append((sorted(grown), grown, t))
        expansions.sort(key=lambda e: e[0])
        for bound, grown, t in expansions:
            if best is not None and bound >= best:
                break
            descend(grown, remaining[:t] + remaining[t + 1:], pos - 1)

    descend([0] * n, cols, n - 1)
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

def enumerate_kreg(n: int, k: int, allow_large: bool = False) -> Iterator[BiadjacencyMatrix]:
    """Yield the V-minimal member of every row/column-permutation class,
    in increasing V order, where V(M) is the tuple of row masks, row 0 first.

    Rows are placed in nondecreasing mask order starting from the forced
    minimum row (the k lowest columns), with column-sum feasibility pruning.
    The column condition (Lubiw 1987; Flener et al. 2002) cuts the rest:
    read with row 0 as the most significant bit, column j must not be
    smaller than column j + 1.  A bitmask of adjacent column pairs still
    tied over the placed rows makes it a prefix test: a row that sets bit
    j + 1 but not bit j of a tied pair is rejected.  No class is lost, because its V-minimal member

    - has nondecreasing rows,
    - has first row (1 << k) - 1,
    - has column j >= column j + 1 for every j, since swapping the two
      would lower the first row where they differ.

    Generation runs in increasing V order, so that member is the first of
    its class to appear.  It is the only matrix whose canonical key is the
    encoding of its own rows, which is how duplicates are dropped.  Capped
    at n <= 7 unless explicitly allowed up to 8.
    """
    cap = SCAN_CAP_LARGE if allow_large else SCAN_CAP
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n")
    if n > cap:
        raise CapacityError(
            f"enumeration capped at n <= {cap}"
            + ("" if allow_large else " (pass allow_large for n = 8)"))

    candidates = [
        sum(1 << j for j in combo) for combo in combinations(range(n), k)
    ]
    candidates.sort()
    first = (1 << k) - 1

    def extend(rows: list[int], counts: list[int], start: int, tied: int):
        # bit j of ``tied``: columns j and j + 1 agree on every placed row
        if len(rows) == n:
            matrix = BiadjacencyMatrix(n, k, tuple(rows))
            if canonical_key(matrix) == encode_key(n, k, rows):
                yield matrix
            return
        remaining = n - len(rows) - 1
        for idx in range(start, len(candidates)):
            row = candidates[idx]
            if (row >> 1) & ~row & tied:
                continue
            ok = True
            for j in range(n):
                c = counts[j] + (row >> j & 1)
                if c > k or k - c > remaining:
                    ok = False
                    break
            if not ok:
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

def _twin_structure(m: BiadjacencyMatrix) -> str:
    """'gamma4' when every row's two non-neighbours have identical columns."""
    cols = [m.column(j) for j in range(m.n)]
    for row in m.rows:
        b1, b2 = (j for j in range(m.n) if not row >> j & 1)
        if cols[b1] != cols[b2]:
            return "gamma3"
    return "gamma4"


def classify_k_plus_2(m: BiadjacencyMatrix, cache: GammaCache | None = None) -> str:
    """Classify an n = k + 2 instance and cross-check gamma.

    Returns "gamma4-form" when every row's pair of non-neighbours have equal
    neighbourhoods (then gamma must be 4), "gamma3-form" otherwise (gamma
    must be 3).  A mismatch with the exact solver is raised as a finding.
    """
    if m.n != m.k + 2:
        raise PreconditionError("classification applies only at n = k + 2")
    structure = _twin_structure(m)
    expected = 4 if structure == "gamma4" else 3
    gamma = gamma_value(to_graph(m).graph, cache)
    if gamma != expected:
        raise FindingError(
            f"n=k+2 classification expected gamma {expected}, solver found {gamma}",
            record={"key": canonical_key(m), "expected": expected, "gamma": gamma},
        )
    return "gamma4-form" if structure == "gamma4" else "gamma3-form"


def is_unique_form(m: BiadjacencyMatrix) -> bool:
    """True iff some row/column permutation yields all ones minus disjoint
    2x2 zero blocks.

    Checked structurally: rows pair up into identical twins, the twin pairs'
    zero columns tile the column set disjointly, and columns pair up the
    same way.  Odd orders (and any shape other than n = k + 2) are False,
    the form does not exist there.
    """
    if m.n != m.k + 2 or m.n % 2:
        return False
    groups: dict[int, int] = {}
    for row in m.rows:
        groups[row] = groups.get(row, 0) + 1
    if any(c != 2 for c in groups.values()):
        return False
    full = (1 << m.n) - 1
    zero_union = 0
    for row in groups:
        zeros = full ^ row
        if zeros & zero_union:
            return False
        zero_union |= zeros
    if zero_union != full:
        return False
    col_groups: dict[int, int] = {}
    for j in range(m.n):
        col = m.column(j)
        col_groups[col] = col_groups.get(col, 0) + 1
    return all(c == 2 for c in col_groups.values())


# ---------------------------------------------------------------------------
# scan driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    key: str
    n: int
    k: int
    gamma: int
    conj_bound: int
    order_bound: int | None
    case: str
    connected: bool

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "n": self.n,
            "k": self.k,
            "gamma": self.gamma,
            "conj_bound": self.conj_bound,
            "order_bound": self.order_bound,
            "case": self.case,
            "connected": self.connected,
        }


@dataclass
class Finding:
    kind: str
    key: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "key": self.key, **self.detail}


@dataclass
class ScanReport:
    n: int
    k: int
    records: list[ScanRecord]
    findings: list[Finding]

    @property
    def class_count(self) -> int:
        return len(self.records)

    @property
    def max_gamma(self) -> int:
        return max((r.gamma for r in self.records), default=0)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "classes": self.class_count,
            "max_gamma": self.max_gamma,
            "connected_classes": sum(r.connected for r in self.records),
            "findings": len(self.findings),
        }


def _case(m: BiadjacencyMatrix) -> str:
    if m.n == 1:
        return "other"
    if m.n <= m.k + 1:
        return "gamma2"
    if m.n == m.k + 2:
        return "gamma4-unique-form" if _twin_structure(m) == "gamma4" else "gamma3"
    return "other"


_CASE_GAMMA = {"gamma2": 2, "gamma3": 3, "gamma4-unique-form": 4}


def record_findings(m: BiadjacencyMatrix, record: dict) -> list[Finding]:
    """Every finding of class ``m``, read off its record (the fields of
    ``ScanRecord.to_json``), so a stored record gives the same findings as
    a fresh evaluation."""
    key, gamma, case = record["key"], record["gamma"], record["case"]
    findings: list[Finding] = []
    expected = _CASE_GAMMA.get(case)
    if expected is not None and gamma != expected:
        findings.append(Finding("classification", key,
                                {"case": case, "gamma": gamma, "expected": expected}))
    if case == "gamma4-unique-form" and not is_unique_form(m):
        findings.append(Finding("unique-form", key,
                                {"detail": "gamma4 structure without twin tiling"}))
    if case == "gamma3" and is_unique_form(m):
        findings.append(Finding("unique-form", key,
                                {"detail": "twin tiling classified gamma3"}))
    if gamma > record["conj_bound"]:
        findings.append(Finding("conjecture-bound", key,
                                {"gamma": gamma, "bound": record["conj_bound"]}))
    order = record["order_bound"]
    if order is not None and gamma > order:
        findings.append(Finding("order-bound", key,
                                {"gamma": gamma, "bound": order}))
    return findings


def class_record(m: BiadjacencyMatrix, cache: GammaCache | None = None,
                 key: str | None = None) -> tuple[ScanRecord, list[Finding]]:
    """Evaluate one class: exact gamma, both bounds, structure tag, findings."""
    n, k = m.n, m.k
    key = key if key is not None else canonical_key(m)
    bg = to_graph(m)
    gamma = gamma_value(bg.graph, cache)
    record = ScanRecord(key, n, k, gamma, conjectured_kreg_bound(n, k),
                        kreg_order_bound(n, k) if n > max(k, 1) else None,
                        _case(m), is_connected(bg.graph))
    return record, record_findings(m, record.to_json())


def scan_conjecture(n: int, k: int, cache: GammaCache | None = None,
                    allow_large: bool = False) -> ScanReport:
    """Scan every class at (n, k); violations become findings, never asserts."""
    records: list[ScanRecord] = []
    findings: list[Finding] = []
    for m in enumerate_kreg(n, k, allow_large=allow_large):
        record, found = class_record(m, cache, key=encode_key(n, k, m.rows))
        records.append(record)
        findings.extend(found)
    records.sort(key=lambda r: r.key)
    return ScanReport(n, k, records, findings)
