"""k-regular bipartite enumeration: completeness against an independent
orbit quotient, canonical keys, classification, and the class records."""

import hashlib
import random
from itertools import combinations, permutations, product

import pytest

from domdensity import enumeration
from domdensity.cli import load_graph_text
from domdensity.domination import gamma_value
from domdensity.enumeration import (
    SCAN_RECORD_FIELDS,
    BiadjacencyMatrix,
    Finding,
    canonical_key,
    class_record,
    encode_key,
    enumerate_kreg,
    is_unique_form,
    record_findings,
    to_graph,
)
from domdensity.errors import CapacityError, ParseError, PreconditionError
from domdensity.graphs import bipartition
from domdensity.rankcheck import obstruction_report
from conftest import BLOCK6_ROWS, RANK6_ROWS
from support import gamma_brute, unique_form_matrix

# (n, k) -> (class count, sha256 of the sorted canonical keys joined by
# newlines), taken from the generator that canonically keyed every
# row-sorted matrix and kept the first of each key; (8, 2) and (8, 5) from
# the column-ordered generator that fully keyed every complete matrix;
# (8, 3) from the self-minimality test whose search bounded a node by its
# sorted placed bits alone, before the unplaced ones entered the bound.
PINNED_CLASSES = {
    (1, 1): (1, "c5752c93158aa0bc87f4665057b3d30a36b996345fc4250a69368f3ce46277ce"),
    (2, 1): (1, "86d823ee18a160103c9b2de0f95d9cd6d0cc7ae9fab221f447cc8ca0b91d5168"),
    (2, 2): (1, "3f962b36b345273925f9d7514d8c249aae33ac4ff9a419da85303abab3bde36f"),
    (3, 1): (1, "c4598f5a40848e1a7e610ccd8230e07fe4de2e0680d699e8cb71896b6c9b3b5f"),
    (3, 2): (1, "653bd95e28fb7bbf9e38a9866c1a0efc0b2b2d95f84d7d344be28ddd6696d166"),
    (3, 3): (1, "e1366526be361f15028bf00e78a8b297936b801278f1d3d03b674f62afeb2730"),
    (4, 1): (1, "3dc9cca76d81f5e32b1e13a76ed4a6443a0256af2a2ef2cad7c1f41323c5453a"),
    (4, 2): (2, "cc1f12add2eadf2516e59b908f97a6bcc5fdea1cb47ddeb820149e40334e2902"),
    (4, 3): (1, "77fba0737e59a34bca4beb36dae4f72c3d3c2212dd6c374def66f4bedc42de07"),
    (4, 4): (1, "e8fc62553ff921d2188b724f7f2e148356071b86cd0b27a7f4132923ba53cafb"),
    (5, 1): (1, "d4286ec8fb09945a6d113517df7d9f5ca9fa955d3584c75d8afb5605347e6ae5"),
    (5, 2): (2, "da584fd1a5446b54a03637ff7a7b47fc423a61570f6a3124bd2dcde486e03865"),
    (5, 3): (2, "86077b78de018bd961e1f07158bd761ee7ce06ae5a5851096ac57b5233b35f05"),
    (5, 4): (1, "8df1d306517101fc07113261a28d653b42e3eabb646cb04de8252b7cbd152dd3"),
    (5, 5): (1, "be735a53dd8b41d7c7acbf99d07b8a21f0c3c200165a17978bbd60f9e3bbde89"),
    (6, 1): (1, "09c77224e19fbf6bd427e42fe1ee809d6572a24ecb5667af0774329dc6e62b0d"),
    (6, 2): (4, "d3554288e987418045061960ef91223afe00097f60edaff970b84d780d18c95a"),
    (6, 3): (7, "111cfec252ee6452a253eaffbe8b2bf2f2ace7ba07d0e488a3c0869230cc71a2"),
    (6, 4): (4, "189c678bedb6ba4f7b43af0248daa583e8de644532cc8ca51d09524106b2f2ba"),
    (6, 5): (1, "02403afd6465697d3b87102ab4700eafeb56d21df7758b52f04a7310cb3165ed"),
    (6, 6): (1, "273691739ebc53fa41d34dd99187b331a87b08f7b7f901273614a93dc760a520"),
    (7, 1): (1, "4bebce252c1f67d06a3a0bdefea3ba28f86782e6d8d16795e1cfcca6872184ab"),
    (7, 2): (4, "1e78486c2245ef1323b127aee611ecaa1703c1d0ba9b6e3461eeb15f29143e78"),
    (7, 3): (16, "8bf1409d9e0d3875ed0daa407023d9fb121343218b1b4ef0f8288889a587ad71"),
    (7, 4): (16, "c58499bb3d7396cb214f8a108ace727b6bbfad26553a68c6c023c1ccb127fa10"),
    (7, 5): (4, "7a74ad490cf195f65414164cb2e08342fe695ea9c9fa07a40fa954c54a0636a9"),
    (7, 6): (1, "0b257c0de7908bad8053658c5c4cbfb0159b312211132cb98e3e4888e585f990"),
    (7, 7): (1, "4484aed9b5d6272960c0434a62ee44ee68ac5dc0ac59945485a7d4ec446fabca"),
    (8, 2): (7, "1dd721db290db2d7ff9eb54c3e80b17af6893ac963a837193ed8cc025e4609a7"),
    (8, 3): (51, "35e82abd67eaf55502f4151c6aa984dff4f7fca11b952a9ed647f4dbc23450f8"),
    (8, 5): (51, "be3ae6d33eb58dc3e49f20e4d0567f378691dd0aab987ee40401a66a3949b39a"),
    (8, 6): (7, "64e37d4eb1fac22a87a3b6e854c9576aa1a1d00f5cef32aae779dcddd968e933"),
}


def _orbit_class_count(n: int, k: int) -> int:
    """Independent oracle: enumerate every matrix with the given row and
    column sums (ordered rows) and count orbits under adjacent row and
    column transpositions by BFS."""
    row_masks = [sum(1 << j for j in combo) for combo in combinations(range(n), k)]

    matrices = []

    def build(rows, counts):
        if len(rows) == n:
            matrices.append(tuple(rows))
            return
        remaining = n - len(rows) - 1
        for mask in row_masks:
            ok = True
            for j in range(n):
                c = counts[j] + (mask >> j & 1)
                if c > k or k - c > remaining:
                    ok = False
                    break
            if not ok:
                continue
            for j in range(n):
                counts[j] += mask >> j & 1
            rows.append(mask)
            build(rows, counts)
            rows.pop()
            for j in range(n):
                counts[j] -= mask >> j & 1

    build([], [0] * n)

    def swap_cols(rows, j):
        out = []
        for r in rows:
            bj, bj1 = r >> j & 1, r >> (j + 1) & 1
            r = r & ~(1 << j) & ~(1 << (j + 1)) | (bj << (j + 1)) | (bj1 << j)
            out.append(r)
        return tuple(out)

    seen = set()
    classes = 0
    universe = set(matrices)
    for start in matrices:
        if start in seen:
            continue
        classes += 1
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            neighbours = []
            for i in range(n - 1):
                nxt = list(cur)
                nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
                neighbours.append(tuple(nxt))
            for j in range(n - 1):
                neighbours.append(swap_cols(cur, j))
            for nxt in neighbours:
                if nxt not in seen:
                    assert nxt in universe
                    seen.add(nxt)
                    stack.append(nxt)
    return classes


def _column_permuted(rows, n, cp):
    """Rows of the matrix whose column j is column cp[j] of ``rows``."""
    return tuple(sum(((row >> cp[j]) & 1) << j for j in range(n)) for row in rows)


def _sorted_members(rows, n):
    """Every member of the class of ``rows``, each as its sorted rows."""
    return {tuple(sorted(_column_permuted(rows, n, cp)))
            for cp in permutations(range(n))}


def _twin_tiled(m: BiadjacencyMatrix) -> bool:
    """Oracle for ``is_unique_form`` at n = k + 2: every row's two zero
    columns are identical columns."""
    cols = [m.column(j) for j in range(m.n)]
    for row in m.rows:
        b1, b2 = (j for j in range(m.n) if not row >> j & 1)
        if cols[b1] != cols[b2]:
            return False
    return True


def _decode_key(key: str, n: int) -> tuple[int, ...]:
    width = (n + 3) // 4
    hexrows = key.split(".", 2)[2]
    return tuple(int(hexrows[i:i + width], 16)
                 for i in range(0, len(hexrows), width))


class TestMatrixType:
    def test_validates_row_and_column_sums(self):
        with pytest.raises(ValueError, match="^row 0 sums to 1, expected 2$"):
            BiadjacencyMatrix(3, 2, (0b001, 0b011, 0b110))
        with pytest.raises(ValueError, match="^column 0 sums to 3, expected 2$"):
            BiadjacencyMatrix(4, 2, (0b0011, 0b0011, 0b0011, 0b1100))

    def test_validates_degree_and_shape(self):
        for n, k, rows, message in [
            (2, 3, (0b11, 0b11), "need 1 <= k <= n"),
            (2, 0, (0b00, 0b00), "need 1 <= k <= n"),
            (2, 1, (0b01,), "row count does not match order"),
            (2, 1, (0b100, 0b01), "row 0 references columns >= n"),
        ]:
            with pytest.raises(ValueError) as exc:
                BiadjacencyMatrix(n, k, rows)
            assert str(exc.value) == message

    def test_records_are_immutable(self, rank6_matrix):
        for record, field in ((rank6_matrix, "k"),
                              (obstruction_report(rank6_matrix), "rank"),
                              (Finding("obstruction", "key", {}), "kind")):
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_parse_round_trip(self, rank6_matrix):
        text = rank6_matrix.to_text()
        assert load_graph_text(text) == to_graph(rank6_matrix).graph
        assert load_graph_text("# comment\n\n" + text) == to_graph(rank6_matrix).graph

    # A line that is not all 0/1 makes the text graph6, not a matrix.
    def test_parse_rejects_bad_characters(self):
        with pytest.raises(ParseError, match=r"^invalid graph6 byte '0' \(at offset 0\)$"):
            load_graph_text("01\n0x\n")

    def test_parse_rejects_non_square(self):
        with pytest.raises(ParseError):
            load_graph_text("01\n10\n01\n")

    def test_unique_form_matrix_shape(self):
        m = unique_form_matrix(6)
        assert m.rows == BLOCK6_ROWS
        with pytest.raises(PreconditionError):
            unique_form_matrix(5)

    def test_to_graph_sides(self, rank6_matrix):
        bg = to_graph(rank6_matrix)
        assert bg.size_a == bg.size_b == 6
        assert bg.graph.has_edge(0, 6) == bool(rank6_matrix.entry(0, 0))


class TestCanonicalKey:
    def test_invariant_under_permutations(self, rank6_matrix):
        rng = random.Random(83)
        base = canonical_key(rank6_matrix)
        for _ in range(25):
            rp = list(range(6))
            cp = list(range(6))
            rng.shuffle(rp)
            rng.shuffle(cp)
            rows = tuple(
                sum(((rank6_matrix.rows[rp[i]] >> cp[j]) & 1) << j for j in range(6))
                for i in range(6))
            assert canonical_key(BiadjacencyMatrix(6, 3, rows)) == base

    def test_distinct_classes_get_distinct_keys(self):
        classes = list(enumerate_kreg(4, 2))
        keys = {canonical_key(m) for m in classes}
        assert len(keys) == len(classes) == 2

    def test_all_ones_key_is_permutation_free(self):
        m = BiadjacencyMatrix(3, 3, (0b111,) * 3)
        assert canonical_key(m) == "3.3.777"

    def test_exhaustive_against_min_over_all_permutations(self):
        # small enough to brute force the definition directly
        for m in enumerate_kreg(4, 2):
            best = None
            for cp in permutations(range(4)):
                rows = sorted(
                    sum(((row >> cp[j]) & 1) << j for j in range(4))
                    for row in m.rows)
                if best is None or rows < best:
                    best = rows
            assert canonical_key(m) == "4.2." + "".join(f"{r:01x}" for r in best)

    def test_below_against_min_over_all_permutations(self):
        # every (4,2) matrix, then random column permutations of every
        # representative with n <= 6; sorting the rows of each input stands
        # for any row permutation
        inputs = {tuple(sorted(rows)) for rows in product(
            [r for r in range(16) if r.bit_count() == 2], repeat=4)
            if all(sum(r >> j & 1 for r in rows) == 2 for j in range(4))}
        inputs = [(4, 2, rows) for rows in sorted(inputs)]
        rng = random.Random(61)
        for n in range(1, 7):
            for k in range(1, n + 1):
                for m in enumerate_kreg(n, k):
                    for _ in range(3):
                        cp = list(range(n))
                        rng.shuffle(cp)
                        inputs.append(
                            (n, k, tuple(sorted(_column_permuted(m.rows, n, cp)))))
        assert len(inputs) > 100
        minimal = 0
        for n, k, rows in inputs:
            members = _sorted_members(rows, n)
            key = canonical_key(BiadjacencyMatrix(n, k, rows), below=rows)
            if rows == min(members):
                minimal += 1
                assert key == encode_key(n, k, rows)
            else:
                found = _decode_key(key, n)
                assert found in members and found < rows, (rows, found)
        assert 0 < minimal < len(inputs)

    @pytest.mark.parametrize("k", [2, 5])
    def test_unseeded_against_min_over_all_permutations_at_7(self, k):
        # random row and column permutations of every (7, k) class against
        # the least sorted rows over all 5,040 column orders, built from
        # column memberships (under half the time of ``_sorted_members``)
        rng = random.Random(70 + k)
        for m in enumerate_kreg(7, k):
            rows_of = [[i for i in range(7) if m.column(j) >> i & 1]
                       for j in range(7)]
            best = None
            for cp in permutations(range(7)):
                rows = [0] * 7
                for j in range(7):
                    for i in rows_of[cp[j]]:
                        rows[i] |= 1 << j
                rows.sort()
                if best is None or rows < best:
                    best = rows
            for _ in range(4):
                rp = rng.sample(range(7), 7)
                cp = rng.sample(range(7), 7)
                rows = _column_permuted([m.rows[i] for i in rp], 7, cp)
                assert canonical_key(BiadjacencyMatrix(7, k, rows)) == \
                    encode_key(7, k, best), rows


class TestEnumerate:
    def test_single_class_cases(self):
        assert len(list(enumerate_kreg(3, 2))) == 1  # the 6-cycle
        for k in range(1, 7):
            classes = list(enumerate_kreg(k, k))
            assert len(classes) == 1
            assert classes[0].rows == ((1 << k) - 1,) * k

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6)
                                     for k in range(1, n + 1)])
    def test_class_counts_match_orbit_oracle(self, n, k):
        ours = len(list(enumerate_kreg(n, k)))
        assert ours == _orbit_class_count(n, k)

    def test_each_self_minimality_decision_against_min_over_all_permutations(
            self, monkeypatch):
        # every complete matrix the direct generator tests, on every cell
        # with n <= 6, sparse ones included: kept iff its rows are the least
        # sorted rows over its class's column orders.  Only the direct
        # generator seeds the search; the complement route keys unseeded.
        decisions = []

        def recorded(m, below=None):
            key = canonical_key(m, below=below)
            decisions.append((tuple(below), key == encode_key(m.n, m.k, below)))
            return key

        monkeypatch.setattr(enumeration, "canonical_key", recorded)
        for n in range(1, 7):
            for k in range(1, n + 1):
                start = len(decisions)
                kept = [m.rows for m in enumeration._enumerate_direct(n, k)]
                assert [rows for rows, keep in decisions[start:] if keep] == kept
        for rows, keep in decisions:
            n = len(rows)
            assert keep == (rows == min(_sorted_members(rows, n))), rows
        rejected = sum(not keep for _, keep in decisions)
        assert 0 < rejected < len(decisions)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9)
                                     for k in range(1, n) if 2 * k < n])
    def test_sparse_cell_matches_the_direct_generator(self, n, k):
        # a sparse cell goes through its complement; the direct generator is
        # the oracle for its members and their order, and so for its keys,
        # which encode a member's rows
        assert list(enumerate_kreg(n, k)) == list(enumeration._enumerate_direct(n, k))

    def test_capacity_guard_and_override(self):
        with pytest.raises(CapacityError, match=r"^enumeration capped at n <= 8$"):
            list(enumerate_kreg(9, 3))
        assert len(list(enumerate_kreg(8, 8))) == 1

    @pytest.mark.parametrize("n,k", sorted(PINNED_CLASSES))
    def test_representatives_are_column_ordered_and_pinned(self, n, k):
        classes = list(enumerate_kreg(n, k))
        assert [m.rows for m in classes] == sorted(m.rows for m in classes)
        for m in classes:
            # columns read with row 0 as the most significant bit
            cols = [tuple(m.entry(i, j) for i in range(n)) for j in range(n)]
            assert all(a >= b for a, b in zip(cols, cols[1:])), m.rows
        keys = [canonical_key(m) for m in classes]
        assert keys == [encode_key(n, k, m.rows) for m in classes]
        digest = hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()
        assert (len(keys), digest) == PINNED_CLASSES[(n, k)]

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8)
                                     for k in range(1, n)] + [(8, 2), (8, 6)])
    def test_complement_is_a_bijection_of_classes(self, n, k):
        # complementing every entry maps the classes at (n, k) one to one
        # onto the classes at (n, n - k); both sides come from the direct
        # generator, since enumerate_kreg routes a sparse cell through this
        # very map
        full = (1 << n) - 1
        classes = list(enumeration._enumerate_direct(n, k))
        complements = {
            canonical_key(BiadjacencyMatrix(n, n - k, tuple(full ^ r for r in m.rows)))
            for m in classes}
        assert len(complements) == len(classes)
        assert complements == {
            encode_key(n, n - k, m.rows)
            for m in enumeration._enumerate_direct(n, n - k)}

    def test_worked_example_class_is_enumerated(self, rank6_matrix):
        keys = {canonical_key(m) for m in enumerate_kreg(6, 3)}
        assert canonical_key(rank6_matrix) in keys


class TestKPlus2Structure:
    def test_block_form_classifies_gamma4(self, block6_matrix):
        record = class_record(block6_matrix)
        assert record["case"] == "gamma4-unique-form" and record["gamma"] == 4
        assert record_findings(record) == []
        assert is_unique_form(block6_matrix)

    def test_5_3_classes_are_gamma3(self):
        for m in enumerate_kreg(5, 3):
            record = class_record(m)
            assert record["case"] == "gamma3" and record["gamma"] == 3
            assert record_findings(record) == []
            assert gamma_brute(to_graph(m).graph) == 3
            assert not is_unique_form(m)

    def test_case_is_other_off_the_shape(self, rank6_matrix):
        # n = 6 is neither k + 1 nor k + 2 for k = 3
        assert class_record(rank6_matrix)["case"] == "other"

    def test_unique_form_false_outside_shape(self, rank6_matrix):
        assert not is_unique_form(rank6_matrix)  # n is not k + 2
        assert not is_unique_form(BiadjacencyMatrix(3, 1, (1, 2, 4)))  # odd order

    def test_unique_form_agrees_with_twin_oracle(self):
        # every class with n = k + 2 and n <= 8, then randomly permuted members
        classes = [m for n in range(3, 9) for m in enumerate_kreg(n, n - 2)]
        assert len(classes) == 20
        for m in classes:
            assert is_unique_form(m) == _twin_tiled(m), m.rows
        rng = random.Random(18)
        for _ in range(1000):
            m = rng.choice(classes)
            rp, cp = list(range(m.n)), list(range(m.n))
            rng.shuffle(rp)
            rng.shuffle(cp)
            member = BiadjacencyMatrix(
                m.n, m.k, _column_permuted([m.rows[i] for i in rp], m.n, cp))
            assert is_unique_form(member) == _twin_tiled(member) == is_unique_form(m)

    def test_unique_form_at_8(self):
        m = unique_form_matrix(8)
        assert is_unique_form(m)
        record = class_record(m)
        assert record["case"] == "gamma4-unique-form" and record["gamma"] == 4
        assert record_findings(record) == []


class TestScan:
    def test_scan_6_4_unique_gamma4_class(self, block6_matrix):
        classes = list(enumerate_kreg(6, 4))
        records = [class_record(m) for m in classes]
        gamma4 = [r for r in records if r["gamma"] == 4]
        assert len(gamma4) == 1
        assert gamma4[0]["case"] == "gamma4-unique-form"
        assert gamma4[0]["key"] == canonical_key(block6_matrix)
        assert not [f for r in records for f in record_findings(r)]

    def test_scan_6_3_includes_worked_example(self, rank6_matrix):
        records = [class_record(m) for m in enumerate_kreg(6, 3)]
        assert max(r["gamma"] for r in records) == 4
        key = canonical_key(rank6_matrix)
        record = next(r for r in records if r["key"] == key)
        assert record["gamma"] == 4 and record["conj_bound"] == 4
        assert record["connected"]

    def test_scan_k_equals_n(self):
        for k in (2, 3, 4):
            records = [class_record(m) for m in enumerate_kreg(k, k)]
            assert len(records) == 1
            assert records[0]["gamma"] == 2
            assert records[0]["case"] == "gamma2"

    def test_record_schema(self):
        payload = class_record(next(enumerate_kreg(4, 2)))
        assert list(payload) == ["key", "n", "k", "gamma", "conj_bound",
                                 "order_bound", "case", "connected",
                                 "rank", "full_rank", "m_rows", "m_integral",
                                 "cover_exists", "cover_witness"]
        assert list(payload) == list(SCAN_RECORD_FIELDS)

    def test_order_bound_none_at_n_equals_k(self):
        assert class_record(next(enumerate_kreg(3, 3)))["order_bound"] is None

    def test_records_sorted_and_deterministic(self):
        a = [class_record(m) for m in enumerate_kreg(5, 2)]
        b = [class_record(m) for m in enumerate_kreg(5, 2)]
        assert [r["key"] for r in a] == sorted(r["key"] for r in a)
        assert a == b

    def test_record_findings_reports_misclassification(self, block6_matrix):
        # the solver cannot be made to lie, so hand record_findings a record
        # whose gamma contradicts its case
        record = class_record(block6_matrix)
        assert record["case"] == "gamma4-unique-form"
        findings = record_findings({**record, "gamma": 3})
        assert [(f.kind, f.key, f.detail) for f in findings] == [
            ("classification", record["key"],
             {"case": "gamma4-unique-form", "gamma": 3, "expected": 4})]
