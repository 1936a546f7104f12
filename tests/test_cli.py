"""Command-line surface: formats, exit statuses, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import domdensity
from domdensity import cli, enumeration, transform
from domdensity.cli import (
    EXIT_CAPACITY,
    EXIT_FINDING,
    EXIT_INPUT,
    EXIT_OK,
    load_graph_text,
    main,
)
from domdensity.domination import _Search
from domdensity.errors import CapacityError, ParseError
from domdensity.graphs import MAX_VERTICES, emit_graph6
from conftest import RANK6_ROWS
from support import connected_bipartite_graphs, cycle_graph, path_graph, star

EMPTY = hashlib.sha256(b"").hexdigest()


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.edges"
    path.write_text("0 1\n")
    return str(path)


@pytest.fixture
def k1_file(tmp_path):
    path = tmp_path / "k1.g6"
    path.write_text("@\n")
    return str(path)


# K2 on vertices 0 and 2: vertex 1 is isolated, alone on side B.
@pytest.fixture
def k2_gap_file(tmp_path):
    path = tmp_path / "k2-gap.edges"
    path.write_text("0 2\n")
    return str(path)


@pytest.fixture
def rank6_file(tmp_path, rank6_matrix):
    path = tmp_path / "worked.biadj"
    path.write_text(rank6_matrix.to_text() + "\n")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    return str(path)


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.biadj"
    path.write_text("111\n111\n111\n")
    return str(path)


# Every refusal the reader gives, with its exception type and message; a
# line-oriented format names the line, graph6 the offset in its line.
# BiadjacencyMatrix refuses a matrix whose rows and columns do not all
# sum to row 0's count.
REFUSALS = [
    ("# nothing\n\n", ParseError, "the input holds no graph"),
    ("01\n10\n01\n", ParseError, "matrix is not square (3 rows, width 2)"),
    ("011\n101\n", ParseError, "matrix is not square (2 rows, width 3)"),
    ("".join("0" * i + "1" + "0" * (2048 - i) + "\n" for i in range(2049)),
     CapacityError, f"graph order 4098 exceeds the {MAX_VERTICES}-vertex cap"),
    ("0\n", ValueError, "need 1 <= k <= n"),
    ("10\n00\n", ValueError, "row 1 sums to 0, expected 1"),
    ("10\n10\n", ValueError, "column 0 sums to 2, expected 1"),
    ("0 1\n\n0 1 2\n", ParseError, "line 3: expected 'u v' (at offset 3)"),
    ("0 1\n1 x\n", ParseError, "line 2: non-integer vertex (at offset 2)"),
    ("0 1\n-1 2\n", ParseError, "line 2: negative vertex index (at offset 2)"),
    ("# loop\n2 2\n", ParseError, "line 2: self-loop 2-2 (at offset 2)"),
    ("0 1\n1 4096\n", CapacityError,
     f"graph order 4097 exceeds the {MAX_VERTICES}-vertex cap"),
    (">>graph6<<\n", ParseError, "empty graph6 input (at offset 10)"),
    ("A\u00c8\n", ParseError, "invalid graph6 byte '\u00c8' (at offset 1)"),
    ("~?\n", ParseError, "truncated multi-byte order field (at offset 2)"),
    ("~??A\n", ParseError, "non-minimal multi-byte order encoding (at offset 0)"),
    ("?\n", ParseError, "zero-vertex graphs are not supported (at offset 0)"),
    ("D?\n", ParseError, "truncated adjacency payload (at offset 2)"),
    ("A_?\n", ParseError, "trailing data after graph6 payload (at offset 2)"),
    ("A`\n", ParseError, "nonzero padding bits (at offset 1)"),
    ("~@?@\n", CapacityError, f"graph order 4097 exceeds the {MAX_VERTICES}-vertex cap"),
    ("Cl\n# c\nBw\n", ParseError,
     "line 3: a second graph; graph6 input holds one (at offset 3)"),
    # A parse error in the first line comes before the second-line refusal.
    ("A_x\nBw\n", ParseError, "trailing data after graph6 payload (at offset 2)"),
]


class TestInputDetection:
    def test_autodetects_each_format(self, rank6_matrix):
        assert load_graph_text("0 1\n1 2\n").n == 3
        assert load_graph_text("A_\n").n == 2
        assert load_graph_text(rank6_matrix.to_text()).n == 12
        assert load_graph_text(emit_graph6(star(9))).n == 10
        # graph6 skips comments and blanks, as the format detection does
        c4 = load_graph_text("Cl\n")
        assert load_graph_text("# C4\nCl\n") == c4
        assert load_graph_text("\n  Cl\n") == c4

    def test_crlf_line_ends_read_as_lf(self):
        for text in ("0 1\n1 2\n# c\n", "01\n10\n", "# c\nCl\n"):
            assert load_graph_text(text.replace("\n", "\r\n")) == load_graph_text(text)

    @pytest.mark.parametrize("text, error, message", REFUSALS,
                             ids=[m for _, _, m in REFUSALS])
    def test_each_refusal_is_pinned(self, text, error, message):
        with pytest.raises(error) as exc:
            load_graph_text(text)
        assert type(exc.value) is error and str(exc.value) == message

    # Graph files are UTF-8 whatever the locale: under the C locale without
    # UTF-8 mode, a non-ASCII comment is still read.
    def test_graph_file_is_read_as_utf8_in_the_c_locale(self, tmp_path):
        path = tmp_path / "c4.el"
        path.write_bytes("# C\u2084\n0 1\n1 2\n2 3\n3 0\n".encode("utf-8"))
        proc = _run_cli(["gamma", str(path)], LC_ALL="C", PYTHONUTF8="0",
                        PYTHONCOERCECLOCALE="0")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.startswith("gamma = 2\n")

    # A UTF-8 byte-order mark at the start of a graph file is skipped.
    @pytest.mark.parametrize("text, gamma", [
        ("0 1\n1 2\n", 1), ("Cl\n", 2), ("10\n01\n", 2),
    ], ids=["edge-list", "graph6", "biadjacency"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, text, gamma):
        path = tmp_path / "g.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["gamma", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"gamma = {gamma}\n")


def _run_cli(argv, timeout=60, **env):
    """Run the command line in a fresh interpreter with extra environment."""
    src = str(Path(domdensity.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "domdensity.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, **env, "PYTHONPATH": path})


class TestGamma:
    def test_k2_text(self, k2_file, capsys):
        assert main(["gamma", k2_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma = 1" in out

    def test_worked_example_json(self, rank6_file, capsys):
        assert main(["gamma", rank6_file, "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["gamma"] == 4
        assert record["bipartite"] is True
        assert record["degree_lower_bound"] == 3
        assert record["bipartition_upper_bound"] == 6

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        # A graph6 file holds one graph; the error names the file.
        bad = tmp_path / "bad.g6"
        for text, error in [
            ("A_garbage\n", "trailing data after graph6 payload (at offset 2)"),
            ("Bw\nC~\n", "line 2: a second graph; graph6 input holds one (at offset 2)"),
            ("# nothing\n\n", "the input holds no graph"),
        ]:
            bad.write_text(text)
            assert main(["gamma", str(bad)]) == EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == "" and err == f"input error: {bad}: {error}\n"

    def test_missing_file_exit_2(self):
        assert main(["gamma", "/nonexistent/path.g6"]) == EXIT_INPUT

    # A graph above MAX_VERTICES is refused before its neighbour table is
    # built: an edge list by its largest index, graph6 by its decoded order,
    # a biadjacency matrix (here the identity) by its 2n vertices.
    @pytest.mark.parametrize("fmt, order", [
        ("edge-list", 2_000_001),
        ("graph6", MAX_VERTICES + 1),
        ("biadjacency", MAX_VERTICES + 2),
    ])
    def test_graph_above_the_vertex_cap_exit_3(self, tmp_path, capsys, fmt, order):
        path = tmp_path / "big"
        if fmt == "edge-list":
            path.write_text(f"0 1\n1 {order - 1}\n")
        elif fmt == "graph6":
            groups = -(-order * (order - 1) // 12)
            path.write_text("~" + "".join(chr(63 + (order >> s & 63)) for s in (12, 6, 0))
                            + "?" * groups + "\n")
        else:
            n = order // 2
            path.write_text("".join("0" * i + "1" + "0" * (n - 1 - i) + "\n"
                                    for i in range(n)))
        started = time.perf_counter()
        assert main(["gamma", str(path)]) == EXIT_CAPACITY
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"capacity: {path}: graph order {order} exceeds the"
                       f" {MAX_VERTICES}-vertex cap\n")


class TestCheckVizing:
    def test_k2_pair(self, k2_file, capsys):
        assert main(["check-vizing", k2_file, k2_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "holds: True" in out

    def test_c4_pair_json(self, c4_file, capsys):
        assert main(["check-vizing", c4_file, c4_file, "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["gamma_product"] == 4
        assert record["holds"] and record["density_form_holds"]
        names = {c["name"] for c in record["criteria"]}
        assert names == {"imbalance", "k-regular-threshold"}

    def test_star_pair_reports_fired_criterion(self, tmp_path, capsys):
        path = tmp_path / "star9.g6"
        path.write_text(emit_graph6(star(9)) + "\n")
        assert main(["check-vizing", str(path), str(path),
                     "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["holds"]
        imbalance = next(c for c in record["criteria"] if c["name"] == "imbalance")
        assert imbalance["satisfied"] is True
        assert imbalance["lhs"] == "100/1" and imbalance["rhs"] == "19/1"

    def test_one_value_search_per_graph(self, c4_file, capsys, monkeypatch):
        calls = []
        original = _Search.minimum_size

        def counted(search, seed):
            calls.append(search.n)
            return original(search, seed)

        monkeypatch.setattr(_Search, "minimum_size", counted)
        assert main(["check-vizing", c4_file, c4_file, "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["density_form_holds"] is True
        assert sorted(calls) == [4, 4, 16]

    @pytest.mark.parametrize("g6, note", [
        ("A?", "not applicable: a factor has no edges"),
        ("Bw", "not applicable: a factor is not bipartite"),
    ], ids=["edgeless", "odd-cycle"])
    def test_imbalance_note_says_why_it_does_not_apply(self, tmp_path, c4_file, capsys,
                                                        g6, note):
        factor = tmp_path / "factor.g6"
        factor.write_text(g6 + "\n")
        assert main(["check-vizing", str(factor), c4_file, "--format", "json"]) == EXIT_OK
        criteria = json.loads(capsys.readouterr().out)["criteria"]
        assert criteria[0] == {"name": "imbalance", "satisfied": None, "note": note}

    def test_parse_error_names_the_file(self, tmp_path, k2_file, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n1\n")
        assert main(["check-vizing", k2_file, str(bad)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {bad}: line 2: expected 'u v' (at offset 2)\n"

    def test_capacity_exit_3(self, tmp_path, capsys):
        big = tmp_path / "big.g6"
        big.write_text(emit_graph6(star(80)) + "\n")
        assert main(["check-vizing", str(big), str(big)]) == EXIT_CAPACITY
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "capacity: product order 6561 exceeds the 4096-vertex cap\n"


class TestScan:
    def test_scan_6_3_finds_worked_example(self, rank6_matrix, capsys):
        from domdensity.enumeration import canonical_key
        assert main(["scan", "6", "3", "--format", "json"]) == EXIT_OK
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["max_gamma"] == 4 and summary["findings"] == 0
        keys = {r["key"] for r in lines[:-1]}
        assert canonical_key(rank6_matrix) in keys
        sample = lines[0]
        for field in ("key", "n", "k", "gamma", "conj_bound", "order_bound",
                      "case", "connected", "rank", "cover_exists"):
            assert field in sample

    def test_scan_over_cap_refused(self, capsys):
        assert main(["scan", "9", "3"]) == EXIT_CAPACITY
        assert capsys.readouterr().err == "capacity: enumeration capped at n <= 8\n"

    def test_scan_8_6_needs_no_flag(self, capsys):
        assert main(["scan", "8", "6", "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[-1])
        assert summary["classes"] == 7 and summary["findings"] == 0
        # the output of the generator that keyed every row-sorted matrix
        assert hashlib.sha256(out.encode()).hexdigest() == \
               "89eae5c5b4ce611a417e78f8655e7e561b2c88682e9afaa007458e35fd47029b"

    def test_scan_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "4", "2", "--jobs", "2"])
        assert exc.value.code == EXIT_INPUT
        assert "--jobs" in capsys.readouterr().err

    # Lines a format writes before its first record: the csv header.
    @pytest.mark.parametrize("fmt, head", [("json", 0), ("text", 0), ("csv", 1)])
    def test_each_record_is_written_as_its_class_is_scanned(
            self, tmp_path, monkeypatch, fmt, head):
        self._kill_at_second_class_then_rerun(tmp_path, monkeypatch, "6", "3",
                                              fmt, head)

    # (7, 2) is a sparse cell, enumerated through its complement (7, 5).
    @pytest.mark.parametrize("fmt, head", [("json", 0), ("text", 0), ("csv", 1)])
    def test_each_sparse_record_is_written_as_its_class_is_scanned(
            self, tmp_path, monkeypatch, fmt, head):
        self._kill_at_second_class_then_rerun(tmp_path, monkeypatch, "7", "2",
                                              fmt, head)

    @staticmethod
    def _kill_at_second_class_then_rerun(tmp_path, monkeypatch, n, k, fmt, head):
        argv = ["scan", n, k, "--format", fmt, "--output"]
        full = tmp_path / "full.out"
        assert main(argv + [str(full)]) == EXIT_OK
        part = tmp_path / "part.out"
        first = "".join(full.read_text().splitlines(keepends=True)[:head + 1])
        calls, original = [], cli.class_record

        class Killed(Exception):
            pass

        def killed_at_second_class(*args):
            calls.append(args)
            if len(calls) == 2:
                # The first class is already on disk, complete.
                assert part.read_text() == first
                raise Killed
            return original(*args)

        monkeypatch.setattr("domdensity.cli.class_record", killed_at_second_class)
        with pytest.raises(Killed):
            main(argv + [str(part)])
        monkeypatch.undo()
        assert part.read_text() == first
        # A killed scan is completed by running it again.
        assert main(argv + [str(part)]) == EXIT_OK
        assert part.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("n, k, status", [(9, 3, EXIT_CAPACITY), (5, 0, EXIT_INPUT)])
    def test_refused_scan_leaves_its_output_unchanged(self, tmp_path, capsys,
                                                      n, k, status):
        out = tmp_path / "scan.out"
        assert main(["scan", "5", "2", "--format", "json", "--output", str(out)]) == EXIT_OK
        before = out.read_bytes()
        assert before != b""
        capsys.readouterr()
        assert main(["scan", str(n), str(k), "--output", str(out)]) == status
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == before

    # sha256 of stdout and of stderr, and the exit status, of `scan N K`.
    @pytest.mark.parametrize("n, k, fmt, status, out, err", [
        (4, 1, "json", EXIT_FINDING,
         "9dac85635ed9d9232cf485167821475db3910d249d71959199c38b44e9f4b79a",
         "1424d45d76a864c5f82184fb8c51a6c2c0092664380c8154983ac3a9e5045723"),
        (4, 1, "csv", EXIT_FINDING,
         "188deb59af667bf70667a83ba04c77251f45b597543243bd1b35ab8ca3c1e930",
         "ecfcfa625511c18ec22a77888d31d6f06ee7a26de3206fcb2b2af46631ac55c9"),
        (4, 1, "text", EXIT_FINDING,
         "4b68ac6e242eed4488405998689be7c35426afb30294e7960ad96232f6604add",
         "1424d45d76a864c5f82184fb8c51a6c2c0092664380c8154983ac3a9e5045723"),
        (5, 3, "json", EXIT_OK,
         "2c8173e8d979838e20fed4244f7092c290c76e3faf7ded875adbca3c2a0f3fba", EMPTY),
        (5, 3, "csv", EXIT_OK,
         "fcd2d6066add74d6fd06ae333caa83e6edc0592f6bdef31c711a045074b8e6fd",
         "4bd474527a1cd8bb2b22af16a87cc1978f975b27086152f58c2a0a51093b8f7d"),
        (5, 3, "text", EXIT_OK,
         "f381d8f65d225ec270e5cfa540ad1d70f52f5a04ac8fdf32ff88c6d54513351e", EMPTY),
        (6, 3, "json", EXIT_OK,
         "d8d9477de56c635ea42f1b885c9badb8f8606d42c1de8048afabd8ce912ec443", EMPTY),
        (6, 3, "csv", EXIT_OK,
         "ebb345da0a6f76b01af9c781907c002a74cb5fb2bc9b67d55b032cde0671b672",
         "55d7a5cffb24d40403b660a33771ae6553eb925ca622512317cc5b5c3b6ddeb6"),
        (6, 3, "text", EXIT_OK,
         "b884c195506c3be194001677fe9969b230041f219f2d80c7bef6324693174ac7", EMPTY),
        (6, 4, "json", EXIT_OK,
         "a31f75b865771135a451dd8fa285d3c47c1945ed4aeeb875386bf8e5246e7e4b", EMPTY),
        (6, 4, "csv", EXIT_OK,
         "b4b7f3ca3a2d74f0f073e51b8665c837bc3b585babed7a97dc2ac74e7d8ed021",
         "6c75f77b797fe7290c679d061f17baf31af7ae16276043294bb03fc48af8a80d"),
        (6, 4, "text", EXIT_OK,
         "ecdc5bef0a39198bf95df9e42b8e7203457bbe1962e915557ef4cf6ee217fd7a", EMPTY),
        # sparse cells, enumerated through their complements (7, 5) and
        # (8, 5); the digests are of the direct generator's output
        (7, 2, "json", EXIT_OK,
         "3806b09ad07c0ae0bfa6ba47ec54c176609fdf3046f24ad1d5a8c0013617d0e4", EMPTY),
        (7, 2, "csv", EXIT_OK,
         "81b9344da536a92817bfa2cb18f30368ea86e9c8d7da5424af169ce45ff2a738",
         "d04b88531afd5361f62304a667399dad80c2bc364b28ea1f2c2dd08cdcb7f31c"),
        (7, 2, "text", EXIT_OK,
         "0037521d3e2a7647717604edd845155f4d9144a0f9a6592ef5870e9d7122c607", EMPTY),
        (8, 3, "json", EXIT_OK,
         "b83e4a053729a2a6e506f0ead3ad5943187ee4c55319444a6dc65f8941126016", EMPTY),
        (8, 3, "csv", EXIT_OK,
         "98915da583a4e387482975d0effac33eb4a12cce11f8c2d6e5a95368b10658e3",
         "53c1e72cc926d52ae9abdd4ca999b7cda16193de7266fcc0ec05e7a739d6cc43"),
        (8, 3, "text", EXIT_OK,
         "0e4b023d35da20014aa8dc6b9934d7f9e22766c61d83ac760a789cf3704002a5", EMPTY),
    ])
    def test_scan_output_is_pinned(self, capsys, n, k, fmt, status, out, err):
        assert main(["scan", str(n), str(k), "--format", fmt]) == status
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out
        assert hashlib.sha256(captured.err.encode()).hexdigest() == err
        if (n, k) == (4, 1):
            finding = captured.err.splitlines()[-1]
            assert finding.startswith("FINDING: ") and '"obstruction"' in finding
            assert captured.err.count("FINDING: ") == 1

    def test_each_class_is_evaluated_once(self, capsys, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        findings = counted("record_findings", enumeration.record_findings)
        monkeypatch.setattr(enumeration, "record_findings", findings)
        monkeypatch.setattr(cli, "record_findings", findings)
        monkeypatch.setattr(cli, "class_record",
                            counted("class_record", enumeration.class_record))
        assert main(["scan", "6", "3", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["classes"] == 7
        assert calls == {"record_findings": 7, "class_record": 7}

    def test_scan_csv(self, capsys):
        assert main(["scan", "3", "2", "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("key,n,k,gamma")
        assert len(out) == 2


class TestThresholds:
    def test_table_values(self, capsys):
        assert main(["thresholds", "9", "--format", "json"]) == EXIT_OK
        rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        by_k = {r["k"]: r for r in rows}
        assert by_k[3]["n_threshold"] == 23
        assert by_k[4]["n_threshold"] == 12 and by_k[4]["boundary"]
        assert by_k[4]["differs_from_reference"] == 13
        assert by_k[9]["auto_regime"]

    def test_paper_table_flag(self, capsys):
        assert main(["thresholds", "5", "--paper-table"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "reference=13" in out and "reference=23" in out

    def test_cache_is_accepted_and_ignored(self, tmp_path, capsys):
        cache = tmp_path / "W"
        assert main(["thresholds", "50", "--format", "json", "--cache", str(cache)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 48
        assert not cache.exists()


class TestTransform:
    def test_c4_trace_text(self, c4_file, capsys):
        assert main(["transform", c4_file, "--rho-h", "1/2",
                     "--delta-h", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "satisfied: True at round 1" in out

    # Every minimum dominating set is swept at every order: P17's lex-min
    # witness has no usable side at 2/5, but another minimum set does.
    def test_p17_uses_a_set_past_the_lexmin_witness(self, tmp_path, capsys):
        p17 = tmp_path / "p17.g6"
        p17.write_text(emit_graph6(path_graph(17)) + "\n")
        assert main(["transform", str(p17), "--rho-h", "2/5",
                     "--delta-h", "2"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "side X = A, m* = 4, round bound = 0"
        assert out[-1] == "satisfied: True at round 0"

    # P30's one minimum dominating set and C30's three each have 5 vertices
    # on each side of 15: below the gate 6 at 2/5; at 1/5, m* = 4 on side A,
    # with P30's set or C30's smallest mask, {0, 3, ..., 27}.
    @pytest.mark.parametrize("g, targets", [
        (path_graph(30), [4, 10, 16, 22]),
        (cycle_graph(30), [0, 6, 12, 18]),
    ], ids=["P30", "C30"])
    def test_thirty_vertices_answer(self, tmp_path, capsys, g, targets):
        path = tmp_path / "g30.g6"
        path.write_text(emit_graph6(g) + "\n")
        assert main(["transform", str(path), "--rho-h", "2/5", "--delta-h", "2"]) == EXIT_OK
        assert capsys.readouterr() == ("hypothesis not met: no minimum dominating set"
                                       " yields a usable side proportion\n", "")
        assert main(["transform", str(path), "--rho-h", "1/5", "--delta-h", "2",
                     "--format", "json"]) == EXIT_OK
        out, err = capsys.readouterr()
        trace = json.loads(out)["trace"]
        assert err == "" and trace["satisfied"]
        assert (trace["side_x"], trace["m_star"], trace["targets"]) == ("A", 4, targets)

    @staticmethod
    def _small_graph_digest(tmp_path, capsys, densities, formats):
        """sha256 of the stdout of every connected bipartite graph with
        2 <= n <= 6, in catalogue order, at each density in each format."""
        digest = hashlib.sha256()
        for n in range(2, 7):
            for i, g in enumerate(connected_bipartite_graphs(n)):
                path = tmp_path / f"g{n}_{i}.g6"
                path.write_text(emit_graph6(g) + "\n")
                for rho_h in densities:
                    for fmt in formats:
                        assert main(["transform", str(path), "--rho-h", rho_h,
                                     "--delta-h", "2", "--format", fmt]) == EXIT_OK
                        out, err = capsys.readouterr()
                        assert err == ""
                        digest.update(out.encode())
        return digest.hexdigest()

    def test_small_graph_records_are_pinned(self, tmp_path, capsys):
        assert self._small_graph_digest(
            tmp_path, capsys, ("1/3", "2/5", "1/2", "1"), ("json",)) == \
            "e205c72da78332e648588f452aa8a19cc93647b8df84d2cc1e5c2cb4df38b759"

    # Densities where |X| rho is an integer on sides of 3, 4 and 6 vertices:
    # the gate and m* differ by one there, and the equality note can fire.
    def test_small_graph_boundary_records_are_pinned(self, tmp_path, capsys):
        assert self._small_graph_digest(
            tmp_path, capsys, ("1/4", "2/3", "3/4", "1/6", "5/6"),
            ("json", "text")) == \
            "3bf72294569613347802b78d3fa9fa86ed9facbf87f48c1bdb0653fafcd404f7"

    def test_hypothesis_not_met_still_exit_0(self, tmp_path, capsys):
        k33 = tmp_path / "k33.edges"
        k33.write_text("".join(f"{a} {b}\n" for a in range(3)
                               for b in range(3, 6)))
        assert main(["transform", str(k33), "--rho-h", "1",
                     "--delta-h", "3"]) == EXIT_OK
        assert "hypothesis not met" in capsys.readouterr().out

    def test_with_partner_graph_constructive(self, c4_file, capsys):
        assert main(["transform", c4_file, "--h", c4_file,
                     "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["constructive"]["holds"] is True
        assert record["constructive"]["lhs"] == 12
        assert record["trace"]["satisfied"] is True

    def test_non_bipartite_rejected(self, tmp_path):
        c5 = tmp_path / "c5.edges"
        c5.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
        assert main(["transform", str(c5), "--rho-h", "1/2",
                     "--delta-h", "2"]) == EXIT_INPUT

    def test_csv_rejected_before_solving(self, c4_file, capsys, monkeypatch):
        # Trace rounds are a list of records; a csv cell would hold its repr.
        def load(*args):
            raise AssertionError("csv is refused before any input is read")
        monkeypatch.setattr(cli, "_load_graph", load)
        with pytest.raises(SystemExit) as exc:
            main(["transform", c4_file, "--h", c4_file, "--format", "csv"])
        assert exc.value.code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid choice" in err

    def test_missing_parameters_rejected(self, c4_file):
        assert main(["transform", c4_file]) == EXIT_INPUT

    # --h gives both partner parameters; it is not silently preferred.
    @pytest.mark.parametrize("parameters", [
        ["--rho-h", "1/2", "--delta-h", "9"], ["--rho-h", "1/2"], ["--delta-h", "9"],
    ], ids=" ".join)
    def test_partner_graph_excludes_parameters(self, c4_file, parameters, capsys):
        assert main(["transform", c4_file, "--h", c4_file, *parameters]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("input error: need either --h FILE or both --rho-h"
                       " and --delta-h\n")

    # Every flag error is refused before any input or cache is read: nothing
    # is solved, a cache's torn tail is not cut, and a missing input file is
    # not what is reported.
    @pytest.mark.parametrize("flags, error", [
        (["--rho-h", "1/2", "--delta-h", "-1"], "--delta-h must be at least 0, not -1"),
        (["--h", "@c4", "--rho-h", "1/2"],
         "need either --h FILE or both --rho-h and --delta-h"),
        (["--rho-h", "1/2"], "need either --h FILE or both --rho-h and --delta-h"),
        (["--rho-h", "3/2", "--delta-h", "2"], "--rho-h must lie in (0, 1], not 3/2"),
        (["--rho-h", "1/0", "--delta-h", "2"], "--rho-h 1/0 has a zero denominator"),
        (["--rho-h", "x", "--delta-h", "1"], "--rho-h x is not a fraction p/q"),
    ], ids=["delta-h", "h-and-rho-h", "rho-h-alone", "rho-h-range", "rho-h-zero",
            "rho-h-literal"])
    def test_out_of_range_flag_refused_before_any_solve(self, tmp_path, c4_file,
                                                        capsys, flags, error):
        cache = tmp_path / "F"
        cache.write_bytes(b"Cl 2 3\nCl 2")
        flags = [c4_file if a == "@c4" else a for a in flags]
        for graph in (c4_file, str(tmp_path / "missing.edges")):
            assert main(["transform", graph, *flags, "--cache", str(cache)]) == EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == "" and err == f"input error: {error}\n"
            assert cache.read_bytes() == b"Cl 2 3\nCl 2"

    # The trace runs to the slope bound, round 4847, whose graph would have
    # 4 + 1 * 4847 vertices: refused before any grown graph is built.
    def test_last_round_above_the_vertex_cap_exit_3(self, tmp_path, c4_file, capsys):
        cache = tmp_path / "F"
        started = time.perf_counter()
        assert main(["transform", c4_file, "--rho-h", "49/100", "--delta-h", "100",
                     "--format", "json", "--cache", str(cache)]) == EXIT_CAPACITY
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("capacity: the round-4847 graph's order 4851 exceeds the"
                       f" {MAX_VERTICES}-vertex cap\n")
        assert [line.split()[0] for line in cache.read_text().splitlines()] == ["Cl"]

    # With --h the same refusal comes before the product is solved.  H is
    # K1,50 with a pendant leaf on each spoke (101 vertices, rho(H) = 50/101,
    # Delta(H) = 50), so the 404-vertex product is never solved.
    def test_partner_trace_above_the_vertex_cap_exit_3(self, tmp_path, c4_file):
        spider = tmp_path / "spider.el"
        spider.write_text("".join(f"0 {i}\n{i} {i + 50}\n" for i in range(1, 51)))
        proc = _run_cli(["transform", c4_file, "--h", str(spider), "--format", "json"],
                        timeout=10)
        assert (proc.returncode, proc.stdout) == (EXIT_CAPACITY, "")
        assert proc.stderr == ("capacity: the round-4896 graph's order 4900 exceeds"
                               f" the {MAX_VERTICES}-vertex cap\n")

    # The slope bound is checked, not assumed: a trace whose graph stops
    # growing is a finding that names the bound.
    def test_criterion_unfired_at_the_round_bound_exit_4(self, c4_file, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(transform, "attach_leaves", lambda g, targets: g)
        assert main(["transform", c4_file, "--rho-h", "1/2", "--delta-h", "2",
                     "--format", "json"]) == EXIT_FINDING
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("FINDING: the imbalance criterion did not fire within the"
                       " round bound\n"
                       '{"round": 1, "round_bound": 2}\n')

    # A density gamma / n lies in (0, 1]; "=-1/2" is passed as --rho-h=-1/2.
    @pytest.mark.parametrize("rho_h", ["abc", "1/0", "0", "2", "3/2", "=-1/2"])
    def test_malformed_rho_h_rejected(self, c4_file, rho_h, capsys):
        rho = ["--rho-h" + rho_h] if rho_h.startswith("=") else ["--rho-h", rho_h]
        assert main(["transform", c4_file, *rho, "--delta-h", "2"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error:")

    # rank6 is solved once at round 0; each of rounds 1-4 adds m* = 3 leaves,
    # and only those grown graphs are solved again.  Without a cache no
    # witness pass runs: the sweep reads only gamma.
    GROWN = {15: 1, 18: 1, 21: 1, 24: 1}

    @pytest.mark.parametrize("partner, solves", [
        (["--h", "C5"], {"value": {12: 1, 5: 1, 60: 1, **GROWN},
                         "witness": {}, "sweep": {12: 1}, "hypothesis": {12: 1}}),
        (["--rho-h", "2/5", "--delta-h", "2"],
         {"value": {12: 1, **GROWN}, "witness": {}, "sweep": {12: 1},
          "hypothesis": {12: 1}}),
    ])
    def test_one_solve_per_quantity(self, tmp_path, rank6_file, partner, solves,
                                    capsys, monkeypatch):
        calls = {"value": Counter(), "witness": Counter(), "sweep": Counter(),
                 "hypothesis": Counter()}

        def counted(kind, fn, order):
            def wrapper(*args):
                calls[kind][order(*args)] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(_Search, "minimum_size", counted(
            "value", _Search.minimum_size, lambda search, seed: search.n))
        monkeypatch.setattr(_Search, "lexmin_witness", counted(
            "witness", _Search.lexmin_witness, lambda search, gamma: search.n))
        monkeypatch.setattr(transform, "each_minimum_set", counted(
            "sweep", transform.each_minimum_set, lambda g, gamma, visit: g.n))
        for module in (cli, transform):
            monkeypatch.setattr(module, "evaluate_hypothesis", counted(
                "hypothesis", transform.evaluate_hypothesis,
                lambda bg, rho_h, cache: bg.graph.n))
        c5 = tmp_path / "c5.edges"
        c5.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
        partner = [str(c5) if arg == "C5" else arg for arg in partner]
        assert main(["transform", rank6_file, *partner,
                     "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["trace"]["final_round"] == 4
        assert calls == solves


def test_cache_shared_across_commands(tmp_path, c4_file, capsys):
    cache = tmp_path / "gamma.cache"
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_OK
    first = cache.read_text()
    assert len(first.splitlines()) == 1
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_OK
    assert cache.read_text() == first  # hit, no rewrite


# A `key value` line, as an older log holds it, carries no witness to check:
# right (2) or wrong (1, 3), it is refused and the log is left as it was.
@pytest.mark.parametrize("command", [["gamma"], ["check-vizing", "C4"],
                                     ["transform", "--rho-h", "1/2", "--delta-h", "2"]])
@pytest.mark.parametrize("value", [1, 3, 2])
def test_wrong_cached_value_is_an_input_error(tmp_path, c4_file, capsys,
                                              command, value):
    cache = tmp_path / "gamma.cache"
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_OK
    key, gamma, _witness = cache.read_text().split()
    assert gamma == "2"
    cache.write_text(f"{key} {value}\n")
    before = cache.read_bytes()
    capsys.readouterr()
    name, *rest = command
    argv = [name, c4_file, *[c4_file if a == "C4" else a for a in rest]]
    assert main([*argv, "--cache", str(cache)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {cache}:1: malformed cache line\n"
    assert cache.read_bytes() == before


# P5 cached with the minimal but not minimum mask {0, 2, 4}: the sweep reaches
# a cover of 2 vertices and refuses the cached gamma 3 before any output.
def test_cached_minimal_mask_above_gamma_is_refused_by_transform(tmp_path, capsys):
    p5 = tmp_path / "p5.el"
    p5.write_text("0 1\n1 2\n2 3\n3 4\n")
    cache = tmp_path / "gamma.cache"
    argv = ["transform", str(p5), "--rho-h", "1/2", "--delta-h", "2", "--cache", str(cache)]
    assert main(argv) == EXIT_OK
    key, gamma, witness = cache.read_text().split()
    assert (gamma, witness) == ("2", "9")
    cache.write_text(f"{key} 3 15\n")
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: 3 is not this graph's domination"
                                   " number: 2 vertices dominate it (a wrong gamma"
                                   " cache entry?)\n")
    assert cache.read_text() == f"{key} 3 15\n"


def test_cached_value_above_a_reached_cover_is_an_input_error(tmp_path, capsys):
    # gamma = 3 with witness [0, 1, 3]; a bare value 4 above that cover is
    # refused as it is read, before any solve, and the log stays as it was.
    graph = tmp_path / "g8.edges"
    graph.write_text("0 4\n0 5\n0 7\n1 2\n2 5\n2 6\n2 7\n3 6\n4 5\n4 7\n5 6\n")
    cache = tmp_path / "gamma.cache"
    assert main(["gamma", str(graph), "--cache", str(cache)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("gamma = 3\nwitness = [0, 1, 3]\n")
    key, _value, _witness = cache.read_text().split()
    cache.write_text(f"{key} 4\n")
    before = cache.read_bytes()
    assert main(["gamma", str(graph), "--cache", str(cache)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {cache}:1: malformed cache line\n"
    assert cache.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["scan", "4", "2", "--output", "MISSING/scan.out"],
    ["gamma", "C4", "--cache", "MISSING/gamma.cache"],
    ["scan", "4", "2", "--output", "DIR"],
    ["gamma", "NOT-UTF-8"],
    ["gamma", "C4", "--cache", "NOT-UTF-8"],
])
def test_unopenable_path_is_an_input_error(tmp_path, c4_file, capsys, argv):
    # A file that is not UTF-8 text cannot be read either; the message names
    # the path at fault, the last one on the command line.
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xffCl 2 3\n")
    paths = {"C4": c4_file, "DIR": str(tmp_path), "NOT-UTF-8": str(bad),
             "MISSING/scan.out": str(tmp_path / "missing" / "scan.out"),
             "MISSING/gamma.cache": str(tmp_path / "missing" / "gamma.cache")}
    named = paths[argv[-1]]
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and named in err


@pytest.mark.parametrize("command, first", [
    (["gamma", "C4", "--cache", "LOG"], b"Cl x\n"),
    (["gamma", "C4", "--cache", "LOG"], b"\xff\n"),
], ids=["cache", "cache-not-utf-8"])
def test_failed_load_keeps_the_torn_tail(tmp_path, c4_file, capsys, command, first):
    # The torn tail is cut only once every complete line has been accepted.
    log = tmp_path / "log"
    log.write_bytes(first + b"x" * 30)
    before = log.read_bytes()
    argv = [{"LOG": str(log), "C4": c4_file}.get(a, a) for a in command]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")
    assert log.read_bytes() == before


def test_blank_cache_lines_are_skipped(tmp_path, c4_file, capsys):
    # Cl 2 5 is C4's minimum set {0, 2}, not the lex-min {0, 1}: the output
    # shows the log was read, and nothing is written back.
    cache = tmp_path / "gamma.cache"
    cache.write_text("\nCl 2 5\n\n")
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == ["gamma = 2", "witness = [0, 2]"]
    assert cache.read_text() == "\nCl 2 5\n\n"


def test_conflicting_cache_lines_are_an_input_error(tmp_path, c4_file, capsys):
    cache = tmp_path / "gamma.cache"
    cache.write_text("Cl 3 7\nCl 2 3\n")
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {cache}:2: conflicting cache line\n"


def test_warm_read_builds_no_search(tmp_path, c4_file, c5_file, capsys, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(_Search, "__init__", counted("init", _Search.__init__))
    monkeypatch.setattr(_Search, "lexmin_witness",
                        counted("witness", _Search.lexmin_witness))
    argv = ["check-vizing", c4_file, c5_file, "--cache", str(tmp_path / "W")]
    assert main(argv) == EXIT_OK
    assert calls == {"init": 3, "witness": 3}
    calls.clear()
    assert main(argv) == EXIT_OK
    assert calls == {}


@pytest.mark.parametrize("mask, error", [
    ("xyz", ":1: malformed cache line"),
    ("7", ":1: malformed cache line"),
    ("3", "does not dominate"),  # {0, 1} misses vertex 3 of C5
    ("21", "outside the vertex set"),  # vertex 5 is not in C5
])
def test_bad_cached_witness_is_an_input_error(tmp_path, c5_file, capsys, mask, error):
    cache = tmp_path / "gamma.cache"
    assert main(["gamma", c5_file, "--cache", str(cache)]) == EXIT_OK
    key, value, _witness = cache.read_text().split()
    assert value == "2"
    cache.write_text(f"{key} 2 {mask}\n")
    capsys.readouterr()
    assert main(["gamma", c5_file, "--cache", str(cache)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and error in err


def test_non_minimal_cached_witness_is_an_input_error(tmp_path, capsys):
    # {0, 1} dominates P3, but so does {1} alone; the log stays unchanged.
    graph = tmp_path / "p3.el"
    graph.write_text("0 1\n1 2\n")
    cache = tmp_path / "gamma.cache"
    cache.write_text("Bg 2 3\n")
    assert main(["gamma", str(graph), "--cache", str(cache)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: cached witness mask 3 is not"
                                   " minimal: vertex 0 can be dropped (a wrong gamma"
                                   " cache entry?)\n")
    assert cache.read_text() == "Bg 2 3\n"


@pytest.mark.parametrize("graph", ["C4", "C5", "RANK6"])
def test_stdout_is_the_same_cold_and_warm(tmp_path, c4_file, c5_file, rank6_file,
                                          capsys, graph):
    files = {"C4": c4_file, "C5": c5_file, "RANK6": rank6_file}
    commands = [["gamma", files[graph]], ["check-vizing", files[graph], c4_file]]
    if graph != "C5":  # transform takes a bipartite graph
        commands.append(["transform", files[graph], "--h", c5_file])
    for argv in commands:
        runs = []
        for cache in ([], ["--cache", str(tmp_path / "W")], ["--cache", str(tmp_path / "W")]):
            assert main([*argv, *cache]) == EXIT_OK
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1] == runs[2], argv


# Flags that no command reads are not accepted.
@pytest.mark.parametrize("argv", [
    ["gamma", "@c4", "--max-vertices", "1"],
    ["check-vizing", "@c4", "@c4", "--max-vertices", "4096"],
    ["transform", "@c4", "--h", "@c4", "--max-vertices", "4096"],
    ["transform", "@c4", "--h", "@c4", "--max-rounds", "64"],
    ["scan", "4", "2", "--max-vertices", "9"],
    ["scan", "8", "6", "--allow-large"],
    ["scan", "4", "2", "--input-format", "graph6"],
    ["scan", "4", "2", "--resume"],
    ["scan", "4", "2", "--cache", "C"],
    ["gamma", "@c4", "--input-format", "graph6"],
    ["thresholds", "4", "--max-vertices", "-5"],
    ["thresholds", "4", "--input-format", "graph6"],
], ids=" ".join)
def test_unread_flags_are_refused(request, capsys, argv):
    argv = [request.getfixturevalue(a[1:] + "_file") if a.startswith("@") else a
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


# sha256 of stdout of the commands other than scan; "@c4" names the c4_file
# fixture.  Each exits 0 and writes nothing to stderr.
@pytest.mark.parametrize("argv, out", [
    (["gamma", "@c4", "--format", "text"],
     "ca49c3b6477168f7bb1663728995466194e067a2f76c738be2fe2937cfc71dcc"),
    (["gamma", "@rank6", "--format", "text"],
     "9005e2fd65ee5f847a8cab1fd42ec213926550eb9cb1abaaf1f4a2b7fe047521"),
    (["check-vizing", "@c4", "@c5", "--format", "text"],
     "9107e3c7e0c76496af8503150e0de94170f585050b7f6111728a7ca6dd0ee495"),
    (["check-vizing", "@rank6", "@c5", "--format", "text"],
     "42f078c03c79fa1f8eef33dd93f52033f4482db69032d40bb006dd0120e14b80"),
    (["thresholds", "12", "--format", "text"],
     "39c85fcac7035cfb66e0d355686e95a377b8295e4db34ec7975dd79a8de9ce89"),
    (["thresholds", "12", "--paper-table", "--format", "text"],
     "0d2fc5fd2feefb91907754a39a6705e5b053793a0171bee319babcc5c84825eb"),
    (["gamma", "@c4", "--format", "json"],
     "cec2158b61bda4b6705d27a113337081e04fa951f8ccbaf040e08ef1c33fb95c"),
    (["gamma", "@rank6", "--format", "json"],
     "113e1ae0ef83b2764697687cbd4beb8b0cddca3f162823dde9fc51a4a13e83f6"),
    (["check-vizing", "@c4", "@c5", "--format", "json"],
     "e18233eb88554fadce82b237965f5ce6e0bf7c5b602a4e23377c191d2fd088fa"),
    (["check-vizing", "@rank6", "@c5", "--format", "json"],
     "e42459a3f8fc47b7d9d6113c93424280ae5e737e499fe7939fdf7e1fc6ef7162"),
    (["thresholds", "12", "--format", "json"],
     "af462013af66f7ec45e7c31e93af28e049b4da45173659bdb889c375effe1c2e"),
    (["thresholds", "12", "--paper-table", "--format", "json"],
     "b9f97a5e5994e7b2c145845116c14066249a326e5576274cdba315c5963913c8"),
    (["gamma", "@c4", "--format", "csv"],
     "880fc3d799265baddf634eafe854e2a4b1cc2e337a4c9904f5c77cd9c38cff69"),
    (["gamma", "@rank6", "--format", "csv"],
     "dc9569a639a6f249fa942c7e3a0191412ce161d3389cebf2fa0bb3dfcc75603e"),
    (["check-vizing", "@c4", "@c5", "--format", "csv"],
     "fedbbc9234402237a1724486b761ce3737d7947a824415ceb17000be010ec7b9"),
    (["check-vizing", "@rank6", "@c5", "--format", "csv"],
     "57efe7f199a29bdf443a64fe4e36265cdd6c77c588ccd409d7180a5b685e85c2"),
    (["thresholds", "12", "--format", "csv"],
     "8f48ec7fb97c3f6db6a24f73e9337097fd67df700d6d725c40804d1bd6958d8b"),
    (["thresholds", "12", "--paper-table", "--format", "csv"],
     "ed550857ef0117f2a39f833d80fe171fea78db7851399b017ac65593d8c02717"),
    (["transform", "@rank6", "--h", "@c5", "--format", "text"],
     "02c706d02e0d34141861489dfc4fd5c4c1af838eeed5d27893c94bf7e5fbd232"),
    (["transform", "@c4", "--rho-h", "1/2", "--delta-h", "2", "--format", "text"],
     "24cc08a4aaf7a35a0c66084223a0b254ee01d5776138f794f7904e5bb4f77314"),
    (["transform", "@rank6", "--h", "@c5", "--format", "json"],
     "59576f6564c28f2b9bf241c2da94b072c42397e560aedd822c33f16874fbbac6"),
    (["transform", "@c4", "--rho-h", "1/2", "--delta-h", "2", "--format", "json"],
     "cfdd61f6244ad953619b4f4338ad51b6820a21fab2d91434b51ced2bbeac24e5"),
    # out of hypothesis: every minimum dominating set of K3,3 has 1/3 of a side
    (["transform", "@k33", "--rho-h", "1", "--delta-h", "2", "--format", "text"],
     "0122cb5f7f79fd7e997cbf2dc32867e63e20f17d4a4047d1e5b555c7ceaf4fd6"),
    (["transform", "@k33", "--rho-h", "1", "--delta-h", "2", "--format", "json"],
     "ba4708fdc958a8537cca82c2981f21e6d9b1b30c0fcd6afab87f4836a69e72f5"),
    # K2 against K1: the gate is met exactly, with no strict escalation subset
    (["transform", "@k2", "--h", "@k1", "--format", "text"],
     "795c24bda5becaf03836e2bf2594af6dfce1d0115dc8ed082bb95a74dee12d7f"),
    (["transform", "@k2", "--h", "@k1", "--format", "json"],
     "af3ff891ca787df664c6269cbad89fe3ba4db84eb5712ac73007a49bc96d1b84"),
    (["transform", "@k2", "--rho-h", "1", "--delta-h", "0", "--format", "text"],
     "d605f9882e41de2b043b6835ddb73ee8b960892b662ae895fc9f8fe9328fa4cc"),
    # K1 has an empty side A, which the sweep skips
    (["transform", "@k1", "--rho-h", "1/2", "--delta-h", "1", "--format", "text"],
     "0335270e9bcb7ab6038b09db7b9c8d80960d6cbe14b8b8e78daa6ff88d73bfca"),
    # an isolated vertex on side B: no bipartition upper bound
    (["gamma", "@k2_gap", "--format", "text"],
     "63c75a02dda0952e4695104e4090e346cbf58a728b386611aca9aa8496f29d56"),
    (["gamma", "@k2_gap", "--format", "json"],
     "cc1cab2d1a3882edf6229d1173d6805357df4a0c5a5cc66ac02c48d9f3ccc2a4"),
])
def test_command_output_is_pinned(request, capsys, argv, out):
    argv = [request.getfixturevalue(a[1:] + "_file") if a.startswith("@") else a
            for a in argv]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out
    assert hashlib.sha256(captured.err.encode()).hexdigest() == EMPTY
