"""Command-line surface: formats, exit statuses, env overrides, determinism."""

import hashlib
import json

import pytest

from domdensity import emit_graph6, star
from domdensity.cli import (
    EXIT_CAPACITY,
    EXIT_FINDING,
    EXIT_INPUT,
    EXIT_OK,
    load_graph_text,
    main,
)
from conftest import RANK6_ROWS


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.edges"
    path.write_text("0 1\n")
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


class TestInputDetection:
    def test_autodetects_each_format(self, rank6_matrix):
        assert load_graph_text("0 1\n1 2\n").n == 3
        assert load_graph_text("A_\n").n == 2
        assert load_graph_text(rank6_matrix.to_text()).n == 12
        assert load_graph_text(emit_graph6(star(9))).n == 10

    def test_explicit_format_override(self):
        assert load_graph_text("A_", fmt="graph6").n == 2


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
        bad = tmp_path / "bad.g6"
        bad.write_text("A_garbage\n")
        assert main(["gamma", str(bad)]) == EXIT_INPUT

    def test_missing_file_exit_2(self):
        assert main(["gamma", "/nonexistent/path.g6"]) == EXIT_INPUT


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

    def test_capacity_exit_3(self, tmp_path, capsys):
        big = tmp_path / "big.g6"
        big.write_text(emit_graph6(star(80)) + "\n")
        assert main(["check-vizing", str(big), str(big),
                     "--max-vertices", "100"]) == EXIT_CAPACITY


class TestScan:
    def test_scan_6_3_finds_worked_example(self, rank6_matrix, capsys):
        from domdensity import canonical_key
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
        assert main(["scan", "8", "3"]) == EXIT_CAPACITY

    def test_scan_output_and_resume(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "4", "2", "--format", "json",
                     "--output", str(out)]) == EXIT_OK
        first = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert main(["scan", "4", "2", "--format", "json",
                     "--output", str(out), "--resume"]) == EXIT_OK
        second = [json.loads(ln) for ln in out.read_text().splitlines()]
        # resume adds only a fresh summary, no duplicate class records
        assert len([r for r in second if "key" in r]) == \
               len([r for r in first if "key" in r])

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_resume_rejects_non_json_format(self, tmp_path, capsys, fmt):
        out = tmp_path / "scan.out"
        argv = ["scan", "4", "2", "--format", fmt, "--output", str(out)]
        assert main(argv) == EXIT_OK
        before = out.read_text()
        assert main(argv + ["--resume"]) == EXIT_INPUT
        assert "--resume" in capsys.readouterr().err
        assert out.read_text() == before

    def test_resume_needs_output(self, capsys):
        assert main(["scan", "4", "2", "--format", "json", "--resume"]) == EXIT_INPUT
        assert "--output" in capsys.readouterr().err

    def test_resume_rejects_incomplete_record(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        out.write_text('{"key": "4.2.3399", "gamma": 2}\n')
        assert main(["scan", "4", "2", "--format", "json", "--output",
                     str(out), "--resume"]) == EXIT_INPUT
        assert "lacks" in capsys.readouterr().err

    @pytest.mark.parametrize("n,k,status", [(4, 1, EXIT_FINDING), (6, 3, EXIT_OK)])
    @pytest.mark.parametrize("cut", ["complete", "first-record", "torn-line"])
    def test_resume_matches_uninterrupted_scan(self, tmp_path, capsys,
                                               n, k, status, cut):
        argv = ["scan", str(n), str(k), "--format", "json", "--output"]
        full = tmp_path / "full.jsonl"
        assert main(argv + [str(full)]) == status
        text = full.read_text()
        lines = text.splitlines(keepends=True)
        end = {"complete": len(text), "first-record": len(lines[0]),
               "torn-line": len(lines[0]) + 30}[cut]
        part = tmp_path / "part.jsonl"
        part.write_text(text[:end])
        assert main(argv + [str(part), "--resume"]) == status
        resumed = part.read_text().splitlines(keepends=True)
        assert json.loads(resumed[-1]) == json.loads(lines[-1])
        assert [ln for ln in resumed if '"key"' in ln] == \
               [ln for ln in lines if '"key"' in ln]

    def test_scan_8_6_allow_large(self, capsys):
        assert main(["scan", "8", "6", "--allow-large", "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[-1])
        assert summary["classes"] == 7 and summary["findings"] == 0
        # the output of the generator that keyed every row-sorted matrix
        assert hashlib.sha256(out.encode()).hexdigest() == \
               "89eae5c5b4ce611a417e78f8655e7e561b2c88682e9afaa007458e35fd47029b"

    def test_scan_jobs_matches_serial(self, capsys):
        assert main(["scan", "4", "2", "--format", "json"]) == EXIT_OK
        serial = capsys.readouterr().out
        assert main(["scan", "4", "2", "--format", "json", "--jobs", "2"]) == EXIT_OK
        parallel = capsys.readouterr().out
        serial_rows = [json.loads(ln) for ln in serial.splitlines() if "key" in ln]
        parallel_rows = [json.loads(ln) for ln in parallel.splitlines() if "key" in ln]
        assert serial_rows == parallel_rows

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

    def test_env_override_format(self, capsys, monkeypatch):
        monkeypatch.setenv("DOMDENSITY_FORMAT", "json")
        assert main(["thresholds", "4"]) == EXIT_OK
        rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert rows[0]["k"] == 3


class TestTransform:
    def test_c4_trace_text(self, c4_file, capsys):
        assert main(["transform", c4_file, "--rho-h", "1/2",
                     "--delta-h", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "satisfied: True at round 1" in out

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

    def test_missing_parameters_rejected(self, c4_file):
        assert main(["transform", c4_file]) == EXIT_INPUT


def test_cache_shared_across_commands(tmp_path, c4_file, capsys):
    cache = tmp_path / "gamma.cache"
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_OK
    first = cache.read_text()
    assert len(first.splitlines()) == 1
    assert main(["gamma", c4_file, "--cache", str(cache)]) == EXIT_OK
    assert cache.read_text() == first  # hit, no rewrite
