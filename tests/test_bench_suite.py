"""The benchmark's own unittest suite, run from tier-1, and its tracer run
over ``transform`` and ``check-vizing``, without a cache and warm.

``bench/`` traces the library from outside and checks that it can rebind
the functions it wraps; a change to the library that breaks that (say, a
generator that stops calling the traced ``canonical_key``, or a trace whose
``rounds`` the tracer cannot count) fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import domdensity
from domdensity import cli

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def test_bench_unittest_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_tracer_reads_transform_layers(tmp_path, capsys):
    inputs = workloads.write_inputs(tmp_path, seed=1)
    tracer = Tracer()
    with tracer.installed(domdensity):
        assert cli.main(["transform", str(inputs["rank6"]), "--h", str(inputs["C5"]),
                         "--format", "json"]) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert cli.main(["check-vizing", str(inputs["C8"]), str(inputs["C9"]),
                         "--format", "json"]) == 0
    metrics = layer_metrics(tracer.spans)
    assert metrics["transform.hypothesis_calls"] == 1
    assert metrics["transform.rounds"] == len(trace["rounds"]) == 5
    # transform's value-only solves: H, G, the product and the four grown
    # graphs; check-vizing reports a witness for each of its graphs.
    assert metrics["domination.value_calls"] == 7


def test_tracer_reads_no_solve_on_warm_commands(tmp_path, capsys):
    inputs = workloads.write_inputs(tmp_path, seed=1)
    cache = tmp_path / "gamma.cache"
    commands = [
        ["check-vizing", str(inputs["C8"]), str(inputs["C9"]), "--format", "json"],
        ["transform", str(inputs["rank6"]), "--h", str(inputs["C5"]), "--format", "json"],
    ]
    for argv in commands:
        assert cli.main([*argv, "--cache", str(cache)]) == 0
    # Every entry carries its witness, also those of value-only solves.
    assert all(len(line.split()) == 3 for line in cache.read_text().splitlines())
    tracer = Tracer()
    with tracer.installed(domdensity):
        for argv in commands:
            assert cli.main([*argv, "--cache", str(cache)]) == 0
    capsys.readouterr()
    metrics = layer_metrics(tracer.spans)
    assert metrics["cache.hits"] > 0
    assert metrics["cache.misses"] == 0
    assert metrics["domination.solves_per_graph"] == 0
