"""Workloads, their seeded inputs, and the checks every command output must pass.

Each workload is a fixed list of ``domdensity`` commands, short enough that
a run repeats it several times: on a shared 2-core machine one pass of a
single long command varies by a fifth from run to run.  That leaves out the
scan cells (7,3) and (7,4), 16-20 s each, and the products C8xC8 and C9xC9,
5-10 s each; (6,3), (7,2) and (7,5) load the same keying code, and C8xC9
the same solver.

The seed decides only the bytes of the edge-list files the product commands
read: the order of the lines and of the two endpoints on each line.  The
parser normalises both, so every seed poses the same labelled graphs and the
commands do the same work.  A random vertex relabelling would change the
solver's search order, and with it the time of one product pass by a factor
of two between seeds, which no bound on the run-to-run spread could hold.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# ---------------------------------------------------------------------------
# factor graphs and the seeded generator
# ---------------------------------------------------------------------------

# The 3-regular 6x6 worked example of the test suite: row i is adjacent to
# column j (vertex 6 + j) iff bit j of RANK6_ROWS[i] is set.
RANK6_ROWS = (0b001011, 0b010110, 0b101100, 0b011001, 0b110010, 0b100101)


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


FACTORS = {
    "C5": _cycle(5), "C7": _cycle(7), "C8": _cycle(8), "C9": _cycle(9),
    "P8": _path(8),
    "rank6": (12, [(i, 6 + j) for i in range(6) for j in range(6)
                   if RANK6_ROWS[i] >> j & 1]),
}

# gamma(C_n) = gamma(P_n) = ceil(n / 3); the worked example has gamma 4.
FACTOR_GAMMA = {"C5": 2, "C7": 3, "C8": 3, "C9": 3, "P8": 3, "rank6": 4}


def edge_list_text(name: str, seed: int) -> str:
    """The edge-list file of factor ``name`` for ``seed``, seed in a comment."""
    rng = random.Random(f"{seed}/{name}")
    _, edges = FACTORS[name]
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return f"# {name}, seed {seed}\n" + "\n".join(lines) + "\n"


def write_inputs(directory: Path, seed: int) -> dict[str, Path]:
    """Write every factor file into ``directory``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in FACTORS:
        path = directory / f"{name}.el"
        path.write_text(edge_list_text(name, seed))
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# independent output checks
# ---------------------------------------------------------------------------

def closed_neighbourhoods(n: int, edges) -> list[int]:
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def product_graph(g, h):
    """Cartesian product, vertex (a, b) numbered a * |V(H)| + b."""
    (gn, ge), (hn, he) = g, h
    edges = [(a * hn + b, a2 * hn + b) for a, a2 in ge for b in range(hn)]
    edges += [(a * hn + b, a * hn + b2) for b, b2 in he for a in range(gn)]
    return gn * hn, edges


def is_dominating(graph, witness) -> bool:
    n, edges = graph
    closed = closed_neighbourhoods(n, edges)
    covered = 0
    for v in witness:
        if not 0 <= v < n:
            return False
        covered |= closed[v]
    return covered == (1 << n) - 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_scan(out: str, classes: int) -> list[str]:
    lines = [json.loads(ln) for ln in out.splitlines()]
    summary, records = lines[-1], lines[:-1]
    errors = []
    if summary.get("type") != "summary":
        errors.append("last line is not the summary")
    if summary.get("classes") != classes or len(records) != classes:
        errors.append(f"classes {summary.get('classes')}/{len(records)} != {classes}")
    if summary.get("findings") != 0:
        errors.append(f"findings {summary.get('findings')} != 0")
    return errors


def check_vizing(out: str, g: str, h: str, gamma_product: int) -> list[str]:
    rec = json.loads(out)
    graphs = {"g": FACTORS[g], "h": FACTORS[h],
              "product": product_graph(FACTORS[g], FACTORS[h])}
    expected = {"g": FACTOR_GAMMA[g], "h": FACTOR_GAMMA[h], "product": gamma_product}
    errors = []
    for part, want in expected.items():
        gamma, witness = rec[f"gamma_{part}"], rec[f"witness_{part}"]
        if gamma != want:
            errors.append(f"gamma_{part} {gamma} != {want}")
        if len(witness) != want or not is_dominating(graphs[part], witness):
            errors.append(f"witness_{part} {witness} is not a minimum dominating set")
    if rec["holds"] is not True or rec["density_form_holds"] is not True:
        errors.append("product inequality reported violated")
    return errors


def check_transform(out: str) -> list[str]:
    rec = json.loads(out)
    c, t = rec["constructive"], rec["trace"]
    errors = []
    want = {"applicable": True, "gamma_g": 4, "gamma_h": 2, "gamma_product": 12,
            "holds": True}
    for key, value in want.items():
        if c.get(key) != value:
            errors.append(f"constructive.{key} {c.get(key)!r} != {value!r}")
    if t.get("satisfied") is not True or any(r["gamma"] != 4 for r in t["rounds"]):
        errors.append("leaf-attachment trace not satisfied at gamma 4")
    return errors


def check_thresholds(out: str, kmax: int) -> list[str]:
    ks = [json.loads(ln)["k"] for ln in out.splitlines()]
    return [] if ks == list(range(3, kmax + 1)) else [f"threshold rows {ks}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    """One CLI call: ``argv`` names factor files as ``@name``."""

    label: str
    argv: list[str]
    check: object  # callable(stdout) -> list of error strings
    sha256: str
    items: int = 1

    def resolve(self, inputs: dict[str, Path], extra: list[str]) -> list[str]:
        return [str(inputs[a[1:]]) if a.startswith("@") else a
                for a in self.argv] + extra


@dataclass
class Workload:
    name: str
    why: str
    commands: list[Command]
    item_unit: str
    cached: bool = False  # pass --cache, filled by one cold pass in set-up
    setup_repeats: int = 9


# Every stdout is pinned by its sha256 at commit 13dde9a: the JSON records,
# canonical keys and witnesses are the package's stable contract.
SCAN_CELLS = [  # (n, k, classes, stdout sha256)
    (6, 3, 7, "d8d9477de56c635ea42f1b885c9badb8f8606d42c1de8048afabd8ce912ec443"),
    (7, 2, 4, "3806b09ad07c0ae0bfa6ba47ec54c176609fdf3046f24ad1d5a8c0013617d0e4"),
    (7, 5, 4, "ab417b7d6d98f21c62bc99829cc0412c17b0d2a7cf0cca838f2e320f52418281"),
]

PRODUCTS = [  # (G, H, gamma(G box H), stdout sha256)
    ("C7", "C7", 12, "75267c1da51879a86a4e12ab1b9895af09b67d6353a23873345bdbaca553cae5"),
    ("C8", "C9", 17, "93402ce9489d4d0ae6ede6cb915c1281905725c98bc35e256c4c56c6512c4026"),
    ("P8", "P8", 16, "d044c091397744fd87a00742e2497ec4a3f297303dfd3c4ab9e59183c8a88b13"),
    ("rank6", "C5", 12, "e42459a3f8fc47b7d9d6113c93424280ae5e737e499fe7939fdf7e1fc6ef7162"),
]
TRANSFORM_SHA256 = "59576f6564c28f2b9bf241c2da94b072c42397e560aedd822c33f16874fbbac6"
THRESHOLDS_KMAX = 50
THRESHOLDS_SHA256 = "1080f3e31404a9a5b99877dbbb568181b2808e0ce54758053e60ebc51a05bbf5"

# A command that loads the package and does next to nothing: interpreter
# and import start-up.
NOOP = ["thresholds", "3", "--format", "json"]


def _scan_commands() -> list[Command]:
    return [Command(f"scan {n} {k}", ["scan", str(n), str(k), "--format", "json"],
                    lambda out, c=classes: check_scan(out, c), sha, items=classes)
            for n, k, classes, sha in SCAN_CELLS]


def _product_commands() -> list[Command]:
    cmds = [Command(f"check-vizing {g} {h}",
                    ["check-vizing", f"@{g}", f"@{h}", "--format", "json"],
                    lambda out, g=g, h=h, gp=gp: check_vizing(out, g, h, gp), sha)
            for g, h, gp, sha in PRODUCTS]
    cmds.append(Command("transform rank6 --h C5",
                        ["transform", "@rank6", "--h", "@C5", "--format", "json"],
                        check_transform, TRANSFORM_SHA256))
    cmds.append(Command(f"thresholds {THRESHOLDS_KMAX}",
                        ["thresholds", str(THRESHOLDS_KMAX), "--format", "json"],
                        lambda out: check_thresholds(out, THRESHOLDS_KMAX),
                        THRESHOLDS_SHA256))
    return cmds


WORKLOADS = {
    "scan-n7": Workload(
        "scan-n7",
        "exhaustive class scans; canonical keying in enumeration is ~99% of the"
        " time, the solver and the cache are barely used",
        _scan_commands(), "classes"),
    "products-cold": Workload(
        "products-cold",
        "exact gamma of cycle, path and worked-example products with no cache;"
        " the branch-and-bound value search and witness pass dominate",
        _product_commands(), "commands"),
    "products-warm": Workload(
        "products-warm",
        "the same products with a gamma cache filled in set-up; values are"
        " cache reads, leaving cache load, graph keys and the witness pass",
        _product_commands(), "commands", cached=True, setup_repeats=2),
}


def check_output(cmd: Command, returncode: int, stdout: str) -> list[str]:
    """Every reason the output of ``cmd`` is wrong (empty when it is right)."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        errors = cmd.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        errors = [f"unreadable output: {exc!r}"]
    if digest(stdout) != cmd.sha256:
        errors.append("stdout differs from the output pinned at commit 13dde9a")
    return errors
