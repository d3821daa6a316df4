"""The benchmark's workloads: generated shapelab configs and the checks
their outputs must pass.

Every experiment is one ``shapelab <command> <config> --jobs 1
--seed-offset <base>`` run.  The workload seed only moves the random
seeds (``base = 1000 * seed``); problem sizes never depend on it, so
every seed does the same amount of work.  Output paths are relative to
the run directory, which keeps each config, and so each config hash in
the output headers, identical from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

# log((3 + sqrt 5) / 2): growth rate of the constant potential at energy 3
CONSTANT_LYAPUNOV = math.log((3.0 + math.sqrt(5.0)) / 2.0)
REFERENCE_RTOL = 1e-9
# values that are zero up to roundoff (remainders, defects) have no
# relative scale; below this magnitude they are compared absolutely
REFERENCE_ATOL = 1e-12


@dataclass
class Table:
    """One parsed output file: CSV columns and rows, or a JSON document."""

    columns: list[str]
    rows: list[list]
    doc: object = None

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


@dataclass(frozen=True)
class Experiment:
    name: str
    config: dict
    check: Callable[[dict[str, Table]], list[str]]

    def output_paths(self) -> tuple[str, ...]:
        extra = self.config.get("polytope_output")
        return (self.config["output"],) + ((extra,) if extra else ())


# --------------------------------------------------------------------------
# output parsing, hashing and comparison


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def body_bytes(path: Path) -> bytes:
    """The file without its timestamp line, which is the only part of a
    shapelab output that may differ between identical runs."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b"# timestamp:"))


def body_sha256(path: Path) -> str:
    return hashlib.sha256(body_bytes(path)).hexdigest()


def parse_output(path: Path) -> Table:
    text = body_bytes(path).decode()
    if path.suffix == ".json":
        return Table([], [], json.loads(text))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = [[_cell(c) for c in ln.split(",")] for ln in lines[1:]]
    return Table(columns, rows)


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v)


def _all_numbers(table: Table):
    yield from _numbers(table.rows)
    yield from _numbers(table.doc)


def compare(got, want, where: str = "") -> list[str]:
    """Structural equality with numbers equal within the reference
    tolerance; returns the first few differences."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{where}.{k}")
        return out[:5]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{where}[{i}]")
            if len(out) >= 5:
                break
        return out
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REFERENCE_RTOL,
                        abs_tol=REFERENCE_ATOL) or got == want:
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


def table_value(table: Table):
    return table.doc if table.doc is not None else [table.columns,
                                                    table.rows]


# --------------------------------------------------------------------------
# invariants that hold for every seed


def _finite(tables: dict[str, Table]) -> list[str]:
    bad = [name for name, t in tables.items()
           if not all(math.isfinite(v) for v in _all_numbers(t))]
    return [f"{name}: nonfinite value" for name in bad]


def _only(tables: dict[str, Table]) -> Table:
    (table,) = tables.values()
    return table


def check_shape(low: float | None, high: float | None):
    def check(tables):
        t = tables[next(iter(tables))]
        out = []
        if any(f != 0 for f in t.column("flagged")):
            out.append("a direction is flagged")
        if low is not None:
            for L in t.column("L"):
                if not low <= L <= high:
                    out.append(f"directional constant {L} outside "
                               f"[{low}, {high}]")
        return out
    return check


def check_maximal_tail(tables):
    t = _only(tables)
    pairs = sorted(zip(t.column("lambda"), t.column("tail")))
    tails = [tail for _, tail in pairs]
    if any(b > a for a, b in zip(tails, tails[1:])):
        return ["tail increases in lambda"]
    return []


def check_embed(tables):
    doc = _only(tables).doc["payload"]
    worst = max(doc["sup_norm_defect"], doc["additivity_defect"])
    return [] if worst <= 1e-9 else [f"embedding defect {worst}"]


def check_lyapunov_constant(tables):
    (value,) = _only(tables).column("estimate")
    if abs(value - CONSTANT_LYAPUNOV) > 1e-9:
        return [f"constant-potential Lyapunov {value!r} != "
                f"log((3+sqrt5)/2) = {CONSTANT_LYAPUNOV!r}"]
    return []


def check_kingman(tables):
    worst = min(_only(tables).column("remainder"))
    return [] if worst >= -1e-9 else [f"Kingman remainder {worst} < -1e-9"]


def check_rkhs(tables):
    t = _only(tables)
    bound = 2.0 * math.log(2.0) + 1e-12
    for d, beta in zip(t.column("kernel_metric"), t.column("hyperbolic")):
        if not 0.0 <= beta - d <= bound:
            return [f"kernel/hyperbolic gap {beta - d} outside [0, 2 log 2]"]
    return []


def check_path_family(tables):
    t = _only(tables)
    bad = sum(1 for ok in t.column("ok") if ok != 1)
    return [f"{bad} path families failed the audit"] if bad else []


def no_check(tables):
    return []


# --------------------------------------------------------------------------
# workloads


def _shape_refine(base: int) -> list[Experiment]:
    # Few, large, nested boxes: the d=2 scan refines each of 4 directions
    # up to radius 4*gap=120, and the d=3 scan builds l1 balls of radius
    # 48 (~150k sites), whose per-site dicts set the memory peak.
    return [
        Experiment("shape_d2_two_valued", {
            "command": "shape", "dimension": 2,
            "model": {"kind": "two_valued", "low": 1.0, "high": 2.0,
                      "prob_low": 0.5},
            "seeds": {"start": 0, "count": 8},
            "directions": [[1, 0], [0, 1], [1, 1], [2, 1]],
            "n_max": 10,
            "output": "out/shape_d2_two_valued.csv",
            "polytope_output": "out/shape_d2_two_valued_ball.json",
        }, check_shape(1.0, 2.0)),
        Experiment("shape_d3_exponential", {
            "command": "shape", "dimension": 3,
            "model": {"kind": "exponential", "rate": 1.0},
            "seeds": {"start": 0, "count": 1},
            "directions": [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
            "n_max": 4,
            "output": "out/shape_d3_exponential.csv",
        }, check_shape(None, None)),
    ]


def _small_boxes(base: int) -> list[Experiment]:
    # The same lattice, environment and percolation layers as
    # shape_refine, through hundreds of small calls.
    return [
        Experiment("maximal_tail", {
            "command": "maximal-tail", "dimension": 2,
            "model": {"kind": "exponential", "rate": 1.0},
            "seeds": {"start": 0, "count": 500},
            "window_radius": 8,
            "lambda_grid": [1.0, 1.5, 2.0, 3.0, 4.0, 8.0],
            "output": "out/maximal_tail.csv",
        }, check_maximal_tail),
        Experiment("embed_check", {
            "command": "embed-check",
            "model": {"kind": "exponential", "rate": 1.0},
            "dimension": 2, "seed": 42,
            "sites": [[0, 0], [2, 1], [-1, 2], [1, -2], [3, 0], [-2, -1],
                      [4, 2], [-3, 1], [0, -4], [2, 3]],
            "output": "out/embed_check.json",
        }, check_embed),
        Experiment("lorentz_norm", {
            "command": "lorentz-norm",
            "model": {"kind": "exponential", "rate": 1.0},
            "dimension": 2, "seed": 7,
            "box_center": [0, 0], "box_radius": 96,
            "indices": [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0],
                        [4.0, 1.0], [4.0, 2.0]],
            "output": "out/lorentz_norm.csv",
        }, no_check),
    ]


def _orbits(base: int) -> list[Experiment]:
    # 1-D orbits and combinatorics, no boxes.  Sized so that compute
    # splits about 2:1:1 between transfer products (schrodinger_scan,
    # lyapunov), cocycles (kingman, horofunction) and the d=3 audit.
    return [
        Experiment("schrodinger_scan", {
            "command": "schrodinger-scan",
            "potential": {"kind": "bernoulli", "amplitude": 1.0},
            "energies": [-2.0, -1.0, 0.0, 1.0, 2.0],
            "n_steps": 1400, "n_seeds": 4,
            "output": "out/schrodinger_scan.csv",
        }, no_check),
        Experiment("lyapunov_constant", {
            "command": "lyapunov",
            "potential": {"kind": "constant", "value": 0.0, "energy": 3.0},
            "n_steps": 10000, "n_seeds": 2,
            "output": "out/lyapunov_constant.csv",
        }, check_lyapunov_constant),
        Experiment("kingman", {
            "command": "kingman",
            "cocycle": {
                "dynamics": {"kind": "rotation",
                             "alphas": [0.41421356237309515],
                             "x0": (base * 0.6180339887498949) % 1.0},
                "generator": {"kind": "mixed", "value": [2.0, 0.0],
                              "coboundary": 1.0}},
            "length": 1000, "drift_orbit": 80000,
            "output": "out/kingman.csv",
        }, check_kingman),
        Experiment("horofunction", {
            "command": "horofunction",
            "cocycle": {
                "dynamics": {"kind": "shift", "seed": base + 9,
                             "dimension": 2},
                "generator": {"kind": "axis_field"}, "dim_space": 3},
            "eta": [1.0, 0.0],
            "targets": [[1, 0], [0, 1], [2, -1], [-1, 2]],
            "t_grid": [16, 1024], "drift_orbit": 6000,
            "output": "out/horofunction.csv",
        }, no_check),
        Experiment("rkhs_walk", {
            "command": "rkhs-walk", "seed": 17, "length": 1000,
            "step_scale": 0.25,
            "output": "out/rkhs_walk.csv",
        }, check_rkhs),
        Experiment("spectral_rate", {
            "command": "spectral-rate",
            "sample": {"kind": "geometric", "sigma2": 1.0, "ratio": 0.5},
            "n_grid": [1, 2, 4, 8, 16, 32, 64, 128, 256],
            "output": "out/spectral_rate.csv",
        }, no_check),
        Experiment("path_family_audit_d3", {
            "command": "path-family-audit", "dimension": 3, "max_norm": 8,
            "output": "out/path_family_audit_d3.csv",
        }, check_path_family),
    ]


WORKLOADS = {
    "shape_refine": _shape_refine,
    "small_boxes": _small_boxes,
    "orbits": _orbits,
}


def seed_base(seed: int) -> int:
    return 1000 * seed


def experiments(workload: str, seed: int) -> list[Experiment]:
    return WORKLOADS[workload](seed_base(seed))


def write_configs(exps: list[Experiment], run_dir: Path) -> None:
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for e in exps:
        text = yaml.safe_dump(e.config, sort_keys=False)
        (run_dir / "configs" / f"{e.name}.yaml").write_text(text)


def argv(e: Experiment, seed: int) -> list[str]:
    return [e.config["command"], f"configs/{e.name}.yaml", "--jobs", "1",
            "--seed-offset", str(seed_base(seed))]


def check_outputs(e: Experiment, run_dir: Path,
                  reference: dict | None) -> tuple[list[str], dict]:
    """Problems found in the experiment's outputs, and the body sha256
    of each output file.  ``reference`` maps experiment names to their
    parsed outputs by file name; None skips the comparison."""
    tables, hashes = {}, {}
    for rel in e.output_paths():
        path = run_dir / rel
        if not path.is_file():
            return [f"{rel}: missing"], hashes
        hashes[rel] = body_sha256(path)
        tables[rel] = parse_output(path)
    problems = _finite(tables) + e.check(tables)
    if reference is not None:
        for rel, table in tables.items():
            want = reference.get(e.name, {}).get(Path(rel).name)
            if want is None:
                problems.append(f"{rel}: no stored reference")
            else:
                problems += compare(table_value(table), want, rel)
    return [f"{e.name}: {p}" for p in problems], hashes
