"""Batch driver: parses a YAML experiment config, runs one of the shipped
experiment kinds across seed grids, and writes plot-ready CSV/JSON
artifacts.

Every output file starts with a comment header carrying the tool version,
the config hash, and a timestamp; identical configs reproduce identical
bytes below the header.  Exit codes: 0 success, 2 config error, 3 budget
or convergence failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .environment import Environment, WeightModel, model_from_spec
from .lattice import (build_path_family, audit_family, enumerate_targets,
                      norm1)
from .lorentz import WeightedSample, lorentz_norm
from .percolation import ConvergenceError, structure_embed
from .rkhs import large_scale_compare, random_walk
from .schrodinger import PotentialModel, lyapunov
from .shape import (default_directions, directional_constant,
                    sample_maximal_stats)
from . import cocycle as _cocycle

COMMANDS = ("shape", "maximal-tail", "lorentz-norm", "lyapunov",
            "schrodinger-scan", "kingman", "horofunction", "spectral-rate",
            "rkhs-walk", "embed-check", "path-family-audit")


class ConfigError(Exception):
    pass


class BudgetError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _find_line(text: str, key: str) -> int | None:
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        if stripped.strip().startswith(f"{key}:"):
            return i
    return None


class Config:
    """Validated experiment configuration; unknown keys are rejected with
    the offending line when it can be located."""

    _COMMON = {"command", "output"}
    _SCHEMAS = {
        "shape": {"model", "dimension", "seeds", "directions",
                  "direction_richness", "n_max", "tolerance",
                  "polytope_output"},
        "maximal-tail": {"model", "dimension", "seeds", "window_radius",
                         "lambda_grid"},
        "lorentz-norm": {"samples_csv", "model", "dimension", "seed",
                         "box_center", "box_radius", "indices"},
        "lyapunov": {"potential", "n_steps", "n_seeds"},
        "schrodinger-scan": {"potential", "energies", "n_steps", "n_seeds"},
        "kingman": {"cocycle", "length", "drift_orbit"},
        "horofunction": {"cocycle", "eta", "targets", "t_grid",
                         "drift_orbit"},
        "spectral-rate": {"sample", "n_grid"},
        "rkhs-walk": {"seed", "length", "step_scale"},
        "embed-check": {"model", "dimension", "seed", "sites", "tolerance",
                        "radius_cap"},
        "path-family-audit": {"dimension", "max_norm"},
    }

    def __init__(self, path: Path):
        self.path = Path(path)
        try:
            text = self.path.read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from None
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as err:
            raise ConfigError(f"config parse error: {err}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a mapping")
        self.raw_text = text
        self.doc = doc
        command = doc.get("command")
        if command not in COMMANDS:
            raise ConfigError(
                f"config needs a 'command' key, one of {', '.join(COMMANDS)}")
        self.command = command
        allowed = self._COMMON | self._SCHEMAS[command]
        for key in doc:
            if key not in allowed:
                line = _find_line(text, key)
                where = f" (line {line})" if line else ""
                raise ConfigError(
                    f"unknown config key {key!r} for command "
                    f"{command!r}{where}")
        if "output" not in doc:
            raise ConfigError("config needs an 'output' path")

    def sha256(self) -> str:
        canon = json.dumps(self.doc, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()

    def get(self, key, default=None):
        return self.doc.get(key, default)

    def require(self, key):
        if key not in self.doc:
            line = _find_line(self.raw_text, "command")
            raise ConfigError(
                f"command {self.command!r} requires config key {key!r}"
                + (f" (command at line {line})" if line else ""))
        return self.doc[key]

    def positive_int(self, key, default=None) -> int:
        """An integer that must be at least 1; required when no default
        is given."""
        value = (self.require(key) if default is None
                 else self.get(key, default))
        try:
            n = int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{key!r} must be an integer, got {value!r}") from None
        if n < 1:
            raise ConfigError(f"{key!r} must be at least 1, got {n}")
        return n

    def model(self) -> WeightModel:
        try:
            return model_from_spec(self.require("model"))
        except KeyError as err:
            raise ConfigError(f"'model' is missing key {err}") from None
        except (TypeError, ValueError) as err:
            raise ConfigError(f"invalid 'model': {err}") from None

    def seed_list(self, offset: int) -> list[int]:
        spec = self.require("seeds")
        if not (isinstance(spec, dict) and {"start", "count"} <= set(spec)):
            raise ConfigError("'seeds' must be a mapping with start and count")
        start, count = int(spec["start"]), int(spec["count"])
        if count < 1:
            raise ConfigError("'seeds' count must be at least 1")
        return [start + offset + i for i in range(count)]


def _header(cfg: Config) -> list[str]:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [
        f"# shapelab {__version__}",
        f"# command: {cfg.command}",
        f"# config-sha256: {cfg.sha256()}",
        f"# timestamp: {stamp}",
    ]


def _write_csv(cfg: Config, path: Path, columns: list[str],
               rows: list[tuple]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = _header(cfg)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(cfg: Config, path: Path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "tool": f"shapelab {__version__}",
        "command": cfg.command,
        "config_sha256": cfg.sha256(),
        "payload": payload,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _jobs(cli_jobs: int | None) -> int:
    if cli_jobs is not None:
        return max(1, cli_jobs)
    env = os.environ.get("SHAPELAB_JOBS")
    return max(1, int(env)) if env else 1


def _pmap(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# per-command runners


def _run_shape(cfg: Config, offset: int, jobs: int) -> None:
    model = cfg.model()
    d = int(cfg.require("dimension"))
    seeds = cfg.seed_list(offset)
    dirs = cfg.get("directions")
    if dirs is None:
        dirs = default_directions(d, int(cfg.get("direction_richness", 1)))
    dirs = sorted(tuple(int(c) for c in v) for v in dirs)
    n_max = int(cfg.require("n_max"))
    tol = float(cfg.get("tolerance", 1e-9))

    work = [(model, seeds, theta, n_max, d, tol) for theta in dirs]
    series = _pmap(_shape_job, work, jobs)

    columns = [f"dir_{k}" for k in range(d)] + ["L", "stderr", "excluded",
                                                "flagged"]
    columns += [f"a_{k}" for k in range(1, n_max + 1)]
    rows = []
    for s in series:
        row = list(s.direction) + [s.estimate, s.estimate_stderr,
                                   s.excluded_fraction, int(s.flagged)]
        row += [float(v) for v in s.means]
        rows.append(tuple(row))
    _write_csv(cfg, cfg.require("output"), columns, rows)
    poly = cfg.get("polytope_output")
    if poly:
        verts = []
        for s in series:
            scale = s.estimate * norm1(s.direction)
            verts.append([c / scale for c in s.direction])
        _write_json(cfg, poly, {"unit_ball_vertices": verts})
    if any(s.flagged for s in series):
        raise BudgetError("one or more directions exceeded the 10% "
                          "nonconvergence budget")


def _shape_job(args):
    model, seeds, theta, n_max, d, tol = args
    return directional_constant(model, seeds, theta, n_max, dimension=d,
                                tol=tol)


def _run_maximal_tail(cfg: Config, offset: int, jobs: int) -> None:
    model = cfg.model()
    d = int(cfg.require("dimension"))
    seeds = cfg.seed_list(offset)
    stats = sample_maximal_stats(model, seeds, int(cfg.require("window_radius")),
                                 cfg.require("lambda_grid"), d)
    rows = stats.tail_products(d)
    _write_csv(cfg, cfg.require("output"),
               ["lambda", "tail", "product"], rows)


def _run_lorentz(cfg: Config, offset: int, jobs: int) -> None:
    if cfg.get("samples_csv"):
        raw = np.loadtxt(cfg.get("samples_csv"), delimiter=",", ndmin=2)
        sample = WeightedSample(raw[:, 0], raw[:, 1])
    else:
        model = cfg.model()
        env = Environment(model, seed=int(cfg.get("seed", 0)) + offset,
                          dimension=int(cfg.require("dimension")))
        radius = int(cfg.require("box_radius"))
        if radius < 0:
            raise ConfigError("'box_radius' must be nonnegative")
        field = env.sample_field(tuple(cfg.get("box_center",
                                               [0] * env.dimension)),
                                 radius)
        sample = WeightedSample.from_values([w for _, _, w in field])
    rows = []
    for pq in cfg.require("indices"):
        p, q = float(pq[0]), float(pq[1])
        rows.append((p, q, lorentz_norm(sample, p, q)))
    _write_csv(cfg, cfg.require("output"), ["p", "q", "norm"], rows)


def _potential_from_spec(spec: dict) -> PotentialModel:
    spec = dict(spec)
    return PotentialModel(
        kind=spec.get("kind", "constant"),
        energy=float(spec.get("energy", 0.0)),
        value=float(spec.get("value", 0.0)),
        amplitude=float(spec.get("amplitude", 1.0)),
        alpha=float(spec.get("alpha", (math.sqrt(5) - 1) / 2)),
    )


def _run_lyapunov(cfg: Config, offset: int, jobs: int) -> None:
    pot = _potential_from_spec(cfg.require("potential"))
    row = _lyap_job((pot, cfg.positive_int("n_steps"),
                     cfg.positive_int("n_seeds", 8), offset))
    _write_csv(cfg, cfg.require("output"),
               ["energy", "estimate", "stderr", "ci_lo", "ci_hi"], [row])


def _lyap_job(args):
    pot, n_steps, n_seeds, offset = args
    est = lyapunov(pot, n_steps, n_seeds=n_seeds, seed0=offset)
    lo, hi = est.ci95
    return (pot.energy, est.value, est.stderr, lo, hi)


def _run_schrodinger_scan(cfg: Config, offset: int, jobs: int) -> None:
    base = dict(cfg.require("potential"))
    energies = [float(e) for e in cfg.require("energies")]
    n_steps = cfg.positive_int("n_steps")
    n_seeds = cfg.positive_int("n_seeds", 8)
    work = []
    for e in sorted(energies):
        spec = dict(base)
        spec["energy"] = e
        work.append((_potential_from_spec(spec), n_steps, n_seeds, offset))
    rows = _pmap(_lyap_job, work, jobs)
    _write_csv(cfg, cfg.require("output"),
               ["energy", "estimate", "stderr", "ci_lo", "ci_hi"], rows)


def _cocycle_from_spec(spec: dict) -> _cocycle.HilbertCocycle:
    spec = dict(spec)
    dyn_spec = dict(spec.get("dynamics", {"kind": "rotation"}))
    kind = dyn_spec.get("kind", "rotation")
    if kind == "rotation":
        alphas = dyn_spec.get("alphas", [(math.sqrt(5) - 1) / 2])
        dyn = _cocycle.CircleRotation([float(a) for a in alphas],
                                      float(dyn_spec.get("x0", 0.0)))
    elif kind == "shift":
        dyn = _cocycle.SeededShift(int(dyn_spec.get("seed", 0)),
                                   int(dyn_spec.get("dimension", 1)))
    else:
        raise ConfigError(f"unknown dynamics kind {kind!r}")

    gen_spec = dict(spec.get("generator", {"kind": "constant"}))
    gkind = gen_spec.get("kind", "constant")
    parts = []
    dim_space = int(spec.get("dim_space", 2))
    if gkind in ("constant", "mixed"):
        v = gen_spec.get("value", [1.0] * dim_space)
        parts.append(_cocycle.constant_generator([float(c) for c in v]))
        dim_space = len(v)
    if gkind in ("fourier", "mixed"):
        parts.append(_cocycle.fourier_generator(
            int(gen_spec.get("harmonic", 1))))
        dim_space = 2
    if gkind == "axis_field":
        parts.append(_cocycle.axis_field_generator(
            dim_space, float(gen_spec.get("scale", 1.0))))
    if gkind in ("coboundary", "mixed") and gen_spec.get("coboundary"):
        if kind != "rotation":
            raise ConfigError("coboundary profile needs rotation dynamics")
        amp = float(gen_spec.get("coboundary", 1.0))

        def g(dyn_, off):
            t = 2.0 * math.pi * dyn_.point(off)
            return amp * np.array([math.sin(t), math.cos(t)])

        parts.append(_cocycle.coboundary_generator(g))
    if not parts:
        raise ConfigError(f"unknown generator kind {gkind!r}")
    gen = parts[0] if len(parts) == 1 else _cocycle.add_generators(*parts)
    return _cocycle.HilbertCocycle(dim_space, dyn, gen)


def _run_kingman(cfg: Config, offset: int, jobs: int) -> None:
    c = _cocycle_from_spec(cfg.require("cocycle"))
    length = cfg.positive_int("length")
    kd = _cocycle.kingman_decompose(
        c, length, drift_orbit=cfg.positive_int("drift_orbit", 4 * length))
    rows = []
    phi_sum = 0.0
    for k in range(1, length + 1):
        phi_sum += kd.phi[k - 1]
        rows.append((k, float(kd.rho[k]), phi_sum, float(kd.remainders[k]),
                     float(kd.remainders[k] / k)))
    _write_csv(cfg, cfg.require("output"),
               ["n", "rho", "birkhoff", "remainder", "remainder_over_n"],
               rows)


def _run_horofunction(cfg: Config, offset: int, jobs: int) -> None:
    c = _cocycle_from_spec(cfg.require("cocycle"))
    eta = [float(v) for v in cfg.require("eta")]
    dm = _cocycle.drift_map(c, cfg.positive_int("drift_orbit", 4000))
    t_grid = [int(t) for t in cfg.get("t_grid", [1 << 10])]
    rows = []
    for n in cfg.require("targets"):
        n = tuple(int(v) for v in n)
        row = [*n, _cocycle.horofunction_limit(c, eta, n, dm)]
        for t in t_grid:
            m = tuple(int(round(t * v)) for v in eta)
            row.append(_cocycle.horofunction_empirical(c, m, n))
        rows.append(tuple(row))
    cols = [f"n_{k}" for k in range(c.dim_group)] + ["h_limit"]
    cols += [f"h_at_{t}" for t in t_grid]
    _write_csv(cfg, cfg.require("output"), cols, rows)


def _sample_from_spec(spec: dict):
    spec = dict(spec)
    kind = spec.get("kind")
    if kind == "rotation":
        return _cocycle.RotationSample(float(spec["alpha"]),
                                       float(spec.get("amplitude", 1.0)))
    if kind == "white":
        return _cocycle.AutocorrSample("white", float(spec.get("sigma2", 1.0)))
    if kind == "geometric":
        return _cocycle.AutocorrSample("geometric",
                                       float(spec.get("sigma2", 1.0)),
                                       float(spec["ratio"]))
    raise ConfigError(f"unknown spectral sample kind {kind!r}")


def _run_spectral_rate(cfg: Config, offset: int, jobs: int) -> None:
    sp = _sample_from_spec(cfg.require("sample"))
    try:
        rows = _cocycle.spectral_rate(sp, [int(n) for n in cfg.require("n_grid")])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _write_csv(cfg, cfg.require("output"), ["n", "R_n", "R_n_over_n"], rows)


def _run_rkhs_walk(cfg: Config, offset: int, jobs: int) -> None:
    inc = random_walk(int(cfg.get("seed", 0)) + offset,
                      int(cfg.require("length")),
                      float(cfg.get("step_scale", 0.25)))
    rows = large_scale_compare(inc)
    _write_csv(cfg, cfg.require("output"),
               ["n", "kernel_metric", "hyperbolic"], rows)


def _run_embed_check(cfg: Config, offset: int, jobs: int) -> None:
    model = cfg.model()
    env = Environment(model, seed=int(cfg.get("seed", 0)) + offset,
                      dimension=int(cfg.require("dimension")))
    sites = [tuple(int(v) for v in s) for s in cfg.require("sites")]
    cap = cfg.get("radius_cap")
    emb = structure_embed(env, sites, tol=float(cfg.get("tolerance", 1e-9)),
                          radius_cap=int(cap) if cap is not None else None)
    k = len(sites)
    sup_defect = add_defect = 0.0
    for i in range(k):
        for j in range(k):
            sup_defect = max(sup_defect,
                             abs(emb.sup_norm(i, j) - emb.dist[i, j]))
            for l in range(k):
                vec = emb.vector(i, l) + emb.vector(l, j) - emb.vector(i, j)
                add_defect = max(add_defect, float(np.max(np.abs(vec))))
    _write_json(cfg, cfg.require("output"), {
        "embedding": json.loads(emb.to_json()),
        "sup_norm_defect": sup_defect,
        "additivity_defect": add_defect,
    })
    if max(sup_defect, add_defect) > 1e-9:
        raise AssertionError("structure embedding identities violated")


def _run_path_family_audit(cfg: Config, offset: int, jobs: int) -> None:
    d = int(cfg.require("dimension"))
    max_norm = int(cfg.require("max_norm"))
    rows = []
    failures = 0
    for n in enumerate_targets(d, max_norm):
        try:
            fam = build_path_family(n)
        except ValueError:
            rows.append((*n, "rejected", 0, 0, 0.0, 1))
            continue
        a = audit_family(fam)
        failures += 0 if a.exact_ok else 1
        rows.append((*n, "built", len(fam.paths), a.off_multiplicity,
                     a.near_constant, int(a.exact_ok)))
    cols = [f"n_{k}" for k in range(d)]
    cols += ["status", "paths", "off_multiplicity", "near_constant", "ok"]
    _write_csv(cfg, cfg.require("output"), cols, rows)
    if failures:
        raise AssertionError(f"{failures} path families violated an exact "
                             "property")


_RUNNERS = {
    "shape": _run_shape,
    "maximal-tail": _run_maximal_tail,
    "lorentz-norm": _run_lorentz,
    "lyapunov": _run_lyapunov,
    "schrodinger-scan": _run_schrodinger_scan,
    "kingman": _run_kingman,
    "horofunction": _run_horofunction,
    "spectral-rate": _run_spectral_rate,
    "rkhs-walk": _run_rkhs_walk,
    "embed-check": _run_embed_check,
    "path-family-audit": _run_path_family_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shapelab",
        description="first passage percolation and cocycle experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--seed-offset", type=int, default=0)
        p.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = Config(args.config)
        if cfg.command != args.command:
            raise ConfigError(
                f"config declares command {cfg.command!r} but the "
                f"{args.command!r} subcommand was invoked")
        _RUNNERS[cfg.command](cfg, args.seed_offset, _jobs(args.jobs))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (BudgetError, ConvergenceError) as err:
        print(f"budget/convergence failure: {err}", file=sys.stderr)
        return 3
    except AssertionError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
