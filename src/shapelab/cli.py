"""Batch driver: checks a YAML experiment config, nested specs included,
against the schema tables below before any computation, runs the
experiment across seed grids, and writes plot-ready CSV/JSON artifacts.
The tables (one per command, one per kind of nested spec) are the
reference for every key: its type, bounds and default.  A config error
names the dotted key path (``potential.energy``) and the line of its
top-level key.  The library modules are bound here unrun (see
``shapelab``): checking a config runs the modules its command's table
reads, and the command's runner those it calls.

Every output file starts with a header carrying the tool version, the
hash of the raw config document, and a timestamp; identical configs
reproduce identical bytes below it.  Exit codes: 0 success, 2 config
error, 3 budget or convergence failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np
import yaml

from . import (ConvergenceError, __version__, cocycle, environment, lattice,
               lorentz, percolation, rkhs, schrodinger, shape)


class ConfigError(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path  # the dotted key path of the refused value


class BudgetError(Exception):
    pass


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _find_line(text: str, key: str) -> int | None:
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return next((i for i, line in enumerate(lines, start=1)
                 if line.startswith(f"{key}:")), None)


# --------------------------------------------------------------------------
# the config schema: types with check(value, path, done), where path is the
# dotted key path and done the top-level values checked so far


def _fail(path: str, want: str, value):
    raise ConfigError(f"{path!r} must be {want}, got {value!r}", path)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


class Float:
    """A finite number or a string that spells one (YAML reads 1e-9 as a
    string), never a bool; with finite=False, +inf too."""

    noun = "a finite number"

    def __init__(self, lo: float = -math.inf, finite: bool = True):
        self.lo, self.finite = lo, finite
        self.want = (self.noun if finite else "a number") + (
            f" at least {lo:g}" if lo > -math.inf else "")

    def check(self, value, path, done):
        try:
            x = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if not (x >= self.lo and (math.isfinite(x) or not self.finite)):
            _fail(path, self.want, value)
        return x


class Int(Float):
    """An int or an integral float that fits in int64, never a bool."""

    noun = "an int64 integer"

    def check(self, value, path, done):
        n = int(value) if isinstance(value, float) and value.is_integer() \
            else value
        if type(n) is not int or n < self.lo or abs(n) >= 2 ** 63:
            _fail(path, self.want, value)
        return n


class Str:
    want = "a string"

    def check(self, value, path, done):
        if not isinstance(value, str):
            _fail(path, self.want, value)
        return value


class List:
    """A list checked into a tuple of items of one type; length is a number
    or a function of done, scalar takes a lone item as is, and where =
    (test, want) tests the tuple."""

    want = "a list"

    def __init__(self, item, length=None, nonempty=False, scalar=False,
                 where=None):
        self.item, self.length, self.nonempty = item, length, nonempty
        self.scalar, self.where = scalar, where

    def check(self, value, path, done):
        if self.scalar and not isinstance(value, list):
            return self.item.check(value, path, done)
        n = self.length(done) if callable(self.length) else self.length
        if not (isinstance(value, list) and n in (None, len(value))
                and (value or not self.nonempty)):
            size = "" if n is None else f" of {n}"
            _fail(path, f"a {'nonempty ' if self.nonempty else ''}list"
                  f"{size}, each entry {self.item.want}", value)
        out = tuple(self.item.check(x, f"{path}[{i}]", done)
                    for i, x in enumerate(value))
        if self.where and not self.where[0](out):
            _fail(path, self.where[1], value)
        return out


class Required:
    """A key's default: none, unless the key named by unless is given."""

    def __init__(self, unless: str | None = None):
        self.unless = unless


REQUIRED, _OWN = Required(), object()


class Spec:
    """A mapping checked against a table of keys, then passed as keyword
    arguments to build (None: dict).  An entry is a type, or a (type,
    default) pair whose default is checked like a given value; a None
    default, or a null given for it, stays None.  A bare type takes
    build's own default, by leaving the key out, or is required when
    build has none."""

    want = "a mapping"

    def __init__(self, build, table: dict):
        params = inspect.signature(build).parameters if build else {}
        own = {k for k, p in params.items() if p.default is not p.empty}
        self.build = build or dict
        self.table = {k: e if isinstance(e, tuple) else
                      (e, _OWN if k in own else REQUIRED)
                      for k, e in table.items()}

    def check(self, value, path, done):
        if not isinstance(value, dict):
            _fail(path, self.want, value)
        unknown = [_join(path, k) for k in value if k not in self.table]
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}", unknown[0])
        out = {}
        done = out if done is None else done  # None at the top level
        for key, (kind, default) in self.table.items():
            where = _join(path, key)
            if key in value and not (value[key] is None and default is None):
                out[key] = kind.check(value[key], where, done)
            elif isinstance(default, Required):
                if default.unless not in value:
                    raise ConfigError(f"missing config key {where!r}", where)
                out[key] = None
            elif default is not _OWN:
                out[key] = (None if default is None
                            else kind.check(default, where, done))
        try:
            return self.build(**out)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"invalid {path!r}: {err}", path) from None


class Kinds:
    """A mapping whose 'kind' picks the Spec that checks its other keys."""

    want = "a mapping"

    def __init__(self, specs: dict, default: str | None = None):
        self.specs, self.default = specs, default

    def check(self, value, path, done):
        if not isinstance(value, dict):
            _fail(path, self.want, value)
        kind = value["kind"] if "kind" in value else self.default
        if not (isinstance(kind, str) and kind in self.specs):
            _fail(_join(path, "kind"), "one of " + ", ".join(self.specs),
                  kind)
        rest = {k: v for k, v in value.items() if k != "kind"}
        return self.specs[kind].check(rest, path, done)


class Model(Kinds):
    """Weight models, checked against the command's lattice dimension."""

    def check(self, value, path, done):
        model = super().check(value, path, done)
        try:
            if done.get("dimension") is not None:
                model.check_dimension(done["dimension"])
        except ValueError as err:
            raise ConfigError(f"invalid {path!r}: {err}", path) from None
        return model


def _group(done: dict) -> int:
    return done["cocycle"].dim_group


def _sin_cos(amp: float, points: np.ndarray) -> np.ndarray:
    t = 2.0 * math.pi * points
    return amp * np.column_stack([np.sin(t), np.cos(t)])


def _build_cocycle(dynamics, generator: dict, dim_space: int):
    """The generator sums one part per key of its kind: value (constant),
    harmonic (fourier), scale (axis field) and coboundary.  Fourier and
    coboundary parts read circle points, axis fields shift sites."""
    g = generator
    on_points = "harmonic" in g or "coboundary" in g
    if (on_points != isinstance(dynamics, cocycle.CircleRotation)
            and (on_points or "scale" in g)):
        raise ConfigError("'cocycle.generator' of this kind needs "
                          f"{'rotation' if on_points else 'shift'} dynamics",
                          "cocycle.generator")
    dim = 2 if on_points else dim_space
    parts = []
    if "value" in g:
        value = g["value"] or (1.0,) * dim
        parts.append(cocycle.constant_generator(value))
        dim = len(value)
    if "harmonic" in g:
        parts.append(cocycle.fourier_generator(g["harmonic"]))
    if "scale" in g:
        parts.append(cocycle.axis_field_generator(dim, g["scale"]))
    if g.get("coboundary") is not None:
        parts.append(cocycle.coboundary_generator(
            partial(_sin_cos, g["coboundary"]), over_points=True))
    gen = parts[0] if len(parts) == 1 else cocycle.add_generators(*parts)
    return cocycle.HilbertCocycle(dim, dynamics, gen)


FLOAT, INT, STR = Float(), Int(), Str()

# The nested spec tables and each command's table are built on first
# use, so checking a config runs only the modules its command's table
# reads.


@cache
def _model() -> Model:
    env = environment
    model = Model({cls.kind: Spec(cls, table) for cls, table in [
        (env.Constant, {"value": FLOAT}),
        (env.Exponential, {"rate": FLOAT}),
        (env.Pareto, {"shape": FLOAT, "scale": FLOAT}),
        (env.TwoValued, {"low": FLOAT, "high": FLOAT, "prob_low": FLOAT}),
        (env.Rotation, {"alpha": List(FLOAT, scalar=True),
                        "profiles": List(STR, scalar=True)})]})
    model.specs["moving_average"] = Spec(env.MovingAverage, {
        "kernel": List(FLOAT), "base": model})  # the base is itself a model
    return model


@cache
def _cocycle_spec() -> Spec:
    c = cocycle
    dynamics = Kinds({
        "rotation": Spec(c.CircleRotation, {
            "alphas": (List(FLOAT, nonempty=True),
                       [environment._GOLDEN]),
            "x0": FLOAT}),
        "shift": Spec(lambda seed, dimension: c.SeededShift(seed, dimension),
                      {"seed": (INT, 0), "dimension": (Int(1), 1)})},
        default="rotation")
    harmonic = (INT, c.HARMONIC)
    generator = Kinds({
        "constant": Spec(None, {"value": (List(FLOAT, nonempty=True), None)}),
        "fourier": Spec(None, {"harmonic": harmonic}),
        "axis_field": Spec(None, {"scale": (FLOAT, c.AXIS_SCALE)}),
        "coboundary": Spec(None, {"coboundary": FLOAT}),
        "mixed": Spec(None, {"value": (List(FLOAT, length=2), None),
                             "harmonic": harmonic,
                             "coboundary": (FLOAT, None)})},
        default="constant")
    return Spec(_build_cocycle, {"dynamics": (dynamics, {}),
                                 "generator": (generator, {}),
                                 "dim_space": (Int(1), 2)})


def _lattice() -> dict:
    return {"dimension": Int(1), "model": _model()}


def _potential() -> Spec:
    return Spec(schrodinger.PotentialModel, {
        "kind": (STR, "constant"), "energy": FLOAT, "value": FLOAT,
        "amplitude": FLOAT, "alpha": FLOAT})


def _lyapunov() -> dict:
    return {"n_steps": Int(1),
            "n_seeds": (Int(1), schrodinger.LYAPUNOV_SEEDS)}


def _sample() -> Kinds:
    c = cocycle
    return Kinds({
        "rotation": Spec(c.RotationSample, {"alpha": FLOAT,
                                            "amplitude": FLOAT}),
        "white": Spec(partial(c.AutocorrSample, "white"), {"sigma2": FLOAT}),
        "geometric": Spec(partial(c.AutocorrSample, "geometric"),
                          {"sigma2": FLOAT, "ratio": FLOAT})})


SEEDS = Spec(lambda start, count: range(start, start + count),
             {"start": INT, "count": Int(1)})
_SEED = (INT, 0)
_SITE = List(INT, length=lambda done: done["dimension"])
_CSV_OR = Required(unless="samples_csv")
_TABLES = {
    "shape": lambda: {
        **_lattice(), "seeds": SEEDS, "n_max": Int(4),
        "directions": (List(_SITE, where=(
            lambda dirs: all(map(any, dirs)), "a list of nonzero vectors")),
            None),
        "direction_richness": (Int(1), 1),
        "tolerance": (Float(0), shape.DIRECTIONAL_TOL),
        "polytope_output": (STR, None)},
    "maximal-tail": lambda: {
        **_lattice(), "seeds": SEEDS, "window_radius": Int(1),
        "lambda_grid": List(Float(1), nonempty=True)},
    "lorentz-norm": lambda: {
        "samples_csv": (STR, None), "dimension": (Int(1), _CSV_OR),
        "model": (_model(), _CSV_OR), "seed": _SEED,
        "box_center": (_SITE, None),
        # a box of radius 0 holds no edge, so no sample
        "box_radius": (Int(1), _CSV_OR),
        "indices": List(List(Float(1, finite=False), length=2))},
    "lyapunov": lambda: {"potential": _potential(), **_lyapunov()},
    "schrodinger-scan": lambda: {"potential": _potential(),
                                 "energies": List(FLOAT), **_lyapunov()},
    "kingman": lambda: {"cocycle": _cocycle_spec(), "length": Int(1),
                        "drift_orbit": (Int(1), None)},
    "horofunction": lambda: {
        "cocycle": _cocycle_spec(), "eta": List(FLOAT, length=_group),
        "targets": List(List(INT, length=_group)),
        "t_grid": (List(INT), [1 << 10]), "drift_orbit": (Int(1), 4000)},
    "spectral-rate": lambda: {"sample": _sample(),
                              "n_grid": List(Int(1))},
    "rkhs-walk": lambda: {"seed": _SEED, "length": Int(1), "step_scale": (
        FLOAT, rkhs.STEP_SCALE)},
    "embed-check": lambda: {
        **_lattice(), "seed": _SEED, "radius_cap": (Int(1), None),
        "sites": List(_SITE, nonempty=True, where=(
            lambda s: len(set(s)) == len(s), "a list of distinct sites")),
        "tolerance": (Float(0), percolation.EMBED_TOL)},
    "path-family-audit": lambda: {"dimension": Int(1), "max_norm": Int(1)},
}
COMMANDS = tuple(_TABLES)


@cache
def _schema(command: str) -> Spec:
    return Spec(None, {"command": STR, **_TABLES[command](), "output": STR})


class Config:
    """A config checked against its command's table: ``values`` holds each
    key of the table, given or default; ``doc`` is the raw document, which
    the config hash covers."""

    def __init__(self, path: Path):
        try:
            text = Path(path).read_text()
            doc = yaml.safe_load(text)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from None
        except yaml.YAMLError as err:
            raise ConfigError(f"config parse error: {err}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a mapping")
        self.doc, self.command = doc, doc.get("command")
        if self.command not in COMMANDS:
            raise ConfigError(
                f"config needs a 'command' key, one of {', '.join(COMMANDS)}")
        try:
            self.values = _schema(self.command).check(doc, "", None)
        except ConfigError as err:
            line = _find_line(text, err.path.split(".")[0].split("[")[0])
            where = f" (line {line})" if line else ""
            raise ConfigError(f"{err}{where}", err.path) from None

    def __getitem__(self, key: str):
        return self.values[key]

    def sha256(self) -> str:
        canon = json.dumps(self.doc, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()


def _header(cfg: Config) -> list[str]:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [f"# shapelab {__version__}", f"# command: {cfg.command}",
            f"# config-sha256: {cfg.sha256()}", f"# timestamp: {stamp}"]


def _write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(cfg: Config, columns: list[str], rows: list[tuple]) -> None:
    lines = _header(cfg) + [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(cfg["output"], "\n".join(lines) + "\n")


def _write_json(cfg: Config, path: Path, payload) -> None:
    doc = {"tool": f"shapelab {__version__}", "command": cfg.command,
           "config_sha256": cfg.sha256(), "payload": payload}
    _write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _jobs(cli_jobs: int | None) -> int:
    if cli_jobs is not None:
        return max(1, cli_jobs)
    env = os.environ.get("SHAPELAB_JOBS")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise ConfigError(f"SHAPELAB_JOBS must be an integer, got {env!r}",
                          "SHAPELAB_JOBS") from None


def _pmap(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# per-command runners; each reads the checked values of its table and
# runs the modules it calls


def _run_shape(cfg: Config, offset: int, jobs: int) -> None:
    d, n_max = cfg["dimension"], cfg["n_max"]
    seeds = [s + offset for s in cfg["seeds"]]
    dirs = cfg["directions"]
    if dirs is None:
        dirs = shape.default_directions(d, cfg["direction_richness"])
    dirs = sorted(dirs)
    if cfg["polytope_output"]:
        try:
            shape.check_directions(dirs, d)
        except ValueError as err:
            raise ConfigError(f"invalid 'directions': {err}",
                              "directions") from None
    job = partial(shape.directional_constant, cfg["model"], seeds,
                  n_max=n_max, dimension=d, tol=cfg["tolerance"])
    est = shape.ShapeEstimate(directions=tuple(dirs),
                              series=tuple(_pmap(job, dirs, jobs)),
                              n_max=n_max, n_seeds=len(seeds))

    columns = [f"dir_{k}" for k in range(d)] + ["L", "stderr", "excluded",
                                                "flagged"]
    columns += [f"a_{k}" for k in range(1, n_max + 1)]
    rows = [(*s.direction, s.estimate, s.estimate_stderr, s.excluded_fraction,
             int(s.flagged), *(float(x) for x in s.means)) for s in est.series]
    _write_csv(cfg, columns, rows)
    if cfg["polytope_output"]:
        _write_json(cfg, cfg["polytope_output"],
                    {"unit_ball_vertices": est.unit_ball_vertices().tolist()})
    if est.flagged:
        raise BudgetError("one or more directions exceeded the 10% "
                          "nonconvergence budget")


def _run_maximal_tail(cfg: Config, offset: int, jobs: int) -> None:
    seeds = [s + offset for s in cfg["seeds"]]
    stats = shape.sample_maximal_stats(cfg["model"], seeds, cfg["window_radius"],
                                 cfg["lambda_grid"], cfg["dimension"])
    _write_csv(cfg, ["lambda", "tail", "product"],
               stats.tail_products(cfg["dimension"]))


def _run_lorentz_norm(cfg: Config, offset: int, jobs: int) -> None:
    if cfg["samples_csv"] is not None:
        try:
            raw = np.loadtxt(cfg["samples_csv"], delimiter=",", ndmin=2)
            sample = lorentz.WeightedSample(raw[:, 0], raw[:, 1])
        except (OSError, ValueError, IndexError) as err:
            raise ConfigError(f"'samples_csv' must name a CSV file of value, "
                              f"mass rows: {err}", "samples_csv") from None
    else:
        d = cfg["dimension"]
        env = environment.Environment(cfg["model"], seed=cfg["seed"] + offset,
                                      dimension=d)
        sample = lorentz.sample_from_environment(env, cfg["box_center"] or (0,) * d,
                                         cfg["box_radius"])
    rows = [(p, q, lorentz.lorentz_norm(sample, p, q)) for p, q in cfg["indices"]]
    _write_csv(cfg, ["p", "q", "norm"], rows)


def _run_lyapunov(cfg: Config, offset: int, jobs: int,
                  potentials=None) -> None:
    if potentials is None:
        potentials = [cfg["potential"]]
    work = [(pot, cfg["n_steps"], cfg["n_seeds"], offset)
            for pot in potentials]
    _write_csv(cfg, ["energy", "estimate", "stderr", "ci_lo", "ci_hi"],
               _pmap(_lyap_job, work, jobs))


def _lyap_job(args):
    pot, n_steps, n_seeds, offset = args
    est = schrodinger.lyapunov(pot, n_steps, n_seeds=n_seeds, seed0=offset)
    lo, hi = est.ci95
    return (pot.energy, est.value, est.stderr, lo, hi)


def _run_schrodinger_scan(cfg: Config, offset: int, jobs: int) -> None:
    _run_lyapunov(cfg, offset, jobs, [replace(cfg["potential"], energy=e)
                                      for e in sorted(cfg["energies"])])


def _cocycle_from_spec(spec: dict):
    """The cocycle of a raw 'cocycle' spec, checked against the schema."""
    return _cocycle_spec().check(spec, "cocycle", {})


def _run_kingman(cfg: Config, offset: int, jobs: int) -> None:
    length = cfg["length"]
    # without drift_orbit, kingman_decompose picks its own default
    kd = cocycle.kingman_decompose(cfg["cocycle"], length,
                                    drift_orbit=cfg["drift_orbit"])
    rows = []
    phi_sum = 0.0
    for k in range(1, length + 1):
        phi_sum += kd.phi[k - 1]
        rows.append((k, float(kd.rho[k]), phi_sum, float(kd.remainders[k]),
                     float(kd.remainders[k] / k)))
    _write_csv(cfg, ["n", "rho", "birkhoff", "remainder", "remainder_over_n"],
               rows)


def _run_horofunction(cfg: Config, offset: int, jobs: int) -> None:
    c, eta, t_grid = cfg["cocycle"], cfg["eta"], cfg["t_grid"]
    dm = cocycle.drift_map(c, cfg["drift_orbit"])
    rows = []
    for n in cfg["targets"]:
        try:
            row = [*n, cocycle.horofunction_limit(c, eta, n, dm)]
        except cocycle.DegenerateDirectionError as err:
            raise ConfigError(f"invalid 'eta': {err}", "eta") from None
        for t in t_grid:
            m = tuple(int(round(t * x)) for x in eta)
            row.append(cocycle.horofunction_empirical(c, m, n))
        rows.append(tuple(row))
    cols = [f"n_{k}" for k in range(c.dim_group)] + ["h_limit"]
    cols += [f"h_at_{t}" for t in t_grid]
    _write_csv(cfg, cols, rows)


def _run_spectral_rate(cfg: Config, offset: int, jobs: int) -> None:
    try:
        rows = cocycle.spectral_rate(cfg["sample"], cfg["n_grid"])
    except ValueError as err:
        raise ConfigError(f"invalid 'sample': {err}", "sample") from None
    _write_csv(cfg, ["n", "R_n", "R_n_over_n"], rows)


def _run_rkhs_walk(cfg: Config, offset: int, jobs: int) -> None:
    inc = rkhs.random_walk(cfg["seed"] + offset, cfg["length"], cfg["step_scale"])
    _write_csv(cfg, ["n", "kernel_metric", "hyperbolic"],
               rkhs.large_scale_compare(inc))


def _run_embed_check(cfg: Config, offset: int, jobs: int) -> None:
    env = environment.Environment(cfg["model"], seed=cfg["seed"] + offset,
                                  dimension=cfg["dimension"])
    emb = percolation.structure_embed(env, list(cfg["sites"]), tol=cfg["tolerance"],
                          radius_cap=cfg["radius_cap"])
    dist = emb.dist
    sup_defect = add_defect = 0.0
    # row j of dist[i] - dist.T is emb.vector(i, j): one (k, k) table per
    # row i, and per (i, l) the identity over every j at once
    for i in range(len(dist)):
        table = dist[i] - dist.T
        sup_defect = max(sup_defect, float(np.max(np.abs(
            np.abs(table).max(axis=1) - dist[i]))))
        for l in range(len(dist)):
            vec = table[l] + (dist[l] - dist.T) - table
            add_defect = max(add_defect, float(np.max(np.abs(vec))))
    _write_json(cfg, cfg["output"], {
        "embedding": json.loads(emb.to_json()),
        "sup_norm_defect": sup_defect,
        "additivity_defect": add_defect,
    })
    if max(sup_defect, add_defect) > 1e-9:
        raise AssertionError("structure embedding identities violated")


def _run_path_family_audit(cfg: Config, offset: int, jobs: int) -> None:
    d = cfg["dimension"]
    rows = []
    for n in lattice.enumerate_targets(d, cfg["max_norm"]):
        try:
            fam = lattice.build_path_family(n)
        except ValueError:
            rows.append((*n, "rejected", 0, 0, 0.0, 1))
            continue
        a = lattice.audit_family(fam)
        rows.append((*n, "built", fam.path_count, a.off_multiplicity,
                     a.near_constant, int(a.exact_ok)))
    cols = [f"n_{k}" for k in range(d)]
    cols += ["status", "paths", "off_multiplicity", "near_constant", "ok"]
    _write_csv(cfg, cols, rows)
    failures = sum(1 for row in rows if row[-1] == 0)
    if failures:
        raise AssertionError(f"{failures} path families violated an exact "
                             "property")


# the runner of each command is _run_<command>, with '_' for '-'
_RUNNERS = {c: globals()["_run_" + c.replace("-", "_")] for c in COMMANDS}


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
    # sample_field and BoxGraph raise MemoryError for a box above their
    # edge or site limit, before they allocate the box
    except (BudgetError, ConvergenceError, MemoryError) as err:
        print(f"budget/convergence failure: {err}", file=sys.stderr)
        return 3
    except AssertionError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
