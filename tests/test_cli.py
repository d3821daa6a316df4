import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from shapelab.cli import Config, _cocycle_spec, main
from shapelab.cocycle import kingman_decompose

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _run(tmp_path, doc, command=None, extra_args=()):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    argv = [command or doc["command"], str(cfg), *extra_args]
    return main(argv)


def _body(path):
    return "\n".join(line for line in Path(path).read_text().splitlines()
                     if not line.startswith("#"))


def test_unknown_key_rejected_with_line(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("command: rkhs-walk\nlength: 5\nbogus_key: 1\noutput: o.csv\n")
    code = main(["rkhs-walk", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bogus_key" in err and "line 3" in err


def test_command_mismatch_is_config_error(tmp_path):
    doc = {"command": "rkhs-walk", "length": 5,
           "output": str(tmp_path / "o.csv")}
    assert _run(tmp_path, doc, command="kingman") == 2


def test_missing_required_key(tmp_path, capsys):
    doc = {"command": "rkhs-walk", "output": str(tmp_path / "o.csv")}
    assert _run(tmp_path, doc) == 2
    assert "length" in capsys.readouterr().err


def test_shape_constant_column(tmp_path):
    out = tmp_path / "shape.csv"
    doc = {
        "command": "shape",
        "dimension": 2,
        "model": {"kind": "constant", "value": 2.0},
        "seeds": {"start": 0, "count": 2},
        "directions": [[1, 0], [0, 1], [1, 1]],
        "n_max": 4,
        "output": str(out),
        "polytope_output": str(tmp_path / "ball.json"),
    }
    assert _run(tmp_path, doc) == 0
    body = _body(out).splitlines()
    header = body[0].split(",")
    li = header.index("L")
    for line in body[1:]:
        assert float(line.split(",")[li]) == 2.0
    ball = json.loads((tmp_path / "ball.json").read_text())
    verts = np.asarray(ball["payload"]["unit_ball_vertices"])
    assert np.max(np.abs(np.sum(np.abs(verts), axis=1) - 0.5)) < 1e-9


def test_lyapunov_constant_oracle(tmp_path):
    out = tmp_path / "lyap.csv"
    doc = {
        "command": "lyapunov",
        "potential": {"kind": "constant", "value": 0.0, "energy": 3.0},
        "n_steps": 4000,
        "n_seeds": 2,
        "output": str(out),
    }
    assert _run(tmp_path, doc) == 0
    row = _body(out).splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.log((3 + math.sqrt(5)) / 2),
                                          abs=1e-6)


def test_spectral_rate_rejects_atom(tmp_path):
    doc = {
        "command": "spectral-rate",
        "sample": {"kind": "rotation", "alpha": 0.0},
        "n_grid": [1, 2, 4],
        "output": str(tmp_path / "r.csv"),
    }
    assert _run(tmp_path, doc) == 2


def test_embed_check_writes_defects(tmp_path):
    out = tmp_path / "emb.json"
    doc = {
        "command": "embed-check",
        "model": {"kind": "exponential", "rate": 1.0},
        "dimension": 2,
        "seed": 3,
        "sites": [[0, 0], [1, 1], [-1, 2]],
        "output": str(out),
    }
    assert _run(tmp_path, doc) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["sup_norm_defect"] <= 1e-12
    assert payload["additivity_defect"] <= 1e-12


def test_seed_offset_changes_output(tmp_path):
    doc = {
        "command": "maximal-tail",
        "dimension": 2,
        "model": {"kind": "exponential", "rate": 1.0},
        "seeds": {"start": 0, "count": 25},
        "window_radius": 3,
        "lambda_grid": [1.0, 2.0],
        "output": str(tmp_path / "t.csv"),
    }
    assert _run(tmp_path, doc) == 0
    first = _body(tmp_path / "t.csv")
    assert _run(tmp_path, doc, extra_args=["--seed-offset", "1000"]) == 0
    second = _body(tmp_path / "t.csv")
    assert first != second


def test_jobs_flag_does_not_change_output(tmp_path):
    doc = {
        "command": "shape",
        "dimension": 2,
        "model": {"kind": "two_valued", "low": 1.0, "high": 2.0},
        "seeds": {"start": 0, "count": 3},
        "directions": [[1, 0], [0, 1], [1, 1], [1, -1]],
        "n_max": 4,
        "output": str(tmp_path / "s.csv"),
    }
    assert _run(tmp_path, doc) == 0
    serial = _body(tmp_path / "s.csv")
    assert _run(tmp_path, doc, extra_args=["--jobs", "3"]) == 0
    assert _body(tmp_path / "s.csv") == serial


def test_shape_jobs_start_no_worker(tmp_path, monkeypatch):
    # one scan serves every direction, in this process: --jobs 3 starts no
    # worker and writes the bytes of --jobs 1
    import concurrent.futures

    def refused(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    doc = yaml.safe_load((CONFIG_DIR / "shape_two_valued.yaml").read_text())
    outputs = []
    for jobs in ("1", "3"):
        doc["output"] = str(tmp_path / f"jobs{jobs}.csv")
        assert _run(tmp_path, doc, extra_args=["--jobs", jobs]) == 0
        outputs.append(_body(doc["output"]).encode())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refused)
    assert outputs[0] == outputs[1]


def test_full_round_trip_floats(tmp_path):
    doc = {
        "command": "rkhs-walk",
        "seed": 1,
        "length": 20,
        "output": str(tmp_path / "w.csv"),
    }
    assert _run(tmp_path, doc) == 0
    for line in _body(tmp_path / "w.csv").splitlines()[1:]:
        _, d, beta = line.split(",")
        assert repr(float(d)) == d and repr(float(beta)) == beta


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_config_hash_is_the_sha256_of_the_canonical_document(config):
    import hashlib

    cfg = Config(config)
    canon = json.dumps(yaml.safe_load(config.read_text()), sort_keys=True,
                       default=str)
    assert cfg.sha256() == hashlib.sha256(canon.encode()).hexdigest()


def test_header_carries_hash_and_version(tmp_path):
    doc = {"command": "rkhs-walk", "length": 5,
           "output": str(tmp_path / "w.csv")}
    assert _run(tmp_path, doc) == 0
    head = (tmp_path / "w.csv").read_text().splitlines()[:4]
    assert head[0].startswith("# shapelab ")
    assert any("config-sha256" in h for h in head)
    assert any("timestamp" in h for h in head)


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_shipped_configs_run_and_rerun_identically(config, tmp_path,
                                                   monkeypatch):
    doc = yaml.safe_load(config.read_text())
    for key in ("output", "polytope_output"):
        if key in doc:
            doc[key] = str(tmp_path / Path(doc[key]).name)
    # the full two-valued shape config is exercised by the acceptance
    # suite; shrink it here to keep the unit tests quick
    if config.stem == "shape_two_valued":
        doc["seeds"] = {"start": 0, "count": 3}
        doc["n_max"] = 5
    if config.stem == "maximal_tail":
        doc["seeds"] = {"start": 0, "count": 40}
    cfg = tmp_path / config.name
    cfg.write_text(yaml.safe_dump(doc))
    assert main([doc["command"], str(cfg)]) == 0
    first = _body(doc["output"])
    assert main([doc["command"], str(cfg)]) == 0
    assert _body(doc["output"]) == first
    assert first.strip()


def test_convergence_failure_exit_code(tmp_path):
    doc = {
        "command": "embed-check",
        "model": {"kind": "pareto", "shape": 0.8},
        "dimension": 2,
        "seed": 1,
        "sites": [[0, 0], [5, 0]],
        "radius_cap": 11,
        "output": str(tmp_path / "emb.json"),
    }
    assert _run(tmp_path, doc) == 3


@pytest.mark.parametrize("cap", [1, 6])
def test_embed_radius_cap_below_the_first_box_exits_2(tmp_path, capsys, cap):
    # the six shipped sites lie 3 from their midpoint, so the first box has
    # radius 6: a cap below it is refused before any search
    doc = yaml.safe_load((CONFIG_DIR / "embed_check.yaml").read_text())
    out = tmp_path / "emb.json"
    doc.update(model={"kind": "constant", "value": 1.0}, radius_cap=cap,
               output=str(out))
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    if cap == 1:
        assert code == 2 and not out.exists()
        assert err.startswith("config error: invalid 'radius_cap': radius "
                              "cap 1 lies below the first radius 6")
        assert "Traceback" not in err
    else:
        assert code == 0 and err == ""
        payload = json.loads(out.read_text())["payload"]
        assert payload["embedding"]["box_radius_used"] == 6


def _assert_config_error(tmp_path, capsys, doc, key):
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and key in err


def _maximal_tail_doc(tmp_path, **overrides):
    doc = {
        "command": "maximal-tail",
        "dimension": 2,
        "model": {"kind": "exponential", "rate": 1.0},
        "seeds": {"start": 0, "count": 3},
        "window_radius": 2,
        "lambda_grid": [1.0, 2.0],
        "output": str(tmp_path / "t.csv"),
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("kind", ["nope", "bernoulli_mix"])
def test_unknown_model_kind_is_config_error(tmp_path, capsys, kind):
    doc = _maximal_tail_doc(tmp_path, model={"kind": kind, "low": 1.0,
                                             "high": 2.0})
    _assert_config_error(tmp_path, capsys, doc, "model")


def test_model_missing_parameter_is_config_error(tmp_path, capsys):
    doc = _maximal_tail_doc(tmp_path, model={"kind": "two_valued",
                                             "high": 2.0})
    _assert_config_error(tmp_path, capsys, doc, "low")


def test_empty_seed_range_is_config_error(tmp_path, capsys):
    doc = {
        "command": "shape",
        "dimension": 2,
        "model": {"kind": "constant", "value": 1.0},
        "seeds": {"start": 0, "count": 0},
        "n_max": 4,
        "output": str(tmp_path / "shape.csv"),
    }
    _assert_config_error(tmp_path, capsys, doc, "seeds")


def test_negative_box_radius_is_config_error(tmp_path, capsys):
    doc = {
        "command": "lorentz-norm",
        "model": {"kind": "exponential", "rate": 1.0},
        "dimension": 2,
        "box_radius": -1,
        "indices": [[1.0, 1.0]],
        "output": str(tmp_path / "l.csv"),
    }
    _assert_config_error(tmp_path, capsys, doc, "box_radius")


def _shape_doc(tmp_path, **overrides):
    doc = {
        "command": "shape",
        "dimension": 2,
        "model": {"kind": "constant", "value": 1.0},
        "seeds": {"start": 0, "count": 1},
        "directions": [[1, 0], [0, 1]],
        "n_max": 4,
        "output": str(tmp_path / "shape.csv"),
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("make, overrides, key", [
    (_shape_doc, {"n_max": 3}, "n_max"),
    (_shape_doc, {"directions": [[1, 0], [0, 1, 0]]}, "directions"),
    (_maximal_tail_doc, {"window_radius": 0}, "window_radius"),
    (_maximal_tail_doc, {"lambda_grid": [0.5, 2.0]}, "lambda_grid"),
], ids=["n_max", "directions", "window_radius", "lambda_grid"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, make,
                                            overrides, key):
    _assert_config_error(tmp_path, capsys, make(tmp_path, **overrides), key)


def test_shape_polytope_needs_spanning_directions(tmp_path, capsys):
    # two collinear directions give no unit ball: refused before anything
    # runs or is written; without a polytope the same scan runs
    ball = tmp_path / "ball.json"
    doc = _shape_doc(tmp_path, directions=[[1, 0], [2, 0]],
                     polytope_output=str(ball))
    _assert_config_error(tmp_path, capsys, doc, "directions")
    assert not ball.exists() and not (tmp_path / "shape.csv").exists()
    del doc["polytope_output"]
    assert _run(tmp_path, doc) == 0


@pytest.mark.parametrize("sites", [[[0, 0], [1, 1], [0, 0]],
                                   [[0, 0, 0], [1, 1, 1]]],
                         ids=["duplicate", "wrong_length"])
def test_bad_embed_sites_is_config_error(tmp_path, capsys, sites):
    doc = {
        "command": "embed-check",
        "model": {"kind": "exponential", "rate": 1.0},
        "dimension": 2,
        "sites": sites,
        "output": str(tmp_path / "emb.json"),
    }
    _assert_config_error(tmp_path, capsys, doc, "sites")


def test_lorentz_box_above_edge_limit_exits_3(tmp_path, capsys, monkeypatch):
    # a d=1 box of radius R holds 2R + 1 sites, a graph and edge sample
    # of about 57 MB at this radius, and is refused before any site is
    # built
    from shapelab import lattice

    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 5 * 10 ** 7)
    doc = {
        "command": "lorentz-norm",
        "model": {"kind": "exponential", "rate": 1.0},
        "dimension": 1,
        "box_radius": 1_000_001,
        "indices": [[1.0, 1.0]],
        "output": str(tmp_path / "l.csv"),
    }
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert "box graph of 2000003 sites needs" in err
    assert "above the memory budget of 50000000 bytes" in err


def test_shape_without_converged_distances_exits_3(tmp_path, capsys,
                                                   monkeypatch):
    # a radius cap of one round leaves the k=4 distance of this seed open,
    # and tolerance 0 converges nothing
    from functools import partial
    from shapelab import shape

    monkeypatch.setattr(shape, "_direction_profile", partial(
        shape._direction_profile, radius_cap_factor=2))
    doc = {
        "command": "shape",
        "dimension": 2,
        "model": {"kind": "exponential", "rate": 1.0},
        "seeds": {"start": 9, "count": 1},
        "directions": [[1, 0]],
        "n_max": 4,
        "tolerance": 0,
        "output": str(tmp_path / "shape.csv"),
    }
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and "no converged distances at k=4" in err


@pytest.mark.parametrize("command", ["lyapunov", "schrodinger-scan"])
def test_nonpositive_n_steps_is_config_error(tmp_path, capsys, command):
    doc = {
        "command": command,
        "potential": {"kind": "bernoulli"},
        "n_steps": 0,
        "output": str(tmp_path / "lyap.csv"),
    }
    if command == "schrodinger-scan":
        doc["energies"] = [0.0]
    _assert_config_error(tmp_path, capsys, doc, "n_steps")


def test_zero_drift_orbit_is_config_error(tmp_path, capsys):
    doc = {
        "command": "kingman",
        "cocycle": {"generator": {"kind": "fourier"}},
        "length": 10,
        "drift_orbit": 0,
        "output": str(tmp_path / "k.csv"),
    }
    _assert_config_error(tmp_path, capsys, doc, "drift_orbit")


def test_commands_without_box_graphs_leave_scipy_unloaded(tmp_path):
    # no command imports scipy, those that search box graphs included
    kingman = {"command": "kingman", "length": 50, "drift_orbit": 200,
               "cocycle": {"generator": {"kind": "mixed", "value": [2.0, 0.0],
                                         "coboundary": 1.0}},
               "output": str(tmp_path / "k.csv")}
    audit = {"command": "path-family-audit", "dimension": 3, "max_norm": 3,
             "output": str(tmp_path / "a.csv")}
    shape = _shape_doc(tmp_path)
    tail = _maximal_tail_doc(tmp_path)
    embed = _embed_doc(tmp_path)
    runs = []
    for doc in (kingman, audit, shape, tail, embed):
        cfg = tmp_path / f"{doc['command']}.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        runs.append([doc["command"], str(cfg)])
    code = ("import sys\n"
            "from shapelab import cli\n"
            "for argv in " + repr(runs) + ":\n"
            "    print(cli.main(argv), sorted(m for m in sys.modules\n"
            "          if m.partition('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["0 []"] * len(runs)


# the shapelab modules run by the end of a run of each command: its
# table's modules and its runner's, no others
_RUN_MODULES = {
    "shape": ["_runs", "environment", "lattice", "percolation", "shape"],
    "schrodinger-scan": ["environment", "schrodinger"],
    "lyapunov": ["environment", "schrodinger"],
    "kingman": ["cocycle", "environment", "lattice"],
    "horofunction": ["cocycle", "environment"],
    "rkhs-walk": ["environment", "rkhs"],
    "spectral-rate": ["cocycle", "environment"],
    "path-family-audit": ["_pathfamily", "lattice"],
}


def test_commands_import_only_their_own_modules(tmp_path):
    cocycle = {"dynamics": {"kind": "shift", "seed": 9, "dimension": 2},
               "generator": {"kind": "axis_field"}, "dim_space": 3}
    docs = [
        {"command": "schrodinger-scan", "energies": [0.0, 1.0],
         "potential": {"kind": "bernoulli", "amplitude": 1.0},
         "n_steps": 50, "n_seeds": 2},
        {"command": "lyapunov", "n_steps": 50,
         "potential": {"kind": "constant", "value": 0.0, "energy": 3.0}},
        {"command": "kingman", "length": 20, "drift_orbit": 100,
         "cocycle": {"generator": {"kind": "mixed", "value": [2.0, 0.0],
                                   "coboundary": 1.0}}},
        {"command": "horofunction", "cocycle": cocycle, "eta": [1.0, 0.0],
         "targets": [[1, 0]], "t_grid": [4], "drift_orbit": 100},
        {"command": "rkhs-walk", "seed": 1, "length": 20},
        {"command": "spectral-rate", "n_grid": [1, 4],
         "sample": {"kind": "geometric", "sigma2": 1.0, "ratio": 0.5}},
        {"command": "path-family-audit", "dimension": 3, "max_norm": 2},
        # default directions, the box graphs and their searches
        {"command": "shape", "dimension": 2, "n_max": 4,
         "model": {"kind": "exponential"}, "seeds": {"start": 0, "count": 1},
         "direction_richness": 2},
    ]
    assert sorted(d["command"] for d in docs) == sorted(_RUN_MODULES)
    # every library module is registered on import; type() reads a
    # registered module without running it, and is ModuleType once it ran
    code = ("import sys, types\n"
            "def run():\n"
            "    return [m for m, v in sorted(sys.modules.items())\n"
            "            if m.partition('.')[0] == 'shapelab'\n"
            "            and type(v) is types.ModuleType]\n"
            "import shapelab\n"
            "from shapelab import cli\n"
            "print(run())\n"
            "print(all(f'shapelab.{m}' in sys.modules for m in "
            "shapelab._LAZY))\n"
            "print(cli.main(sys.argv[1:]), run(),\n"
            "      'concurrent.futures' in sys.modules,\n"
            "      '_hashlib' in sys.modules, 'numpy.ma' in sys.modules)\n")
    for doc in docs:
        command = doc["command"]
        cfg = tmp_path / f"{command}.yaml"
        cfg.write_text(yaml.safe_dump({**doc, "output": str(
            tmp_path / f"{command}.csv")}))
        out = subprocess.run(
            [sys.executable, "-c", code, command, str(cfg), "--jobs", "1"],
            capture_output=True, text=True, check=True).stdout.splitlines()
        want = ["shapelab", "shapelab.cli"] + [
            f"shapelab.{m}" for m in _RUN_MODULES[command]]
        assert out == [repr(["shapelab", "shapelab.cli"]), "True",
                       f"0 {sorted(want)!r} False False False"], command


def test_every_library_module_is_registered_lazily():
    import shapelab

    package = Path(shapelab.__file__).parent
    assert set(shapelab._LAZY) == {
        p.stem for p in package.glob("*.py")} - {"__init__", "cli"}


def test_config_tables_hold_with_library_functions_wrapped(monkeypatch):
    # a tracer may wrap library functions without functools.wraps, which
    # hides their signatures: no table may read its defaults from one
    import types

    import shapelab
    from shapelab import cli

    def wrap(fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)
        return wrapper

    for name in shapelab._LAZY:
        module = getattr(shapelab, name)
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__):
                monkeypatch.setattr(module, attr, wrap(value))
    caches = (cli._schema, cli._model, cli._cocycle_spec)
    for fn in caches:
        fn.cache_clear()
    try:
        for command in cli.COMMANDS:
            cli._schema(command)
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            assert Config(path).command in cli.COMMANDS
    finally:
        for fn in caches:
            fn.cache_clear()


def test_kingman_default_drift_orbit_matches_library(tmp_path):
    spec = {"dynamics": {"kind": "rotation", "alphas": [0.41421356237309515]},
            "generator": {"kind": "mixed", "value": [2.0, 0.0],
                          "coboundary": 1.0}}
    out = tmp_path / "k.csv"
    doc = {"command": "kingman", "cocycle": spec, "length": 10,
           "output": str(out)}
    assert _run(tmp_path, doc) == 0
    kd = kingman_decompose(_cocycle_spec().check(spec, "cocycle", {}), 10)
    rows = [line.split(",") for line in _body(out).splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [float(v) for v in kd.rho[1:]]
    assert [float(r[3]) for r in rows] == [float(v) for v in kd.remainders[1:]]


def _lorentz_doc(tmp_path, **overrides):
    doc = {
        "command": "lorentz-norm",
        "model": {"kind": "exponential", "rate": 1.0},
        "dimension": 2,
        "box_radius": 3,
        "indices": [[1.0, 1.0]],
        "output": str(tmp_path / "l.csv"),
    }
    doc.update(overrides)
    return doc


def _embed_doc(tmp_path, **overrides):
    doc = {
        "command": "embed-check",
        "model": {"kind": "exponential", "rate": 1.0},
        "dimension": 2,
        "sites": [[0, 0], [1, 1]],
        "output": str(tmp_path / "emb.json"),
    }
    doc.update(overrides)
    return doc


def _audit_doc(tmp_path, **overrides):
    doc = {"command": "path-family-audit", "dimension": 2, "max_norm": 3,
           "output": str(tmp_path / "a.csv")}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("make", [_shape_doc, _maximal_tail_doc,
                                  _lorentz_doc, _embed_doc, _audit_doc],
                         ids=["shape", "maximal-tail", "lorentz-norm",
                              "embed-check", "path-family-audit"])
@pytest.mark.parametrize("dimension", ["two", 0, None])
def test_bad_dimension_is_config_error(tmp_path, capsys, make, dimension):
    _assert_config_error(tmp_path, capsys,
                         make(tmp_path, dimension=dimension), "dimension")


@pytest.mark.parametrize("center", [[0, 0, 0], [0], "origin", [0.5, 0],
                                    [True, 0]])
def test_bad_box_center_is_config_error(tmp_path, capsys, center):
    _assert_config_error(tmp_path, capsys,
                         _lorentz_doc(tmp_path, box_center=center),
                         "box_center")


@pytest.mark.parametrize("make", [_shape_doc, _embed_doc],
                         ids=["shape", "embed-check"])
@pytest.mark.parametrize("tolerance", ["abc", -1e-9, float("nan"),
                                       float("inf"), True, [1e-9]])
def test_bad_tolerance_is_config_error(tmp_path, capsys, make, tolerance):
    _assert_config_error(tmp_path, capsys,
                         make(tmp_path, tolerance=tolerance), "tolerance")


def test_tolerance_in_exponent_form_is_accepted(tmp_path):
    # YAML reads 1e-9 (no decimal point) as a string
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(_shape_doc(tmp_path)) + "tolerance: 1e-9\n")
    assert yaml.safe_load(cfg.read_text())["tolerance"] == "1e-9"
    assert main(["shape", str(cfg)]) == 0


def test_two_valued_shape_with_zero_tolerance_is_certified(tmp_path):
    # no value ever moves by less than 0, but every two-valued distance
    # here is certified exact in the first box
    doc = _shape_doc(tmp_path, model={"kind": "two_valued", "low": 1.0,
                                      "high": 2.0, "prob_low": 0.5},
                     seeds={"start": 0, "count": 3}, tolerance=0)
    assert _run(tmp_path, doc) == 0
    lines = [ln for ln in (tmp_path / "shape.csv").read_text().splitlines()
             if not ln.startswith("#")]
    excluded = lines[0].split(",").index("excluded")
    assert [float(ln.split(",")[excluded]) for ln in lines[1:]] == [0.0, 0.0]


@pytest.mark.parametrize("make, what", [
    (_shape_doc, "1048576 seeds' profile of 4 multiples of each of "
                 "[(0, 1), (1, 0)]"),
    (_maximal_tail_doc, "the environments of 1048576 seeds"),
], ids=["shape", "maximal-tail"])
def test_seed_list_above_the_budget_exits_3_before_any_environment(
        tmp_path, capsys, monkeypatch, make, what):
    # 2**20 seeds take more than the 256 MiB budget at 400 bytes each, and
    # are refused before their list or any environment is built
    from shapelab.environment import Environment

    def made(self):
        raise AssertionError("an environment was made")

    monkeypatch.setattr(Environment, "__post_init__", made)
    code = _run(tmp_path, make(tmp_path, seeds={"start": 5,
                                                "count": 2 ** 20}))
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert what + " needs" in err


def test_exponential_shape_with_zero_tolerance_is_certified(tmp_path):
    # no value ever moves by less than 0, but the search of each round
    # certifies exponential distances too, so none is excluded
    doc = _shape_doc(tmp_path, model={"kind": "exponential", "rate": 1.0},
                     seeds={"start": 0, "count": 3}, tolerance=0)
    assert _run(tmp_path, doc) == 0
    lines = [ln for ln in (tmp_path / "shape.csv").read_text().splitlines()
             if not ln.startswith("#")]
    excluded = lines[0].split(",").index("excluded")
    assert [float(ln.split(",")[excluded]) for ln in lines[1:]] == [0.0, 0.0]


def test_shape_box_above_site_limit_exits_3(tmp_path, capsys, monkeypatch):
    # tolerance 0 never converges, and at this seed the exponential
    # distances along each axis are certified only in the second round, at
    # radius 24 = 4 * gap: a ball of 19649 sites whose graph takes about
    # 1.9 MB, above this budget, while the first round's 2625 sites take
    # at most 1.2 MB (their certificate)
    from shapelab import lattice
    from shapelab.lattice import BoxRegion

    build = BoxRegion.site_array

    def guarded(self):
        if self.radius > 12:
            raise RuntimeError("site array built above the budget")
        return build(self)

    monkeypatch.setattr(BoxRegion, "site_array", guarded)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 16 * 10 ** 5)
    doc = _shape_doc(tmp_path, dimension=3,
                     model={"kind": "exponential", "rate": 1.0},
                     directions=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     seeds={"start": 8, "count": 1}, n_max=6, tolerance=0)
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert "box graph of 19649 sites needs" in err


def test_embed_check_search_above_site_limit_exits_3(tmp_path, capsys,
                                                     monkeypatch):
    # 709 sites on a line, searched at once in a box of 1417 sites: one
    # search of 1004653 nodes, about 12 MB with its graph
    from shapelab import lattice

    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 10 ** 7)
    doc = _embed_doc(tmp_path, dimension=1,
                     sites=[[x] for x in range(-354, 355)])
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert "search of 709 blocks of 1417 sites needs" in err
    assert not (tmp_path / "emb.json").exists()


@pytest.mark.parametrize("size, budget", [(2 ** 40, None), (10 ** 5, 10 ** 6)],
                         ids=["huge", "mid"])
@pytest.mark.parametrize("command, key, what", [
    ("kingman", "length", "Kingman decomposition of length {}"),
    ("shape", "n_max", "profile of {} multiples of each of [(1, 0)]"),
], ids=["kingman", "shape"])
def test_array_length_from_the_config_is_reserved_first(tmp_path, capsys,
                                                         monkeypatch, size,
                                                         budget, command,
                                                         key, what):
    # refused by the memory budget before any array of that length (and,
    # for kingman, before the drift orbit of 4 * length steps) is made
    from shapelab import lattice

    if budget is not None:
        monkeypatch.setattr(lattice, "MEMORY_BUDGET", budget)
    if command == "kingman":
        doc = _kingman_doc(tmp_path)
        del doc["drift_orbit"]
    else:
        doc = _shape_doc(tmp_path, directions=[[1, 0]])
    doc[key] = size
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and what.format(size) + " needs" in err[0]
    assert not Path(doc["output"]).exists()


def _rkhs_doc(tmp_path, **overrides):
    doc = {"command": "rkhs-walk", "length": 5,
           "output": str(tmp_path / "r.csv")}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("step_scale", [8, 1e3, 1e300, -1e300])
def test_rkhs_step_scale_that_breaks_the_walk_exits_2(tmp_path, capsys,
                                                      step_scale):
    # at scale 8, some of the 1000 steps are refused as non-unimodular
    # maps; from about 710 up, cosh overflows
    doc = _rkhs_doc(tmp_path, seed=17, length=1000, step_scale=step_scale)
    assert _run(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid 'step_scale': ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("make, key, value", [
    (_embed_doc, "radius_cap", "abc"),
    (_embed_doc, "radius_cap", 0),
    (_audit_doc, "max_norm", "abc"),
    (_audit_doc, "max_norm", 0),
    (_lorentz_doc, "seed", "abc"),
    (_embed_doc, "seed", [1]),
    (_rkhs_doc, "seed", "abc"),
    (_lorentz_doc, "box_radius", "abc"),
    (_lorentz_doc, "box_radius", 0),
    (_rkhs_doc, "length", "abc"),
    (_shape_doc, "direction_richness", "abc"),
], ids=["radius_cap", "radius_cap_zero", "max_norm", "max_norm_zero",
        "seed_lorentz", "seed_embed", "seed_rkhs", "box_radius",
        "box_radius_zero", "length", "direction_richness"])
def test_bad_integer_key_is_config_error(tmp_path, capsys, make, key, value):
    doc = make(tmp_path, **{key: value})
    doc.pop("directions", None)
    _assert_config_error(tmp_path, capsys, doc, key)


def test_negative_seed_is_accepted(tmp_path):
    assert _run(tmp_path, _lorentz_doc(tmp_path, seed=-3)) == 0


@pytest.mark.parametrize("make", [_shape_doc, _maximal_tail_doc,
                                  _lorentz_doc, _embed_doc],
                         ids=["shape", "maximal-tail", "lorentz-norm",
                              "embed-check"])
@pytest.mark.parametrize("model, key", [
    ({"kind": "rotation", "profiles": ["shifted"]}, "profiles"),
    ({"kind": "rotation", "alpha": [0.3]}, "alpha"),
    ({"kind": "rotation", "alpha": [0.3, 0.1, 0.2]}, "alpha"),
    ({"kind": "rotation", "profiles": "square"}, "square"),
    ({"kind": "moving_average", "kernel": [0.5, 0.5],
      "base": {"kind": "rotation", "profiles": ["tent"]}}, "profiles"),
], ids=["short_profiles", "short_alpha", "long_alpha", "unknown_profile",
        "moving_average_base"])
def test_rotation_not_matching_the_dimension_is_config_error(
        tmp_path, capsys, make, model, key):
    doc = make(tmp_path, model=model)
    _assert_config_error(tmp_path, capsys, doc, key)
    assert not Path(doc["output"]).exists()


@pytest.mark.parametrize("make, model", [
    (_embed_doc, {"kind": "pareto", "shape": 0.01}),
    (_embed_doc, {"kind": "moving_average", "kernel": [1.0e308, 1.0e308]}),
    (_maximal_tail_doc, {"kind": "exponential", "rate": 1.0e-308}),
    (_shape_doc, {"kind": "moving_average", "kernel": [1.0e308, 1.0e308],
                  "base": {"kind": "rotation", "profiles": "shifted"}}),
], ids=["pareto", "moving_average", "exponential", "moving_average_base"])
def test_model_whose_weights_can_overflow_exits_2(tmp_path, capsys, make,
                                                  model):
    doc = make(tmp_path, model=model)
    assert _run(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid 'model': ")
    assert "can overflow" in err and err.count("\n") == 1
    assert not Path(doc["output"]).exists()


def test_lambda_whose_power_overflows_exits_2(tmp_path, capsys):
    doc = _maximal_tail_doc(tmp_path, lambda_grid=[1.0, 1.0e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err == ("config error: invalid 'lambda_grid': lambda 1e+300 to "
                   "the power 2 overflows\n")
    assert not Path(doc["output"]).exists()


def test_embed_check_of_huge_accepted_weights_warns_of_nothing(tmp_path,
                                                                capsys):
    # weights of about 1e307 (ceiling 3e307) pass the overflow check, and
    # their sum, past the float range, is never formed
    model = {"kind": "moving_average", "kernel": [1.0e307, 1.0e307],
             "base": {"kind": "rotation", "profiles": "shifted"}}
    doc = _embed_doc(tmp_path, model=model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, doc) == 0
    assert capsys.readouterr().err == ""


def test_shape_of_huge_two_valued_weights_has_finite_stderrs(tmp_path):
    # per-step means of about 1e300, whose deviations square past the
    # float range unless each column is scaled first
    doc = _shape_doc(tmp_path, model={"kind": "two_valued", "low": 1.0e300,
                                      "high": 2.0e300},
                     seeds={"start": 0, "count": 6})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, doc) == 0
    header, *rows = _body(doc["output"]).splitlines()
    col = header.split(",").index("stderr")
    stderrs = [float(row.split(",")[col]) for row in rows]
    assert len(stderrs) == 2 and all(map(math.isfinite, stderrs))
    assert max(stderrs) > 1e298


_HUGE_EMBED = {"model": {"kind": "exponential", "rate": 1.0e-300}, "seed": 42,
               "sites": [[0, 0], [2, 1], [-1, 2], [1, -2], [3, 0], [-2, -1]]}


def test_embed_check_of_huge_weights_judges_defects_by_their_scale(
        tmp_path):
    # distances of up to about 4e300 leave defects of about 6e284, a
    # rounding-sized 1.5e-16 of them
    doc = _embed_doc(tmp_path, **_HUGE_EMBED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, doc) == 0
    payload = json.loads(Path(doc["output"]).read_text())["payload"]
    largest = max(map(max, payload["embedding"]["dist"]))
    assert largest > 1e300
    assert 0 < payload["sup_norm_defect"] <= 1e-15 * largest


def test_embed_check_of_huge_non_metric_matrix_exits_4(tmp_path, capsys,
                                                       monkeypatch):
    # the same distances with one pair tripled: no longer a metric, and
    # its defects are of the distances' own size
    from dataclasses import replace

    from shapelab import percolation

    embed = percolation.structure_embed

    def broken(*args, **kwargs):
        emb = embed(*args, **kwargs)
        dist = emb.dist.copy()
        dist[0, 1] = dist[1, 0] = 3 * dist[0, 1]
        return replace(emb, dist=dist)

    monkeypatch.setattr(percolation, "structure_embed", broken)
    doc = _embed_doc(tmp_path, **_HUGE_EMBED)
    assert _run(tmp_path, doc) == 4
    assert "structure embedding identities violated" in capsys.readouterr().err


@pytest.mark.parametrize("make, key, value, named", [
    (_maximal_tail_doc, "seeds", {"start": "abc", "count": 3}, "start"),
    (_maximal_tail_doc, "seeds", {"start": 0, "count": "abc"}, "count"),
    (_embed_doc, "sites", [[0, 0], [1, "x"]], "sites"),
    (_embed_doc, "sites", [[0, 0], 1], "sites"),
    (_lorentz_doc, "indices", [[1.0, "x"]], "indices"),
    (_lorentz_doc, "indices", [[1.0]], "indices"),
    (_lorentz_doc, "indices", [[0.5, 1.0]], "indices"),
    (_lorentz_doc, "indices", "abc", "indices"),
], ids=["seeds_start", "seeds_count", "sites_entry", "sites_not_a_site",
        "indices_entry", "indices_short", "indices_below_one",
        "indices_not_a_list"])
def test_bad_list_or_mapping_entry_is_config_error(tmp_path, capsys, make,
                                                   key, value, named):
    doc = make(tmp_path, **{key: value})
    _assert_config_error(tmp_path, capsys, doc, named)
    assert not Path(doc["output"]).exists()


def _lyapunov_doc(tmp_path, **overrides):
    doc = {"command": "lyapunov", "potential": {"kind": "constant"},
           "n_steps": 10, "output": str(tmp_path / "lyap.csv")}
    doc.update(overrides)
    return doc


def _scan_doc(tmp_path, **overrides):
    doc = _lyapunov_doc(tmp_path, command="schrodinger-scan", energies=[0.0])
    doc.update(overrides)
    return doc


def _kingman_doc(tmp_path, **cocycle):
    return {"command": "kingman", "cocycle": cocycle, "length": 5,
            "drift_orbit": 10, "output": str(tmp_path / "k.csv")}


def _horofunction_doc(tmp_path, **overrides):
    doc = {"command": "horofunction",
           "cocycle": {"dynamics": {"kind": "shift", "dimension": 2}},
           "eta": [1.0, 0.0], "targets": [[1, 0]], "t_grid": [4],
           "drift_orbit": 10, "output": str(tmp_path / "h.csv")}
    doc.update(overrides)
    return doc


def _spectral_doc(tmp_path, **sample):
    return {"command": "spectral-rate", "sample": sample, "n_grid": [1, 2],
            "output": str(tmp_path / "r.csv")}


SHIFT = {"kind": "shift", "dimension": 2}


BAD_SPECS = [
    # model: a bad value, a bad kind, an unknown key, a nested base
    (_maximal_tail_doc, {"model": {"kind": "exponential", "rate": "abc"}},
     "model.rate"),
    (_maximal_tail_doc, {"model": {"kind": "nope"}}, "model.kind"),
    (_maximal_tail_doc, {"model": {"kind": "exponential", "rat": 5.0}},
     "model.rat"),
    (_maximal_tail_doc, {"model": {"kind": "moving_average", "kernel": [1.0],
                                   "base": {"kind": "pareto"}}},
     "model.base.shape"),
    # potential
    (_lyapunov_doc, {"potential": {"energy": "abc"}}, "potential.energy"),
    (_lyapunov_doc, {"potential": {"kind": "nope"}}, "potential.kind"),
    (_lyapunov_doc, {"potential": {"kind": "bernoulli", "amplitud": 5}},
     "potential.amplitud"),
    # a key that the potential's kind never reads
    (_lyapunov_doc, {"potential": {"kind": "bernoulli", "value": 5.0}},
     "potential.value"),
    (_lyapunov_doc, {"potential": {"kind": "constant", "amplitude": 7.0}},
     "potential.amplitude"),
    # lorentz-norm samples boxes only
    (_lorentz_doc, {"samples_csv": "samples.csv"}, "samples_csv"),
    # cocycle dynamics and generator
    (_kingman_doc, {"dynamics": {"alphas": 0.4}}, "cocycle.dynamics.alphas"),
    (_kingman_doc, {"dynamics": {"kind": "flow"}}, "cocycle.dynamics.kind"),
    (_kingman_doc, {"dynamics": {"kind": "shift", "sed": 3}},
     "cocycle.dynamics.sed"),
    (_kingman_doc, {"generator": {"coboundary": "y"}},
     "cocycle.generator.coboundary"),
    (_kingman_doc, {"generator": {"kind": "coboundary", "coboundary": "y"}},
     "cocycle.generator.coboundary"),
    (_kingman_doc, {"generator": {"kind": "nope"}}, "cocycle.generator.kind"),
    (_kingman_doc, {"generator": {"valu": [1.0, 2.0]}},
     "cocycle.generator.valu"),
    (_kingman_doc, {"dynamics": SHIFT, "generator": {"kind": "fourier"}},
     "cocycle.generator"),
    (_kingman_doc, {"generator": {"kind": "axis_field"}},
     "cocycle.generator"),
    # spectral sample
    (_spectral_doc, {"kind": "geometric", "ratio": "x"}, "sample.ratio"),
    (_spectral_doc, {"kind": "rotation"}, "sample.alpha"),
    (_spectral_doc, {"kind": "pink"}, "sample.kind"),
    (_spectral_doc, {"kind": "white", "sigma": 1.0}, "sample.sigma"),
    # seeds
    (_maximal_tail_doc, {"seeds": {"start": 0, "count": 3, "cnt": 3}},
     "seeds.cnt"),
    (_maximal_tail_doc, {"seeds": {"start": 0, "count": 1.5}}, "seeds.count"),
    (_maximal_tail_doc, {"seeds": 5}, "seeds"),
    # typed scalars and lists at the top level
    (_scan_doc, {"energies": ["x"]}, "energies[0]"),
    (_horofunction_doc, {"eta": ["a", 0.0]}, "eta[0]"),
    (_horofunction_doc, {"eta": [1.0]}, "eta"),
    (_horofunction_doc, {"targets": [[1, 0, 0]]}, "targets[0]"),
    (_rkhs_doc, {"step_scale": "big"}, "step_scale"),
    (_rkhs_doc, {"length": True}, "length"),
    (_shape_doc, {"directions": [[1, "a"]]}, "directions[0][1]"),
    (_shape_doc, {"dimension": 2.7}, "dimension"),
    (_shape_doc, {"polytope_output": 5}, "polytope_output"),
    (_shape_doc, {"output": ["a"]}, "output"),
    (_audit_doc, {"max_norm": 3.9}, "max_norm"),
    (_maximal_tail_doc, {"lambda_grid": [1.0, float("nan")]},
     "lambda_grid[1]"),
    # integers beyond int64
    (_embed_doc, {"sites": [[0, 0], [1e300, 0]]}, "sites[1][0]"),
    (_shape_doc, {"n_max": 1e300}, "n_max"),
    (_maximal_tail_doc, {"seeds": {"start": 2 ** 63, "count": 3}},
     "seeds.start"),
]


@pytest.mark.parametrize("make, overrides, path", BAD_SPECS,
                         ids=[path for _, _, path in BAD_SPECS])
def test_bad_spec_exits_2_naming_the_dotted_path(tmp_path, capsys, make,
                                                 overrides, path):
    doc = make(tmp_path, **overrides)
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and "Traceback" not in err
    assert repr(path) in err and "(line " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("value", [1e300, 2 ** 63])
def test_dimension_beyond_int64_exits_2(tmp_path, capsys, value):
    # a BAD_SPECS case of its own would share the id "dimension"
    doc = _audit_doc(tmp_path, dimension=value)
    assert _run(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'dimension' must be")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("dimension", [70, 1_000_000, 10_000_000])
def test_audit_of_a_large_dimension_exits_3_at_once(tmp_path, capsys,
                                                    dimension):
    # the targets are the sites of an ell-1 box, whose count is reserved
    # before its rows are built: 3**(d-1) rows of d columns
    doc = _audit_doc(tmp_path, dimension=dimension, max_norm=1)
    start = time.perf_counter()
    assert _run(tmp_path, doc) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith(f"budget/convergence failure: counting a "
                          f"d={dimension} box of radius 1 needs about 10^")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("max_norm", [2 ** 60, 2 ** 62, 2 ** 63 - 1])
def test_audit_of_a_huge_one_dimensional_norm_exits_3(tmp_path, capsys,
                                                      max_norm):
    # a segment of 2 * max_norm + 1 sites is counted in Python ints and
    # refused by the sites' reservation; no array of its size is built
    doc = _audit_doc(tmp_path, dimension=1, max_norm=max_norm)
    assert _run(tmp_path, doc) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"budget/convergence failure: the "
                          f"{2 * max_norm + 1} sites of a box needs about 10^")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("dimension", [40, 1_000_000, 10_000_000])
def test_shape_default_directions_of_a_large_dimension_exit_3_at_once(
        tmp_path, capsys, dimension):
    # the (2 * richness + 1)**d candidate directions are reserved before
    # they are built
    doc = _shape_doc(tmp_path, dimension=dimension)
    del doc["directions"]
    start = time.perf_counter()
    assert _run(tmp_path, doc) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith(f"budget/convergence failure: counting a "
                          f"d={dimension} box of radius 1 needs about 10^")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


def test_polytope_of_a_zero_time_constant_exits_2(tmp_path, capsys):
    doc = _shape_doc(tmp_path, model={"kind": "constant", "value": 0},
                     polytope_output=str(tmp_path / "poly.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'polytope_output' needs a finite "
                          "unit ball, got time constant 0.0 along (0, 1)")
    assert err.count("\n") == 1 and "Warning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]
    # without a polytope the zero constant is a valid result
    del doc["polytope_output"]
    assert _run(tmp_path, doc) == 0


def test_horofunction_past_the_float_range_exits_2(tmp_path, capsys):
    # the shipped config with a generator whose norms pass the float range
    doc = yaml.safe_load((CONFIG_DIR / "horofunction.yaml").read_text())
    doc["cocycle"]["generator"]["value"] = [1.0e300, 4.0]
    doc["output"] = str(tmp_path / "h.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid 'eta': the horofunction "
                          "limit at n = (1, 0) is nan")
    assert err.count("\n") == 1 and "Warning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


def test_kingman_writes_its_rows_as_it_makes_them(tmp_path):
    # the decomposition reserves 40 bytes per step, 4 MB here; the rows
    # are written one at a time, not held as tuples
    doc = yaml.safe_load((CONFIG_DIR / "kingman.yaml").read_text())
    doc.update(length=100000, drift_orbit=1000,
               output=str(tmp_path / "k.csv"))
    tracemalloc.start()
    try:
        assert _run(tmp_path, doc) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert len(_body(tmp_path / "k.csv").splitlines()) == 100001


def test_pool_never_asks_for_more_workers_than_items(monkeypatch):
    # the pool starts all its workers at once: an in-process stand-in
    # records what it is asked for, and no process starts
    import concurrent.futures

    from shapelab import cli

    asked = []

    class Serial:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
    assert cli._pmap(abs, [1, -2, 3], 10 ** 6) == [1, 2, 3]
    assert asked == [3]


def test_scan_jobs_do_not_change_output(tmp_path):
    doc = _scan_doc(tmp_path, potential={"kind": "bernoulli",
                                         "amplitude": 1.0},
                    energies=[2.0, -0.5, 0.0], n_steps=200)
    assert _run(tmp_path, doc, extra_args=["--jobs", "1"]) == 0
    serial = _body(doc["output"])
    assert len(serial.splitlines()) == 4
    assert _run(tmp_path, doc, extra_args=["--jobs", "2"]) == 0
    assert _body(doc["output"]) == serial


def _spec_types(spec, seen):
    """Every schema type reachable from spec, each once (a model's base
    is the model itself)."""
    from shapelab import cli

    if id(spec) in seen:
        return
    seen.add(id(spec))
    yield spec
    if isinstance(spec, cli.Spec):
        for kind, _ in spec.table.values():
            yield from _spec_types(kind, seen)
    elif isinstance(spec, cli.Kinds):
        for sub in spec.specs.values():
            yield from _spec_types(sub, seen)
    elif isinstance(spec, cli.List):
        yield from _spec_types(spec.item, seen)


def test_every_kind_keyed_mapping_is_a_kinds_table():
    # a Spec with a 'kind' key would judge every kind by one table, so
    # keys its kind never reads would pass
    from shapelab import cli

    seen = set()
    specs = [t for command in cli.COMMANDS
             for t in _spec_types(cli._schema(command), seen)
             if isinstance(t, cli.Spec)]
    assert len(specs) > len(cli.COMMANDS)
    assert [s for s in specs if "kind" in s.table] == []


def test_only_blame_turns_a_refusal_into_a_config_error():
    # every try of cli.py is in one of these, and of their handlers only
    # _blame's and the config reader's raise
    import ast

    from shapelab import cli

    allowed = {
        "_blame": "a refused value becomes a config error",
        "Float.check": "number parsing",
        "Config.__init__": "file and YAML reading",
        "_run_path_family_audit": "a refused family is a 'rejected' row",
        "main": "each error class becomes its exit code",
    }
    raising = {"_blame", "Config.__init__"}
    tree = ast.parse(Path(cli.__file__).read_text())
    found = {}

    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Try):
                found.setdefault(name, []).extend(
                    isinstance(sub, ast.Raise) for handler in child.handlers
                    for sub in ast.walk(handler))
            walk(child, name)

    walk(tree, "")
    assert set(found) <= set(allowed)
    assert {name for name, raises in found.items() if any(raises)} <= raising


def _load_perfbench(name, monkeypatch):
    path = CONFIG_DIR.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_shipped_and_benchmark_configs_pass_the_schema(tmp_path,
                                                       monkeypatch):
    # a check only, nothing runs: stricter checking must never refuse the
    # shipped configs or the benchmark's experiments
    wl = _load_perfbench("workloads", monkeypatch)
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    for workload in wl.WORKLOADS:
        for seed in (0, 1):
            exps = wl.experiments(workload, seed)
            wl.write_configs(exps, tmp_path / f"{workload}_{seed}")
            paths += [tmp_path / f"{workload}_{seed}" / "configs" /
                      f"{e.name}.yaml" for e in exps]
    assert len(paths) > len(list(CONFIG_DIR.glob("*.yaml")))
    for path in paths:
        cfg = Config(path)
        assert set(cfg.values) >= {"output"}


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's per-layer metrics wrap these names from outside the
    # package; a renamed or removed one silently drops its metrics
    tracing = _load_perfbench("tracing", monkeypatch)
    targets = [t[:2] for t in (tracing.SPANS + tracing.COUNTS
                               + tracing.GENERATOR_FACTORIES)]
    unresolved = []
    for module_name, target in targets:
        owner = importlib.import_module(module_name)
        for attr in target.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{target}")
    assert targets and unresolved == []
