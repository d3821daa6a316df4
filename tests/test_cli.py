import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from shapelab.cli import Config, _cocycle_from_spec, main
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


def test_jobs_flag_and_env_do_not_change_output(tmp_path, monkeypatch):
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
    monkeypatch.setenv("SHAPELAB_JOBS", "2")
    assert _run(tmp_path, doc) == 0
    assert _body(tmp_path / "s.csv") == serial


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


def test_lorentz_box_above_edge_limit_exits_3(tmp_path, capsys):
    # a d=1 box of radius R holds 2R edges: two above sample_field's
    # default limit of 2_000_000, and refused before any site is built
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
    assert "Traceback" not in err and "2000002 edges" in err


def test_shape_without_converged_distances_exits_3(tmp_path, capsys):
    doc = {
        "command": "shape",
        "dimension": 2,
        "model": {"kind": "exponential", "rate": 1.0},
        "seeds": {"start": 0, "count": 1},
        "directions": [[1, 0]],
        "n_max": 4,
        "tolerance": 0,
        "output": str(tmp_path / "shape.csv"),
    }
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and "no converged distances" in err


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


# the shapelab modules run by the end of a run of each orbit command (no
# box graphs): its table's modules and its runner's, no others
_ORBIT_MODULES = {
    "schrodinger-scan": ["environment", "schrodinger"],
    "lyapunov": ["environment", "schrodinger"],
    "kingman": ["cocycle", "environment"],
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
    ]
    assert sorted(d["command"] for d in docs) == sorted(_ORBIT_MODULES)
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
            "      'concurrent.futures' in sys.modules)\n")
    for doc in docs:
        command = doc["command"]
        cfg = tmp_path / f"{command}.yaml"
        cfg.write_text(yaml.safe_dump({**doc, "output": str(
            tmp_path / f"{command}.csv")}))
        out = subprocess.run(
            [sys.executable, "-c", code, command, str(cfg), "--jobs", "1"],
            capture_output=True, text=True, check=True).stdout.splitlines()
        want = ["shapelab", "shapelab.cli"] + [
            f"shapelab.{m}" for m in _ORBIT_MODULES[command]]
        assert out == [repr(["shapelab", "shapelab.cli"]), "True",
                       f"0 {sorted(want)!r} False"], command


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
    kd = kingman_decompose(_cocycle_from_spec(spec), 10)
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


def test_shape_box_above_site_limit_exits_3(tmp_path, capsys, monkeypatch):
    # exponential distances never certify and tolerance 0 never converges,
    # so refinement runs to radius 96 = 16 * gap, a ball of 1198337 sites
    from shapelab.lattice import BoxRegion
    from shapelab.percolation import MAX_BOX_SITES

    build = BoxRegion.site_array

    def guarded(self):
        if self.site_count() > MAX_BOX_SITES:
            raise RuntimeError("site array built above the limit")
        return build(self)

    monkeypatch.setattr(BoxRegion, "site_array", guarded)
    doc = _shape_doc(tmp_path, dimension=3,
                     model={"kind": "exponential", "rate": 1.0},
                     directions=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     n_max=6, tolerance=0)
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and "1198337 sites" in err


def test_embed_check_search_above_site_limit_exits_3(tmp_path, capsys):
    # 709 sites on a line, searched at once in a box of 1417 sites: one
    # search of 1004653 nodes
    doc = _embed_doc(tmp_path, dimension=1,
                     sites=[[x] for x in range(-354, 355)])
    code = _run(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and "1004653 sites" in err
    assert not (tmp_path / "emb.json").exists()


def _rkhs_doc(tmp_path, **overrides):
    doc = {"command": "rkhs-walk", "length": 5,
           "output": str(tmp_path / "r.csv")}
    doc.update(overrides)
    return doc


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
    (_lyapunov_doc, {"potential": {"kind": "nope"}}, "potential"),
    (_lyapunov_doc, {"potential": {"kind": "bernoulli", "amplitud": 5}},
     "potential.amplitud"),
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


def test_bad_samples_csv_or_jobs_exits_2_naming_the_key(tmp_path, capsys,
                                                        monkeypatch):
    one_column = tmp_path / "one.csv"
    one_column.write_text("1.0\n2.0\n")
    for csv in (tmp_path / "missing.csv", one_column):
        doc = {"command": "lorentz-norm", "samples_csv": str(csv),
               "indices": [[1.0, 1.0]], "output": str(tmp_path / "l.csv")}
        assert _run(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "'samples_csv'" in err and "Traceback" not in err
        assert not (tmp_path / "l.csv").exists()
    monkeypatch.setenv("SHAPELAB_JOBS", "abc")
    assert _run(tmp_path, _rkhs_doc(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "SHAPELAB_JOBS" in err and "Traceback" not in err


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
