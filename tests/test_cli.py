import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from shapelab.cli import main

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
