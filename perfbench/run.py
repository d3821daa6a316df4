"""shapelab benchmark: runs one workload of generated experiments and
prints its metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload shape_refine --seed 0 --seconds 40 --trace 0

With ``--trace 0`` every experiment runs as its own ``shapelab`` process
(closed loop, one at a time, ``--jobs 1``) and the end-to-end metrics are
reported.  With ``--trace 1`` the experiments run in this process through
``shapelab.cli.main``, alternately untraced and with every layer wrapped
(see tracing.py), and the per-layer metrics are reported.

Whole passes over the workload repeat until the next one would end after
``--seconds``; each metric is the median over the passes.  Every output is
checked (exit code, invariants, and for the default seed the stored
reference outputs); a failed check counts the experiment as failed.  The
line before the result holds a report: machine facts, per-experiment
times, output body hashes and ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("lattice.box_sites.calls", "count"),
    ("lattice.box_sites.sites", "count"),
    ("lattice.box_sites.self_s", "s"),
    ("percolation.graph_build.calls", "count"),
    ("percolation.graph_build.sites", "count"),
    ("percolation.graph_build.self_s", "s"),
    ("environment.edge_weights.calls", "count"),
    ("environment.edge_weights.edges", "count"),
    ("environment.edge_weights.self_s", "s"),
    ("shape.refine.rounds", "count"),
    ("shape.refine.reuse_ratio", "ratio"),
    ("shape.directional_constant.self_s", "s"),
    ("percolation.dijkstra.calls", "count"),
    ("percolation.dijkstra.sites", "count"),
    ("percolation.dijkstra.self_s", "s"),
    ("shape.maximal_function.calls", "count"),
    ("shape.maximal_function.self_s", "s"),
    ("environment.sample_field.edges", "count"),
    ("environment.sample_field.self_s", "s"),
    ("percolation.structure_embed.rounds", "count"),
    ("percolation.structure_embed.self_s", "s"),
    ("lorentz.norm.self_s", "s"),
    ("environment.counter_uniform.calls", "count"),
    ("environment.counter_uniform.rows", "count"),
    ("environment.counter_uniform.rows_per_call", "count"),
    ("environment.counter_uniform.self_s", "s"),
    ("schrodinger.one_step.calls", "count"),
    ("schrodinger.transfer_product.calls", "count"),
    ("schrodinger.transfer_product.steps", "count"),
    ("schrodinger.transfer_product.self_s", "s"),
    ("schrodinger.transfer_product.steps_per_s", "1/s"),
    ("schrodinger.lyapunov.self_s", "s"),
    ("cocycle.generator.calls", "count"),
    ("cocycle.evaluate.self_s", "s"),
    ("cocycle.drift_map.self_s", "s"),
    ("cocycle.kingman.self_s", "s"),
    ("cocycle.spectral_rate.self_s", "s"),
    ("lattice.path_family.families", "count"),
    ("lattice.path_family.self_s", "s"),
    ("lattice.audit.families", "count"),
    ("lattice.audit.self_s", "s"),
    ("rkhs.walk.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
]


def pinned_env() -> dict[str, str]:
    """The children's environment: one BLAS/OpenMP thread, no
    SHAPELAB_JOBS, and this checkout's sources first on the path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SHAPELAB_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def machine_facts() -> dict:
    import numpy
    import scipy

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        caches[key.lower()] = int(out) if out.isdigit() else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cache_bytes": caches,
    }


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def write_reference(workload: str, exps, run_dir: Path) -> None:
    ref = {}
    for e in exps:
        doc = {}
        for rel in e.output_paths():
            doc[Path(rel).name] = wl.table_value(wl.parse_output(run_dir / rel))
        ref[e.name] = doc
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(
        json.dumps(ref, indent=0, sort_keys=True) + "\n")


def clear_outputs(e, run_dir: Path) -> None:
    for rel in e.output_paths():
        (run_dir / rel).unlink(missing_ok=True)


def median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# untraced: one process per experiment


def run_child(e, seed: int, run_dir: Path, env: dict) -> dict:
    clear_outputs(e, run_dir)
    mark = run_dir / "setup.mark"
    mark.unlink(missing_ok=True)
    env = dict(env, PERFBENCH_MARK=str(mark))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *wl.argv(e, seed)]
    with open(run_dir / f"{e.name}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # keep the peak of every earlier child
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"name": e.name, "rc": proc.returncode, "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": float(mark.read_text()) - t0 if mark.is_file() else None}


def untraced_run(workload: str, seed: int, seconds: float, run_dir: Path,
                 reference, write_ref: bool) -> tuple[dict, dict]:
    exps = wl.experiments(workload, seed)
    wl.write_configs(exps, run_dir)
    env = pinned_env()
    # compiles the sources' bytecode and proves which sources run
    probe = subprocess.run(
        [sys.executable, "-c", "import shapelab.cli; print(shapelab.__file__)"],
        cwd=run_dir, env=env, capture_output=True, text=True, timeout=120)
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"shapelab does not import from {SRC}: "
                         f"{probe.stderr.strip() or where}")

    passes, problems, hashes = [], [], {}
    start = time.monotonic()
    while True:
        records = []
        for e in exps:
            rec = run_child(e, seed, run_dir, env)
            found = [] if rec["rc"] == 0 else [
                f"{e.name}: exit code {rec['rc']}: "
                + (run_dir / f"{e.name}.log").read_text(errors="replace")[-400:]]
            if rec["rc"] == 0:
                found, rec["sha256"] = wl.check_outputs(e, run_dir, reference)
                if hashes.setdefault(e.name, rec["sha256"]) != rec["sha256"]:
                    found.append(f"{e.name}: output bytes differ between "
                                 "passes")
            if rec["setup_s"] is None and not found:
                found.append(f"{e.name}: the runner was never called")
            rec["ok"] = not found
            problems += found
            records.append(rec)
        if write_ref and not passes:
            write_reference(workload, exps, run_dir)
        passes.append(records)
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    setups = [r["setup_s"] for p in passes for r in p
              if r["setup_s"] is not None]
    metrics = {
        "wall_s": median([sum(r["wall_s"] for r in p) for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([max(r["rss_mb"] for r in p) for p in passes]),
    }
    per_exp = []
    for i, e in enumerate(exps):
        recs = [p[i] for p in passes]
        per_exp.append({
            "name": e.name,
            "wall_s": median([r["wall_s"] for r in recs]),
            "setup_s": median([r["setup_s"] for r in recs
                               if r["setup_s"] is not None]),
            "peak_rss_mb": max(r["rss_mb"] for r in recs),
            "sha256": hashes.get(e.name, {}),
        })
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if not r["ok"])
    report = {"passes": len(passes), "attempted": attempted, "failed": failed,
              "problems": problems[:20], "experiments": per_exp}
    return metrics, report


# --------------------------------------------------------------------------
# traced: in this process, alternately untraced and traced


def import_cli():
    os.environ.update({k: v for k, v in pinned_env().items()
                       if k.endswith("_NUM_THREADS")})
    os.environ.pop("SHAPELAB_JOBS", None)
    sys.path.insert(0, str(SRC))
    import shapelab
    import shapelab.cli

    if SRC.resolve() not in Path(shapelab.__file__).resolve().parents:
        raise SystemExit(f"shapelab does not import from {SRC}")
    return shapelab.cli


def in_process_pass(cli, exps, seed: int, run_dir: Path, reference):
    """Runs every experiment through cli.main; returns the summed wall
    time, the output bytes written, and each experiment's problems."""
    wall, written, problems = 0.0, 0, []
    for e in exps:
        clear_outputs(e, run_dir)
        t0 = time.perf_counter()
        try:
            rc = cli.main(wl.argv(e, seed))
        except (Exception, SystemExit) as err:
            rc = f"{type(err).__name__}: {err}"
        wall += time.perf_counter() - t0
        if rc != 0:
            problems.append([f"{e.name}: exit {rc}"])
            continue
        problems.append(wl.check_outputs(e, run_dir, reference)[0])
        written += sum((run_dir / rel).stat().st_size
                       for rel in e.output_paths())
    return wall, written, problems


def layer_metrics(tracers, traced_walls, untraced_walls, written) -> dict:
    """Counts come from the first traced pass (the others must repeat
    them exactly); times are medians over the traced passes."""
    first = tracers[0]
    layers = set().union(*(t.layers for t in tracers))

    def self_s(layer):
        return median([t.self_s[layer] for t in tracers])

    values = {
        "shape.refine.reuse_ratio": (
            first.qty["shape.refine.final_edges"]
            / first.qty["shape.refine.hashed_edges"]
            if first.qty["shape.refine.hashed_edges"] else 0.0),
        "environment.counter_uniform.rows_per_call": (
            first.qty["environment.counter_uniform.rows"]
            / first.calls["environment.counter_uniform"]
            if first.calls["environment.counter_uniform"] else 0.0),
        "schrodinger.transfer_product.steps_per_s": (
            first.qty["schrodinger.transfer_product.steps"]
            / median([t.total_s["schrodinger.transfer_product"]
                      for t in tracers])
            if first.calls["schrodinger.transfer_product"] else 0.0),
        "cli.bytes_written": written,
        "trace.untraced_wall_s": median(untraced_walls),
        "trace.traced_wall_s": median(traced_walls),
        "trace.overhead_ratio": median(traced_walls) / median(untraced_walls),
        "trace.accounted_ratio": median(
            [sum(t.self_s.values()) / w for t, w in zip(tracers, traced_walls)]),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        layer, quantity = name.rsplit(".", 1)
        if name in values:
            value = values[name]
        elif layer not in layers:
            continue  # the wrapped target is gone: a missing metric
        elif quantity == "calls":
            value = first.calls[layer]
        elif quantity == "self_s":
            value = self_s(layer)
        else:
            value = first.qty[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced_run(workload: str, seed: int, seconds: float, run_dir: Path,
               reference) -> tuple[dict, dict]:
    from tracing import Tracer

    exps = wl.experiments(workload, seed)
    wl.write_configs(exps, run_dir)
    cli = import_cli()
    os.chdir(run_dir)
    untraced_walls, traced_walls, tracers, problems = [], [], [], []
    attempted = failed = written = 0
    start = time.monotonic()
    while True:
        wall, _, found_untraced = in_process_pass(cli, exps, seed, run_dir,
                                                  reference)
        untraced_walls.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            wall, written, found_traced = in_process_pass(
                cli, exps, seed, run_dir, reference)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        tracers.append(tracer)
        for found in found_untraced + found_traced:
            attempted += 1
            failed += bool(found)
            problems += found
        elapsed = time.monotonic() - start
        if elapsed * (len(tracers) + 1) / len(tracers) > seconds:
            break
    for t in tracers[1:]:
        if t.counts() != tracers[0].counts():
            problems.append("per-layer counts differ between traced passes")
    report = {"passes": len(tracers), "attempted": attempted,
              "failed": failed, "problems": problems[:20],
              "missing_targets": tracers[0].missing}
    return (layer_metrics(tracers, traced_walls, untraced_walls, written),
            report)


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference "
                             "outputs of the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "shapelab" / "cli.py").is_file():
        print(f"no shapelab sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--write-reference needs the default seed and --trace 0")

    reference = None if args.write_reference else load_reference(
        args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    cwd = os.getcwd()
    try:
        if args.trace:
            metrics, report = traced_run(args.workload, args.seed,
                                         args.seconds, run_dir, reference)
        else:
            values, report = untraced_run(args.workload, args.seed,
                                          args.seconds, run_dir, reference,
                                          args.write_reference)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    report.update(workload=args.workload, seed=args.seed,
                  trace=args.trace, machine=machine_facts(),
                  failed_ratio=report["failed"] / report["attempted"])
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
