"""The library's public surface: every module-level function and class of
a library module is used by the package, wrapped by the benchmark's
tracer, or kept on purpose for a reason named here; and no library module
imports the command-line driver."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shapelab"

# module.name -> why it stays although nothing in src/ calls it
KEEP = {
    "cocycle.cesaro_fejer_average": "paper object: Cesaro-Fejer averages "
                                    "of the cocycle's unitary action",
    "cocycle.mean_ergodic_projection": "paper object: the mean ergodic "
                                       "projection onto invariant vectors",
    "lattice.path_multiplicity": "reference oracle the path-family audit "
                                 "is compared against",
    "lorentz.distribution_function": "paper object: the distribution "
                                     "function of a weighted sample",
    "lorentz.lp_norm": "paper object: the L^p norm of the diagonal-index "
                       "identity",
    "percolation.distance_converged": "paper object: the semimetric with "
                                      "its convergence flag",
    "percolation.geodesic": "paper object: geodesics of the semimetric",
    "rkhs.kernel_metric": "paper object: the squared kernel metric that "
                          "large_scale_compare computes in log scale",
    "rkhs.hyperbolic_distance": "paper object: the Poincare distance",
    "schrodinger.transfer_product": "reference oracle the scaled transfer "
                                    "products are compared against",
    "schrodinger.matrix_semimetric": "paper object: the semimetric of a "
                                     "transfer-matrix cocycle",
    "schrodinger.solve_difference": "paper object: solutions of the "
                                    "difference equation",
    "shape.estimate_shape": "paper object: the estimated limit shape",
    "shape.maximal_bound_rhs": "paper object: the right side of the "
                               "maximal inequality",
}


def _library_trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.stem != "cli"}


def _referenced(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def _traced() -> set[str]:
    """module.name of every top-level name the benchmark tracer wraps."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("surface_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = tracing.SPANS + tracing.COUNTS + tracing.GENERATOR_FACTORIES
    return {f"{module.removeprefix('shapelab.')}.{target.split('.')[0]}"
            for module, target, *_ in tables}


def _imported(node) -> list[str]:
    """The dotted names an import statement reads, relative dots dropped."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{a.name}" for a in node.names]
    return []


def test_library_modules_never_import_the_driver():
    offenders = [f"{mod}.py:{node.lineno}"
                 for mod, tree in _library_trees().items()
                 for node in ast.walk(tree)
                 if any("cli" in name.split(".") for name in _imported(node))]
    assert offenders == []


def test_every_public_library_name_is_used_traced_or_kept():
    library = _library_trees()
    trees = {**library, "cli": ast.parse((SRC / "cli.py").read_text())}
    traced = _traced()
    defined, unused = set(), []
    for mod, tree in library.items():
        others = _referenced(t for m, t in trees.items() if m != mod)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            key = f"{mod}.{node.name}"
            defined.add(key)
            own = _referenced(n for n in tree.body if n is not node)
            if not ({node.name} & (others | own) or key in traced
                    or key in KEEP):
                unused.append(key)
    assert unused == []
    assert sorted(set(KEEP) - defined) == []


def test_only_the_memory_budget_raises_memory_error():
    # every refusal of work above the memory budget goes through
    # lattice.reserve: no module holds a limit of its own
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(n) for top in tree.body
                   if path.stem == "lattice"
                   and isinstance(top, ast.FunctionDef)
                   and top.name == "reserve" for n in ast.walk(top)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (isinstance(exc, ast.Name) and exc.id == "MemoryError"
                    and id(node) not in allowed):
                offenders.append(f"{path.stem}.py:{node.lineno}")
    assert offenders == []
