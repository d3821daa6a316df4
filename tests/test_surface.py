"""The library's public surface: every module-level function and class of
a library module is used by the package, wrapped by the benchmark's
tracer, or kept on purpose for a reason named here, which names the
acceptance criterion or frozen constant that reads it; no library module
imports the command line's module, ``cli``; and every name the README
quotes exists."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shapelab"

# module.name -> why it stays although nothing in src/ reads it: the
# acceptance criterion ("criterion NN") that reads it, or the constant of
# tests/frozen.py that its test pins
KEEP = {
    "cocycle.cesaro_fejer_average": "criterion 12: both sides of the Fejer "
                                    "identity",
    "lorentz.lp_norm": "criterion 09: the L^p side of the diagonal-index "
                       "identity",
    "percolation.distance": "criterion 01: the public boxed distance, "
                            "evaluated from either end",
    "rkhs.kernel_metric": "criterion 15: the squared kernel metric",
    "rkhs.hyperbolic_distance": "criterion 15: the Poincare distance",
    "shape.estimate_shape": "criterion 04: the constant-weight limit shape",
    "shape.maximal_bound_rhs": "criterion 07: the right side of the maximal "
                               "inequality",
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


def _reads_from(tree, mod: str) -> set[str]:
    """The names another module reads from module mod: those it imports
    from mod, and every attribute it reads.  A bare name is not a read,
    since it may be a local of the same spelling."""
    # the last part of the module an import names: "" for "from . import"
    # and "shapelab" for "from shapelab import" read the package itself
    wanted = {"", "shapelab"} if mod == "__init__" else {mod}
    out = set()
    for n in ast.walk(tree):
        if (isinstance(n, ast.ImportFrom)
                and (n.module or "").split(".")[-1] in wanted):
            out.update(a.name for a in n.names)
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
        others = set().union(*(_reads_from(t, mod)
                               for m, t in trees.items() if m != mod))
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


def test_every_kept_name_is_read_by_the_reader_its_reason_names():
    # a reason starts "criterion NN:", and test_criterion_NN_* reads the
    # name, or starts with a constant of tests/frozen.py, and a test that
    # reads that constant reads the name too
    tests = [node for path in sorted((ROOT / "tests").glob("test_*.py"))
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and node.name.startswith("test_")]
    frozen = {t.id for node in ast.parse((ROOT / "tests" / "frozen.py")
                                         .read_text()).body
              if isinstance(node, ast.Assign) for t in node.targets}
    unread = []
    for key, reason in KEEP.items():
        criterion = re.fullmatch(r"criterion (\d\d): .+", reason)
        constant = reason.split(":")[0]
        if criterion:
            prefix = f"test_criterion_{criterion[1]}_"
            readers = [t for t in tests if t.name.startswith(prefix)]
        elif constant in frozen:
            readers = [t for t in tests if constant in _referenced([t])]
        else:
            readers = []
        if not any(key.split(".")[1] in _referenced([t]) for t in readers):
            unread.append(key)
    assert unread == []


# YAML spellings the README quotes as config values, not names
YAML_LITERALS = {"true", "false", "null"}


def test_every_name_the_readme_quotes_is_a_word_of_the_sources():
    # a backticked identifier, dotted or called with no arguments, names a
    # word of src/: a module, function, class, attribute or comment, or a
    # config key, which the schema tables of cli.py spell; "shapelab." is
    # dropped and every dotted part must be such a word
    words = {w for path in SRC.glob("*.py")
             for w in re.findall(r"[A-Za-z_]\w*", path.read_text())}
    unknown = []
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        name = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?",
                            span)
        if name is None or span in YAML_LITERALS:
            continue
        parts = name[1].removeprefix("shapelab.").split(".")
        if not set(parts) <= words:
            unknown.append(span)
    assert unknown == []
