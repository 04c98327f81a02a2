"""AST scans of the library's layering.

The packed builders have one home each: qseries packs products of
(1 - s q^k)^(+-1) and sparse sums, and theta lists the theta sums and
builds their products.  Clearing and limb sizing live in theta's one
plan of a cleared build (theta._plan), on qseries' bounds, and the read
of a packed sum at its lowest limb in theta's one reader
(theta.read_cleared).  Every other module goes through that build and
reader, the cleared zero test or the public series functions, so a
second builder, sizing or reader cannot come back unnoticed.  The
private names one module imports from another are an explicit list, so
a new one is a decision, not a drift.  Only search imports numpy, so
importing the command line loads neither numpy nor the search.

Every top-level function and class of the library, and every
non-dunder method of those classes, is used by the library or named by
the benchmark (bench/*.py, the layer names the tracer binds by string
among them), so code that only the tests reach lives in
tests/oracles.py, not in src."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import qshift

BUILDERS = {"_pack_sparse", "_pack_product", "ramanujan_f_terms",
            "euler_cube_terms"}
HOMES = {"qseries.py", "theta.py"}
SRC = Path(qshift.__file__).parent


# the limb sizing and the builder of theta-sum products: clearing and
# sizing have one home too, theta._plan on top of qseries'
# bounds; qseries' byte-rounded widths serve its own products only
CLEARING = {"_coeff_bits", "_bits_above", "_limb_width", "_cleared_width",
            "_sums_bits", "_parts_bits", "_pack_sums"}


def builder_names(path, names=BUILDERS):
    """The names a module names: defined, called, read or imported,
    under any alias."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            found.add(node.name)
    return found & names


def test_the_scan_sees_the_builders_at_home():
    assert builder_names(SRC / "qseries.py") == {"_pack_sparse",
                                                 "_pack_product"}
    assert builder_names(SRC / "theta.py") == {
        "_pack_sparse", "ramanujan_f_terms", "euler_cube_terms"}


def test_only_qseries_and_theta_reach_the_packed_builders():
    modules = {p.name: p for p in SRC.glob("*.py")}
    assert {"partitions.py", "jacobi.py", "corpus.py", "cli.py"} <= set(modules)
    reached = {name: sorted(builder_names(p))
               for name, p in modules.items() if name not in HOMES}
    assert {name: found for name, found in reached.items() if found} == {}


def test_only_qseries_and_theta_clear_and_size():
    assert builder_names(SRC / "qseries.py", CLEARING) == {
        "_coeff_bits", "_bits_above", "_limb_width"}
    assert builder_names(SRC / "theta.py", CLEARING) == {
        "_coeff_bits", "_bits_above", "_cleared_width", "_sums_bits",
        "_parts_bits", "_pack_sums"}
    reached = {p.name: sorted(builder_names(p, CLEARING))
               for p in SRC.glob("*.py") if p.name not in HOMES}
    assert {name: found for name, found in reached.items() if found} == {}


# the densest-partition limb figure pi sqrt(2n/3) / ln 2 has one home,
# qseries.densest_bits: the order ceiling and the plan's fallback both
# read it there, and no other module computes with pi


def test_the_densest_figure_has_one_home():
    names = {p.name: builder_names(p, {"densest_bits", "pi"})
             for p in SRC.glob("*.py")}
    assert names["qseries.py"] == {"densest_bits", "pi"}
    assert names["cli.py"] == names["theta.py"] == {"densest_bits"}
    assert {name for name, found in names.items() if found} == {
        "qseries.py", "cli.py", "theta.py"}


# the lowest-limb read of a packed sum: one reader, theta.read_cleared,
# on top of qseries
READER = {"_lowest_limb"}


def test_only_qseries_and_theta_read_the_lowest_limb():
    assert builder_names(SRC / "qseries.py", READER) == READER
    assert builder_names(SRC / "theta.py", READER) == READER
    reached = {p.name: sorted(builder_names(p, READER))
               for p in SRC.glob("*.py") if p.name not in HOMES}
    assert {name: found for name, found in reached.items() if found} == {}


# ----------------------------------------------------------------------
# private names imported across modules
# ----------------------------------------------------------------------

# (importer, module, name): each a kernel helper shared by the packed
# builders, or the search prefilter reading jacobi's expressions
PRIVATE_IMPORTS = {
    ("theta", "qseries", "_bits_above"),
    ("theta", "qseries", "_coeff_bits"),
    ("theta", "qseries", "_lowest_limb"),
    ("theta", "qseries", "_pack_sparse"),
    ("partitions", "qseries", "_expand_parts"),
    ("search", "jacobi", "_four2_exprs"),
}


def private_imports(path):
    """(importer, module, name) for every _-prefixed name the module
    imports from another module of the package."""
    return {(path.stem, node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


def test_only_the_listed_private_names_cross_modules():
    found = set().union(*(private_imports(p) for p in SRC.glob("*.py")))
    assert found == PRIVATE_IMPORTS


# ----------------------------------------------------------------------
# numpy: the search's dependency only
# ----------------------------------------------------------------------

def imported_modules(path):
    """The top-level package of every absolute import in the module,
    at any depth (a function-level import counts too)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_only_search_imports_numpy():
    assert "multiprocessing" in imported_modules(SRC / "search.py")
    importers = sorted(p.name for p in SRC.glob("*.py")
                       if "numpy" in imported_modules(p))
    assert importers == ["search.py"]


def test_importing_the_cli_loads_no_numpy():
    # a fresh interpreter: this one has numpy loaded already
    code = ("import sys, qshift.cli; print(sorted(m for m in "
            "('numpy', 'multiprocessing', 'qshift.search') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ----------------------------------------------------------------------
# no library code that only the tests reach
# ----------------------------------------------------------------------

BENCH = SRC.parent.parent / "bench"
README = SRC.parent.parent / "README.md"
# the README's library example calls it (test_the_readme_example_runs);
# nothing else does
USED_ELSEWHERE = {("partitions.py", "count_partitions")}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def top_level_defs(path):
    """The functions and classes a module defines at top level, and the
    non-dunder methods of those classes."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFS):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found.update(f.name for f in node.body
                         if isinstance(f, DEFS) and not (
                             f.name.startswith("__")
                             and f.name.endswith("__")))
    return found


def referenced_names(path, strings=False):
    """Every name a module reads, imports or reaches as an attribute,
    plus, with strings, every string constant that is an identifier (the
    tracer names the layers it binds as strings)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            found.add(node.value)
    return found


def test_the_usage_scan_sees_bench_and_library_names():
    bench = set().union(*(referenced_names(p, strings=True)
                          for p in BENCH.glob("*.py")))
    # bound by string in tracing.LAYERS, reached by attribute elsewhere
    assert {"infer_relation", "ramanujan_f_sum", "_scan_unit",
            "atom_series"} <= bench
    assert "_term" in referenced_names(SRC / "jacobi.py")
    assert "normalize_atom" in top_level_defs(SRC / "theta.py")


def test_every_library_definition_is_used_outside_the_tests():
    modules = sorted(SRC.glob("*.py"))
    used = set().union(*(referenced_names(p) for p in modules),
                       *(referenced_names(p, strings=True)
                         for p in BENCH.glob("*.py")))
    unused = sorted((p.name, name) for p in modules
                    for name in top_level_defs(p)
                    if name not in used and (p.name, name) not in USED_ELSEWHERE)
    assert unused == []
    # the listed exception is still defined, and still used nowhere else
    for module, name in USED_ELSEWHERE:
        assert name in top_level_defs(SRC / module)
        assert name not in used


def test_the_readme_example_runs():
    """The README's Python block runs against this source tree, and
    calls count_partitions, the one name USED_ELSEWHERE excuses."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    calls = {node.func.id for node in ast.walk(ast.parse(blocks[0]))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {name for _, name in USED_ELSEWHERE} <= calls
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
