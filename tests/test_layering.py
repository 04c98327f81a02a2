"""The packed builders have one home each: qseries packs products of
(1 - s q^k)^(+-1) and sparse sums, and theta lists the theta sums and
builds their products.  Every other module goes through theta's builder
(theta._pack_sums) or the public series functions, so a second builder
cannot come back unnoticed."""

import ast
from pathlib import Path

import qshift

BUILDERS = {"_pack_sparse", "_pack_product", "ramanujan_f_terms",
            "euler_cube_terms"}
HOMES = {"qseries.py", "theta.py"}
SRC = Path(qshift.__file__).parent


def builder_names(path):
    """The BUILDERS a module names: defined, called, read or imported,
    under any alias."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            found.add(node.name)
    return found & BUILDERS


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
