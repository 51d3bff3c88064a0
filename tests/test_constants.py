"""Module constants: each is read by the package, and the README's
"Numerical contracts" table gives each contract its value in the code.

A constant is a module-level assignment to an UPPER_CASE name (a leading
underscore allowed). It counts as read when the name is loaded, or
accessed as an attribute, anywhere in ``src/qthermo``; reads from the
tests do not count. A tolerance that nothing reads states a contract
that nothing checks.
"""

import ast
import importlib
import pathlib
import re

import qthermo

PACKAGE = pathlib.Path(qthermo.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_trees():
    return {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def module_constants(trees):
    """(module file, name) of every module-level constant."""
    return [(module, target.id) for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)]


def test_every_module_constant_is_read():
    trees = module_trees()
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    constants = module_constants(trees)
    assert len(constants) > 20
    assert [c for c in constants if c[1] not in reads] == []


def test_contract_table_matches_the_code():
    # every TOL_* constant has a row, and every row the code's value
    text = README.read_text()
    table = text[text.index("## Numerical contracts"):]
    rows = re.findall(r"^\| `([a-z_.]+)\.([A-Z0-9_]+)` \| ([^|]+) \|",
                      table, re.MULTILINE)
    tolerances = {name for _, name in module_constants(module_trees())
                  if name.startswith("TOL_")}
    assert tolerances <= {name for _, name, _ in rows}
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"qthermo.{module}"),
                       name) == float(value), (module, name)
