"""Module constants and error classes of the package.

Each module constant is read by the package, and the README's "Numerical
contracts" table gives each contract its value in the code. A constant is
a module-level assignment to an UPPER_CASE name (a leading underscore
allowed). It counts as read when the name is loaded, or accessed as an
attribute, anywhere in ``src/qthermo``; reads from the tests do not
count. A tolerance that nothing reads states a contract that nothing
checks.

No public function or dataclass takes a numeric option: an int or float
default is a physical input from a short list, never a threshold.

Every import is read by its module (``__init__.py`` re-exports aside),
and every module-level function or class by the package or the tests.

Each exception the package builds follows the one error rule: it is a
``ValueError`` (invalid inputs) or a ``qcore.NumericalError`` (valid
inputs, failed numerics), never both. The one other is the
``AttributeError`` of a module's ``__getattr__`` (PEP 562), which Python's
attribute lookup requires of it.
"""

import ast
import builtins
import importlib
import inspect
import pathlib
import re
from dataclasses import is_dataclass

import qthermo
from qthermo.qcore import NumericalError

PACKAGE = pathlib.Path(qthermo.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_trees():
    return {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def module_name(path):
    return ".".join(["qthermo", *path[:-3].split("/")]).removesuffix(
        ".__init__")


def module_constants(trees):
    """(module file, name) of every module-level constant."""
    return [(module, target.id) for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)]


def names_read(trees):
    """Every name loaded, or accessed as an attribute, in the trees."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return reads


def test_every_module_constant_is_read():
    trees = module_trees()
    reads = names_read(trees.values())
    constants = module_constants(trees)
    assert len(constants) > 20
    assert [c for c in constants if c[1] not in reads] == []


def test_every_import_and_definition_is_read():
    # dead code: an import its module never reads (an __init__.py import
    # is a re-export), or a module-level function or class that neither
    # the package nor the tests read
    trees = module_trees()
    unread_imports = []
    for path, tree in trees.items():
        if path.endswith("__init__.py"):
            continue
        reads = names_read([tree])
        unread_imports += [
            f"{path}: {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in reads]
    tests = [ast.parse(path.read_text())
             for path in pathlib.Path(__file__).parent.glob("*.py")]
    reads = names_read([*trees.values(), *tests])
    unread_definitions = [
        f"{path}: {node.name}" for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in reads]
    assert unread_imports + unread_definitions == []


# constants that replaced per-call or per-instance options
FORMER_OPTIONS = {("trajectories", "FT_MIN_COUNT"),
                  ("trajectories", "FT_MAX_ATOMS"),
                  ("models.fridge", "T_MIN_HORIZON_PERIODS"),
                  ("models.single_dot", "BORN_MARKOV_MARGIN"),
                  ("models.double_dot", "DOUBLE_DOT_MARGIN")}


def test_contract_table_matches_the_code():
    # every TOL_* constant and every former option has a row, and every
    # row the code's value
    text = README.read_text()
    table = text[text.index("## Numerical contracts"):]
    rows = re.findall(r"^\| `([a-z_.]+)\.([A-Z0-9_]+)` \| ([^|]+) \|",
                      table, re.MULTILINE)
    tolerances = {name for _, name in module_constants(module_trees())
                  if name.startswith("TOL_")}
    assert tolerances <= {name for _, name, _ in rows}
    assert FORMER_OPTIONS <= {(module, name) for module, name, _ in rows}
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"qthermo.{module}"),
                       name) == float(value), (module, name)


# physical inputs with a natural default; perfbench sets random_hermitian's
# scale
PHYSICAL_DEFAULTS = {"ReservoirSpec.chemical_potential",
                     "ReservoirSpec.coupling", "JumpChannel.energy_quantum",
                     "JumpChannel.particle_quantum", "cumulants.max_order",
                     "random_hermitian.scale"}


def test_no_numeric_options():
    found = set()
    for path in module_trees():
        module = importlib.import_module(module_name(path))
        for name, obj in vars(module).items():
            if (name.startswith("_") or not (inspect.isfunction(obj) or (
                    inspect.isclass(obj) and is_dataclass(obj)))
                    or not obj.__module__.startswith("qthermo")):
                continue
            for param in inspect.signature(obj).parameters.values():
                default = param.default
                if (isinstance(default, (int, float))
                        and not isinstance(default, bool)):
                    found.add(f"{name}.{param.name}")
    assert sorted(found - PHYSICAL_DEFAULTS) == []
    assert PHYSICAL_DEFAULTS <= found


def called_exception_classes(module, tree):
    """(line, name, class) of every call in the module's source whose
    dotted name resolves, in the module's namespace, to an exception."""
    namespace = vars(importlib.import_module(module))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        obj = namespace.get(func.id, getattr(builtins, func.id, None))
        for attr in parts:
            obj = getattr(obj, attr, None)
        if (isinstance(obj, type) and issubclass(obj, BaseException)
                and not issubclass(obj, Warning)):
            found.append((node.lineno, ".".join([func.id, *parts]), obj))
    return found


def attribute_hook_lines(tree):
    """Source lines of the module's ``__getattr__`` (PEP 562)."""
    return {line for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for line in range(node.lineno, node.end_lineno + 1)}


def test_every_raised_error_is_input_or_numerical():
    sites, wrong = 0, []
    for path, tree in module_trees().items():
        hook = attribute_hook_lines(tree)
        for line, name, cls in called_exception_classes(module_name(path),
                                                        tree):
            if cls is AttributeError and line in hook:
                continue
            sites += 1
            if issubclass(cls, ValueError) == issubclass(cls, NumericalError):
                wrong.append(f"{path}:{line} {name}")
    assert sites > 100
    assert wrong == []
