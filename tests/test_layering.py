"""Module layering of the package, read from its source.

A coefficient table is computed by ``expansion.expand`` (and its loop
``expand_all``) and read from disk by ``expansion.load_cache``; the
command line's table loader alone decides which of the two each table
takes.  Every other module receives its tables from its caller, and
no module reads a table's ``coeffs`` mapping: the library reads its
arrays.

A module reaches another only through its public names: none imports,
or reads as an attribute of an imported module, a ``_``-prefixed name
of another module of the package.

Every subcommand of the command line has one ``return``, of its
manifest's exit code, so no subcommand decides its exit code apart from
the checks it records.

Every settable value of the package (a function parameter with a
default, a dataclass field with a default, a command-line option) is
listed in ``settings_inventory.txt``; a new one is added there on
purpose.

Every top-level function and class of the package is run by a
subcommand: the names each definition of ``cli.py`` uses reach it,
directly or through other definitions.  The only exceptions are the
definitions that ``bench/`` alone still calls.
"""

import ast
import pathlib

import laughlin

TABLE_SOURCES = {"expand", "expand_all", "load_cache"}
MAY_SOURCE_TABLES = {"expansion", "cli"}
# called by bench/ and the tests only, until the benchmark reads arrays
BENCH_ONLY = {"expansion.expand_all", "lattice.enumerate_admissible",
              "lattice.renewal_points", "lattice.is_canonical"}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_only_expansion_and_cli_source_tables():
    package = pathlib.Path(laughlin.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {m.stem for m in modules} >= MAY_SOURCE_TABLES | {"renewal"}
    offenders = {}
    for path in modules:
        if path.stem in MAY_SOURCE_TABLES:
            continue
        used = referenced_names(ast.parse(path.read_text(), str(path)))
        if used & TABLE_SOURCES:
            offenders[path.stem] = sorted(used & TABLE_SOURCES)
    assert offenders == {}


def test_no_module_reads_the_coefficient_mapping():
    # Attribute reads only: the mapping constructor's parameter and
    # local dicts named ``coeffs`` are plain names.
    package = pathlib.Path(laughlin.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
        if reads:
            offenders[path.stem] = reads
    assert offenders == {}


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_names_from_other_modules(tree: ast.AST) -> set[str]:
    """The ``_``-prefixed names a module takes from other package modules,
    by ``from ... import`` or as an attribute of an imported module."""
    found, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("laughlin")):
            for alias in node.names:
                if private(alias.name):
                    found.add(f"{node.module}.{alias.name}")
                elif node.module in (None, "laughlin"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_takes_a_private_name_of_another():
    package = pathlib.Path(laughlin.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if names := private_names_from_other_modules(tree):
            offenders[path.stem] = sorted(names)
    assert offenders == {}


def exits_through_manifest(ret: ast.Return) -> bool:
    """Whether a ``return`` returns ``em.manifest(...)``."""
    call = ret.value
    return (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "manifest"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "em")


def test_every_subcommand_exits_through_its_manifest():
    path = pathlib.Path(laughlin.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")]
    assert commands
    offenders = {}
    for command in commands:
        returns = [node for node in ast.walk(command)
                   if isinstance(node, ast.Return)]
        if len(returns) != 1 or not exits_through_manifest(returns[0]):
            offenders[command.name] = [ast.unparse(r) for r in returns]
    assert offenders == {}


class SettableValues(ast.NodeVisitor):
    """The settable values of one module, in source order: defaulted
    parameters as ``f(name)``, defaulted dataclass fields as
    ``Class.name`` and argparse options as ``f[subcommand --option]``,
    each prefixed with its module and enclosing scopes."""

    def __init__(self, module: str):
        self.scope, self.found, self.subcommand = [module], [], ""

    def where(self, name: str) -> str:
        return ".".join(self.scope + [name])

    def inside(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            self.found += [self.where(f"{node.name}.{field.target.id}")
                           for field in node.body
                           if isinstance(field, ast.AnnAssign)
                           and field.value is not None]
        self.inside(node)

    def visit_FunctionDef(self, node):
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
        self.found += [self.where(f"{node.name}({arg.arg})")
                       for arg in defaulted]
        self.inside(node)

    def visit_Call(self, node):
        method = getattr(node.func, "attr", None)
        if method == "add_parser":
            self.subcommand = node.args[0].value + " "
        elif method == "add_argument":
            self.found.append(f"{'.'.join(self.scope)}"
                              f"[{self.subcommand}{node.args[0].value}]")
        self.generic_visit(node)


def test_settings_inventory():
    package = pathlib.Path(laughlin.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        visitor = SettableValues(path.stem)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    listed = (pathlib.Path(__file__).parent
              / "settings_inventory.txt").read_text().splitlines()
    assert listed == sorted(listed)
    assert sorted(found) == listed


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def definition_uses(path: pathlib.Path) -> dict[str, set[str]]:
    """The package definitions (``module.name``) that each top-level
    definition of a module uses, with the module's other top-level
    statements under ``module.``: names defined in the module, names
    imported from the package, and attributes of imported package
    modules.  A class uses what any of its methods uses."""
    module = path.stem
    tree = ast.parse(path.read_text(), str(path))
    scope = {node.name: f"{module}.{node.name}" for node in tree.body
             if isinstance(node, DEFINITIONS)}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("laughlin")):
            for alias in node.names:
                if node.module in (None, "laughlin"):
                    modules[alias.asname or alias.name] = alias.name
                else:
                    source = node.module.rpartition(".")[2]
                    scope[alias.asname or alias.name] = \
                        f"{source}.{alias.name}"

    def used(node) -> set[str]:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in scope:
                found.add(scope[sub.id])
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                found.add(f"{modules[sub.value.id]}.{sub.attr}")
        return found

    uses = {f"{module}.": set()}
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            uses[f"{module}.{node.name}"] = used(node)
        else:
            uses[f"{module}."] |= used(node)
    return uses


def test_every_definition_is_run_by_a_subcommand():
    package = pathlib.Path(laughlin.__file__).parent
    uses = {}
    for path in sorted(package.glob("*.py")):
        uses.update(definition_uses(path))
    # the command line, and what each module runs on import
    todo = [name for name in uses
            if name.startswith("cli.") or name.endswith(".")]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += uses.get(name, ())
    unreached = {name for name in uses
                 if name not in reached and not name.endswith(".")}
    assert unreached == BENCH_ONLY
