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

No module of the package, and no test module, imports a name it never
reads.

Every subcommand of the command line has one ``return``, of its
manifest's exit code, so no subcommand decides its exit code apart from
the checks it records.

Each check name is recorded at one call site, so its tolerance is
written once, and a verdict that compares its measured value with its
tolerance is recorded by ``Emitter.bound``, not spelt out in a
``check`` call.

The command line calls each solver in the one stage helper that records
it: the Lanczos eigensolve in ``_spectrum_stage`` and the Metropolis
run in ``_sample_stage``.

Every settable value of the package (a function parameter with a
default, a dataclass field with a default, a command-line option) is
listed in ``settings_inventory.txt``; a new one is added there on
purpose.

Every top-level function and class of the package is run by a
subcommand: the names each definition of ``cli.py`` uses reach it,
directly or through other definitions.  So is every member of a class
(method, property or field): reached code reads an attribute of its
name.  The only exceptions are the definitions that ``bench/`` alone
still calls and the members that it alone reads.

What the benchmark needs from the package is kept working here too:
``bench/selftest.py`` passes, and every function that ``bench/run.py``
traces can be wrapped and restored, so a change that deletes a name
the benchmark calls or traces fails here and not in a benchmark run.

``expand``, ``norms``, ``renewal``, ``corr`` and ``mcmc`` start without
``scipy.sparse``, which only assembling or solving a Hamiltonian loads,
and ``ham`` runs without ``scipy.special``.
"""

import ast
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

import laughlin

TABLE_SOURCES = {"expand", "expand_all", "load_cache"}
MAY_SOURCE_TABLES = {"expansion", "cli"}
# called by bench/ and the tests only, until the benchmark reads arrays
# (config_tuples through enumerate_admissible)
BENCH_ONLY = {"expansion.expand_all", "lattice.enumerate_admissible",
              "lattice.renewal_points", "lattice.is_canonical",
              "lattice.config_tuples"}
# class members that bench/ alone reads, with the file that reads them
BENCH_READS = {
    "expansion.CoefficientTable.coeffs": "bench/run.py",
    "expansion.ProductRuleReport.checked": "bench/checks.py",
    "expansion.ProductRuleReport.ok": "bench/checks.py",
    "plasma.PhaseProfile.window": "bench/workloads.py",
    "plasma.PhaseProfile.zscores": "bench/checks.py",
}


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


def unread_imports(tree: ast.AST) -> set[str]:
    """The names a module imports (``__future__`` features aside) and
    never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    package = pathlib.Path(laughlin.__file__).parent
    paths = [m for m in sorted(package.glob("*.py"))
             if m.name != "__init__.py"]
    paths += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    unread = {f"{path.parent.name}/{path.name}": sorted(names)
              for path in paths
              if (names := unread_imports(ast.parse(path.read_text())))}
    assert unread == {}


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


def verdict_calls(tree: ast.AST) -> list[ast.Call]:
    """The ``.check(...)`` and ``.bound(...)`` calls of a module that
    name their check by a string literal."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("check", "bound")
            and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)]


def compares_its_own_arguments(call: ast.Call) -> bool:
    """Whether a ``check`` call's verdict is a comparison of the measured
    value and the tolerance it passes, which ``bound`` records."""
    if call.func.attr != "check" or len(call.args) < 4:
        return False
    measured, tolerance, passed = call.args[1:4]
    return (isinstance(passed, ast.Compare) and len(passed.comparators) == 1
            and {ast.dump(passed.left), ast.dump(passed.comparators[0])}
            == {ast.dump(measured), ast.dump(tolerance)})


def test_each_check_is_recorded_at_one_site_and_bounds_use_bound():
    package = pathlib.Path(laughlin.__file__).parent
    sites, spelt_out = defaultdict(list), []
    for path in sorted(package.glob("*.py")):
        for call in verdict_calls(ast.parse(path.read_text(), str(path))):
            where = f"{path.stem}:{call.lineno}"
            sites[call.args[0].value].append(where)
            if compares_its_own_arguments(call):
                spelt_out.append(where)
    assert spelt_out == []
    assert {name: where for name, where in sites.items()
            if len(where) > 1} == {}
    assert len(sites) == 22  # every check name, so the scan sees them all


# each solver the command line calls, with the one stage helper calling it
SOLVER_STAGES = {"hamiltonian.spectrum": "_spectrum_stage",
                 "plasma.metropolis_run": "_sample_stage"}


def test_each_solver_is_called_in_its_stage_alone():
    path = pathlib.Path(laughlin.__file__).parent / "cli.py"
    callers = defaultdict(set)
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and \
                    ast.unparse(node.func) in SOLVER_STAGES:
                callers[ast.unparse(node.func)].add(
                    getattr(top, "name", "<module>"))
    assert callers == {solver: {stage}
                       for solver, stage in SOLVER_STAGES.items()}


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


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_nodes(path: pathlib.Path) -> dict[str, tuple[set, set]]:
    """The nodes of one module, each with the package definitions it
    uses and the attribute names it reads.

    The nodes are the top-level definitions (``module.name``), the
    members of each class (``module.Class.member``: methods, properties
    and fields) and the module's other top-level statements
    (``module.``).  A class node holds the class body outside its
    methods, and its dunder methods, which run without being named.  A
    node uses the names defined in the module, the names imported from
    the package and the attributes of imported package modules; it reads
    every attribute it loads from anything other than a name that an
    import from outside the package binds, at any depth, so neither
    ``np.empty`` nor ``sparse.diags`` in a function that imports
    ``sparse`` reads anything of the package."""
    module = path.stem
    tree = ast.parse(path.read_text(), str(path))
    scope = {node.name: f"{module}.{node.name}" for node in tree.body
             if isinstance(node, DEFINITIONS)}
    package_modules, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("laughlin")):
            for alias in node.names:
                if node.module in (None, "laughlin"):
                    package_modules[alias.asname or alias.name] = alias.name
                else:
                    source = node.module.rpartition(".")[2]
                    scope[alias.asname or alias.name] = \
                        f"{source}.{alias.name}"
        elif isinstance(node, ast.ImportFrom):  # at any depth
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)

    def node(*parts) -> tuple[set, set]:
        uses, reads = set(), set()
        for sub in (sub for part in parts for sub in ast.walk(part)):
            if isinstance(sub, ast.Name) and sub.id in scope:
                uses.add(scope[sub.id])
            elif isinstance(sub, ast.Attribute):
                receiver = getattr(sub.value, "id", None)
                if receiver in package_modules:
                    uses.add(f"{package_modules[receiver]}.{sub.attr}")
                elif (receiver not in imported
                      and isinstance(sub.ctx, ast.Load)):
                    reads.add(sub.attr)
        return uses, reads

    nodes = {f"{module}.": node(*(part for part in tree.body
                                  if not isinstance(part, DEFINITIONS)))}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            nodes[f"{module}.{top.name}"] = node(top)
        elif isinstance(top, ast.ClassDef):
            methods = [part for part in top.body
                       if isinstance(part, ast.FunctionDef)
                       and not dunder(part.name)]
            nodes[f"{module}.{top.name}"] = node(
                *top.decorator_list, *top.bases,
                *(part for part in top.body if part not in methods))
            for method in methods:
                nodes[f"{module}.{top.name}.{method.name}"] = node(method)
            for field in top.body:
                if isinstance(field, ast.AnnAssign):
                    nodes[f"{module}.{top.name}.{field.target.id}"] = \
                        (set(), set())
    return nodes


def test_a_name_imported_in_a_function_reads_nothing(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f(x):\n"
                    "    from scipy import sparse\n"
                    "    return sparse.diags(x).shape\n")
    assert module_nodes(path)["probe.f"] == (set(), {"shape"})


def test_every_definition_is_run_by_a_subcommand():
    package = pathlib.Path(laughlin.__file__).parent
    nodes = {}
    for path in sorted(package.glob("*.py")):
        nodes.update(module_nodes(path))
    members = defaultdict(set)  # attribute name -> the members of that name
    for name in nodes:
        if name.count(".") == 2:
            members[name.rpartition(".")[2]].add(name)
    # the command line, and what each module runs on import
    todo = [name for name in nodes if name.endswith(".")
            or name.startswith("cli.") and name.count(".") == 1]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            uses, reads = nodes.get(name, ((), ()))
            todo += uses
            for attr in reads:
                todo += members[attr]
    unreached = {name for name in nodes
                 if name not in reached and not name.endswith(".")}
    assert sorted(unreached) == sorted(BENCH_ONLY | BENCH_READS.keys())


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Python in a child process at the root of the checkout, with the
    package and ``bench/`` importable and no bytecode written."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"),
                                           str(ROOT / "bench"))))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_bench_selftest_passes():
    done = run_python("bench/selftest.py")
    assert done.returncode == 0, done.stderr[-3000:]


# run.py re-executes itself unless PYTHONHASHSEED is 0, which the child has
TRACE_EVERY_TARGET = """
import importlib
import run
from tracing import Tracer
targets = run._layer_targets()
def bound():
    return [getattr(importlib.import_module(module), name)
            for module, name, _, _ in targets]
found = bound()
tracer = Tracer()
tracer.install(targets)
wrapped = bound()
tracer.uninstall()
assert all(w is not f for w, f in zip(wrapped, found)), "not wrapped"
assert bound() == found, "not restored"
"""


def test_every_bench_target_can_be_traced():
    done = run_python("-c", TRACE_EVERY_TARGET)
    assert done.returncode == 0, done.stderr[-3000:]


# the exact-table, renewal and correlation subcommands run without the
# SciPy packages that only assembling or solving a Hamiltonian needs
SCIPY_ONLY_TO_ASSEMBLE = """
import sys
from laughlin import cli
common = ["--cache-dir", sys.argv[1], "--out-dir", sys.argv[2]]
def loaded():
    return [name for name in ("scipy.sparse", "scipy.special")
            if name in sys.modules]
assert loaded() == [], loaded()
for argv in (["expand", "--p", "3", "--N", "4"],
             ["norms", "--p", "3", "--Nmax", "4"],
             ["renewal", "--p", "3", "--Nmax", "4"],
             ["corr", "--p", "3", "--Nmax", "4", "--N", "4", "--no-compute"],
             ["mcmc", "--p", "3", "--N", "4", "--sweeps", "2000",
              "--burn-in", "200", "--seed", "1",
              "--observables", "density,excess,phase"]):
    assert cli.main(argv + common) == 0, argv
    assert loaded() == [], (argv, loaded())
assert cli.main(["ham", "--p", "3", "--N", "3"] + common) == 0
assert loaded() == ["scipy.sparse"], loaded()
"""


def test_scipy_loads_only_to_assemble(tmp_path):
    done = run_python("-c", SCIPY_ONLY_TO_ASSEMBLE, str(tmp_path / "cache"),
                      str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr[-3000:]
