"""The benchmark reads package names that nothing under src/ may delete.

Its tracer (perfbench/tracing.py) wraps package functions and methods by
name.  Installing and uninstalling it here makes a deleted or renamed name,
such as `MPoly.__pow__`, `MPoly.substitute` or `MPoly.to_json_obj`, fail the
package's own tests.  Its workloads (perfbench/workloads.py) call package
functions and read constants and methods, such as `recur.table_stat_total`,
`cli.VERIFY_NMAX_MAX` or `DistTable.with_cell`; the file is parsed here, not
run, and each name it reads must exist.  Nothing under perfbench/ is changed.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import random
from pathlib import Path

import invbargraph
from invbargraph import recur, verify
from invbargraph.mpoly import MPoly, P, Q, Y

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    methods = {name: MPoly.__dict__[name] for name in ("__pow__", "substitute", "to_json_obj")}
    functions = (recur.bn_poly_recurrence, verify.run_verify)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(MPoly.__dict__[name] is not f for name, f in methods.items())
        assert recur.bn_poly_recurrence is not functions[0]
        assert (Y * P) ** 2 == MPoly.monomial(1, y=2, p=2)
        assert P.substitute("p", Q) == Q
        assert len(recur.bn_poly_recurrence(3)) == 3
        counts = tracer.layer_metrics()
        assert counts["recur.table_terms"] > 0 and counts["mpoly.substitute_s"] > 0
    finally:
        tracer.uninstall()
    assert all(MPoly.__dict__[name] is f for name, f in methods.items())
    assert (recur.bn_poly_recurrence, verify.run_verify) == functions


def package_classes():
    """Every class defined in a module of the package."""
    classes = []
    for info in pkgutil.iter_modules(invbargraph.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            module = importlib.import_module(f"invbargraph.{info.name}")
            classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                        if cls.__module__ == module.__name__]
    return classes


def test_every_name_the_workloads_read_exists():
    tree = ast.parse(WORKLOADS.read_text())
    package, others = {}, set()  # names bound by imports from the package, and by other imports
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "invbargraph":
            exec(ast.unparse(node), package)  # ImportError for a name that is gone
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            others.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    # `for name in ("a", "b"): getattr(module, name)` reads module.a and module.b
    loop_names = {node.target.id: [elt.value for elt in node.iter.elts]
                  for node in ast.walk(tree)
                  if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                  and isinstance(node.iter, ast.Tuple)}
    # an attribute of anything else, a table or a record, must be one that a package
    # class, or a list, dict, path or random generator, provides
    provided = set().union(*map(dir, [*package_classes(), list, dict, Path, random.Random]))
    reads, missing = 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner, names = node.value, [node.attr]
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
              and isinstance(node.args[1], ast.Name)):
            owner, names = node.args[0], loop_names[node.args[1].id]
        else:
            continue
        name = owner.id if isinstance(owner, ast.Name) else None
        if name in others or name == "self":
            continue
        for attr in names:
            reads += 1
            found = hasattr(package[name], attr) if name in package else attr in provided
            if not found:
                missing.append(f"{ast.unparse(owner)}.{attr}")
    assert reads > 50 and missing == []
