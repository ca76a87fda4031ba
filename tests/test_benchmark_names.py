"""The benchmark's tracer (perfbench/tracing.py) wraps package functions and
methods by name.  Installing and uninstalling it here makes a deleted or
renamed name, such as `MPoly.__pow__`, `MPoly.substitute` or
`MPoly.to_json_obj`, fail the package's own tests.  The tracer is loaded from
its file and nothing under perfbench/ is changed.
"""

import importlib.util
from pathlib import Path

from invbargraph import recur, verify
from invbargraph.mpoly import MPoly, P, Q, Y

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
