"""Per-layer tracing of invbargraph, done entirely from outside the package.

``Tracer.install()`` replaces the traced functions and methods of each layer
with wrappers that record a span (name, start, end, parent span) and counters;
``Tracer.uninstall()`` puts the originals back.  Nothing under ``src/``
changes.  A module-level function is replaced in every invbargraph namespace
that holds it, including tuples stored in module-level dicts, because the
package binds names across modules (``from invbargraph.recur import ...``,
``gfseries._TOTAL_GF_BUILDERS``).

Times are seconds.  A group's inclusive time counts only its outermost calls,
so recursion and nested calls of the same group are not counted twice; its
self time excludes every traced call made inside it.  Calls of "hot" groups
(millions of small operations in the worst case) are aggregated only; all
other calls are also kept as individual spans for ``spans()``.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from collections import Counter, defaultdict

import invbargraph
from invbargraph import bijections, cli, gfseries, invseq, kernel, mpoly, recur, verify
from invbargraph.gfseries import RationalSeries
from invbargraph.mpoly import MPoly

# Every namespace the package binds its functions into.
_NAMESPACES = (invbargraph, bijections, cli, gfseries, invseq, kernel, mpoly, recur, verify)


def _table_terms(args, result) -> int:
    if isinstance(result, list):  # bn_poly_recurrence returns the row polynomials
        return sum(len(poly) for poly in result)
    return sum(len(cell) for _, _, cell in result.cells())


def _sequences(args, result) -> int:
    return math.factorial(args[0])


def _eval_terms(args, result) -> int:
    return len(args[0])


def _checks(args, result) -> int:
    return len(result[0])


# (module, function, group, counter added to by `measure`, measure)
_FUNCTIONS = (
    (kernel, "area_sper_counts", "kernel.walk", "kernel.sequences", _sequences),
    (kernel, "lda_counts", "kernel.walk", "kernel.sequences", _sequences),
    (recur, "a_table_lemma", "recur.a_lemma", "recur.table_terms", _table_terms),
    (recur, "a_table_threeterm", "recur.a_threeterm", "recur.table_terms", _table_terms),
    (recur, "b_table_lemma", "recur.b_lemma", "recur.table_terms", _table_terms),
    (recur, "b_table_threeterm", "recur.b_threeterm", "recur.table_terms", _table_terms),
    (recur, "bn_poly_recurrence", "recur.bn_rows", "recur.table_terms", _table_terms),
    (recur, "check_an_functional", "recur.identity_checks", None, None),
    (recur, "check_stirling_eulerian", "recur.identity_checks", None, None),
    (recur, "check_sign_balance", "recur.identity_checks", None, None),
    (gfseries, "series_from_table", "gfseries.series_from_table", None, None),
    (gfseries, "expand_area_ogf", "gfseries.closed_forms", None, None),
    (gfseries, "expand_area_last_ogf", "gfseries.closed_forms", None, None),
    (gfseries, "total_area_gf", "gfseries.closed_forms", None, None),
    (gfseries, "total_levels_gf", "gfseries.closed_forms", None, None),
    (gfseries, "total_descents_gf", "gfseries.closed_forms", None, None),
    (gfseries, "total_ascents_gf", "gfseries.closed_forms", None, None),
    (gfseries, "check_lda_kernel", "gfseries.kernel_identity", None, None),
    (invseq, "brute_dist_area_sper", "invseq.brute", None, None),
    (invseq, "brute_dist_lda", "invseq.brute", None, None),
    (invseq, "brute_stat_totals", "invseq.brute", None, None),
    (verify, "_suite_recurrences", "verify.recurrences", None, None),
    (verify, "_suite_totals", "verify.totals", None, None),
    (verify, "_suite_signbalance", "verify.signbalance", None, None),
    (verify, "_suite_bijections", "verify.bijections", None, None),
    (verify, "_suite_gf", "verify.gf", None, None),
    (verify, "run_verify", "verify.run", "verify.checks", _checks),
    (cli, "main", "cli.main", None, None),
)

# Hot module functions: (module, function, group).
_HOT_FUNCTIONS = (
    (invseq, "stats", "invseq.stats"),
    *((bijections, name, "bijections.map") for name in (
        "complement", "area_flip", "sper_involution", "levels_involution",
        "f_levels_to_cycles", "f_inverse", "g_ascents", "g_inverse",
    )),
)

# (class, method, group, call counter, counter added to by `measure`, measure, hot)
_METHODS = (
    *((MPoly, name, "mpoly.arith", "mpoly.add", None, None, True)
      for name in ("__add__", "__radd__", "__sub__", "__rsub__")),
    *((MPoly, name, "mpoly.arith", "mpoly.mul", None, None, True)
      for name in ("__mul__", "__rmul__")),
    (MPoly, "__neg__", "mpoly.arith", "mpoly.neg", None, None, True),
    (MPoly, "__pow__", "mpoly.arith", "mpoly.pow", None, None, True),
    *((MPoly, name, "mpoly.text", "mpoly.text", None, None, False)
      for name in ("to_text", "from_text", "to_json_obj", "from_json_obj")),
    (MPoly, "eval_rational", "mpoly.eval_rational", "mpoly.eval_rational",
     "mpoly.eval_terms", _eval_terms, False),
    (MPoly, "substitute", "mpoly.substitute", "mpoly.substitute", None, None, False),
    *((RationalSeries, name, "gfseries.ops", "gfseries.mul", None, None, True)
      for name in ("__mul__", "__rmul__")),
    (RationalSeries, "inv", "gfseries.ops", "gfseries.inv", None, None, True),
    (RationalSeries, "compose", "gfseries.ops", "gfseries.compose", None, None, True),
)


class Tracer:
    """Spans and counters for the traced layers, one iteration at a time."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []
        self._spans: list[tuple] = []
        self._iteration = -1
        self.reset()

    def reset(self) -> None:
        """Start a new iteration: zero the accumulators (spans are kept)."""
        self._iteration += 1
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._incl: defaultdict = defaultdict(float)
        self._self: defaultdict = defaultdict(float)
        self._counts: Counter = Counter()
        self._open_span: int | None = None

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, name, group, counter, measure in _FUNCTIONS:
            self._replace_function(module, name, group, counter, measure, hot=False)
        for module, name, group in _HOT_FUNCTIONS:
            self._replace_function(module, name, group, None, None, hot=True)
        for cls, name, group, calls, counter, measure, hot in _METHODS:
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, group, calls, counter, measure, hot))
            else:
                wrapped = self._wrap(raw, group, calls, counter, measure, hot)
            self._undo.append((setattr, cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def _replace_function(self, module, name, group, counter, measure, hot) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, group, group, counter, measure, hot)
        for namespace in _NAMESPACES:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((setattr, namespace, key, value))
                    setattr(namespace, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in value.items():
                        if isinstance(dvalue, tuple) and any(v is original for v in dvalue):
                            self._undo.append((operator.setitem, value, dkey, dvalue))
                            value[dkey] = tuple(wrapper if v is original else v
                                                for v in dvalue)

    def _wrap(self, fn, group, calls, counter, measure, hot):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open_span
            span_id = None
            if not hot:
                span_id = len(tracer._spans)
                tracer._spans.append(None)  # reserves the id; filled in on return
                tracer._open_span = span_id
            frame = [clock(), 0.0]  # start, time spent in traced calls inside
            tracer._stack.append(frame)
            tracer._depth[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._depth[group] -= 1
                elapsed = end - frame[0]
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                if not tracer._depth[group]:
                    tracer._incl[group] += elapsed
                tracer._self[group] += elapsed - frame[1]
                tracer._counts[calls] += 1
                if span_id is not None:
                    tracer._spans[span_id] = (tracer._iteration, span_id, parent,
                                              group, frame[0], end)
                    tracer._open_span = parent
            if counter is not None:
                tracer._counts[counter] += measure(args, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float | int]:
        """The per-layer metrics of the current iteration, by BENCHMARK.json name."""
        t, own, c = self._incl, self._self, self._counts
        walk = t["kernel.walk"]
        return {
            "kernel.walk_s": walk,
            "kernel.sequences": c["kernel.sequences"],
            "kernel.seq_per_s": c["kernel.sequences"] / walk if walk else 0.0,
            "mpoly.mul_calls": c["mpoly.mul"],
            "mpoly.add_calls": c["mpoly.add"],
            "mpoly.arith_s": t["mpoly.arith"],
            "mpoly.text_s": t["mpoly.text"],
            "mpoly.eval_rational_calls": c["mpoly.eval_rational"],
            "mpoly.eval_terms": c["mpoly.eval_terms"],
            "mpoly.eval_rational_s": t["mpoly.eval_rational"],
            "mpoly.substitute_s": t["mpoly.substitute"],
            "recur.a_lemma_s": t["recur.a_lemma"],
            "recur.a_threeterm_s": t["recur.a_threeterm"],
            "recur.b_lemma_s": t["recur.b_lemma"],
            "recur.b_threeterm_s": t["recur.b_threeterm"],
            "recur.bn_rows_s": t["recur.bn_rows"],
            "recur.table_terms": c["recur.table_terms"],
            "recur.identity_checks_s": t["recur.identity_checks"],
            "gfseries.series_from_table_s": t["gfseries.series_from_table"],
            "gfseries.closed_forms_s": t["gfseries.closed_forms"],
            "gfseries.kernel_identity_s": t["gfseries.kernel_identity"],
            "gfseries.mul_calls": c["gfseries.mul"],
            "gfseries.inv_calls": c["gfseries.inv"],
            "gfseries.compose_calls": c["gfseries.compose"],
            "invseq.brute_assemble_s": own["invseq.brute"],
            "invseq.stats_calls": c["invseq.stats"],
            "invseq.stats_s": t["invseq.stats"],
            "bijections.map_calls": c["bijections.map"],
            "bijections.map_s": t["bijections.map"],
            "verify.recurrences_s": t["verify.recurrences"],
            "verify.totals_s": t["verify.totals"],
            "verify.signbalance_s": t["verify.signbalance"],
            "verify.bijections_s": t["verify.bijections"],
            "verify.gf_s": t["verify.gf"],
            "verify.checks": c["verify.checks"],
            "cli.overhead_s": own["cli.main"],
        }

    def spans(self) -> list[dict]:
        """Every recorded span, in the order the calls began."""
        keys = ("iteration", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, span)) for span in self._spans if span is not None]
