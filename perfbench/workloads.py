"""The benchmark workloads: seeded inputs, the timed operation, its output check.

Each workload class provides

* ``sizes``: the fixed problem sizes, recorded with every result;
* ``make_inputs(seed)``: the inputs, generated from the seed (untimed set-up);
* ``run(inputs)``: the timed operation; returns its outputs;
* ``check(outputs)``: a list of ``(check name, passed)`` pairs;
* ``corrupt(outputs)``: the outputs with one deliberate error, which ``check``
  must report (the negative control).

Why these three: ``verify-deep`` is the headline use and is dominated by
``MPoly.eval_rational`` in the GF suite; ``tables-deep`` is ``MPoly``
arithmetic beside its text form, with no kernel and no ``gfseries`` work;
``brute-oracle`` is the enumeration kernel and the bijections, with no
``gfseries`` work and almost no ``MPoly`` arithmetic.  So each planned
optimisation (compiled kernel, packed-exponent ``MPoly``, evaluate-then-recur
in the GF suite) has a workload it dominates and one it barely touches.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from invbargraph import bijections, cli, invseq, kernel, recur
from invbargraph import _kernel_py
from invbargraph.invseq import InversionSequence, Permutation
from invbargraph.recur import DistTable

Checks = list[tuple[str, bool]]

# The formula ids `verify` reports at --nmax 9 --order 12, suite by suite:
# the gf suite draws 6 p points, 6 (p, y) points, 8 (p, q, r) points and 3 y values.
VERIFY_FORMULA_IDS = (
    ["area-sper-lemma-vs-threeterm", "area-sper-lemma-vs-brute",
     "lda-lemma-vs-threeterm", "lda-lemma-vs-brute",
     "lda-direct-row-recurrence", "area-sper-row-functional"]
    + ["totals-closed-vs-brute-vs-table", "adjacency-count-consistency"]
    + ["area-sign-balance", "sper-sign-balance", "levels-sign-balance",
       "area-flip-pairing", "sper-involution-pairing", "levels-involution-pairing"]
    + ["levels-vs-stirling", "ascents-vs-eulerian", "levels+descents-vs-eulerian",
       "levels-to-cycles-roundtrip", "ascents-map-roundtrip", "complement-transport",
       "bijection-injectivity"]
    + ["uniform-last-letter-rows"]
    + ["area-ogf-recursion", "area-ogf-closed"] * 6
    + ["area-ogf-closed"] * 6
    + ["lda-kernel-substitution", "lda-kernel-unrolled"] * 8
    + ["total-area-gf", "total-levels-gf", "total-descents-gf", "total-ascents-gf"] * 3
)


class VerifyDeep:
    """The full identity suite through the CLI, at its largest allowed sizes."""

    sizes = {"nmax": cli.VERIFY_NMAX_MAX, "order": cli.VERIFY_ORDER_MAX}

    def __init__(self, scratch: Path):
        self._report = scratch / "verify-deep-report.json"

    def make_inputs(self, seed: int) -> list[str]:
        return ["verify", "--nmax", str(self.sizes["nmax"]), "--order",
                str(self.sizes["order"]), "--seed", str(seed), "--out", str(self._report)]

    def run(self, argv: list[str]):
        code = cli.main(argv)
        return code, json.loads(self._report.read_text())

    def check(self, outputs) -> Checks:
        code, report = outputs
        checks = [("exit code 0", code == 0)]
        checks += [(f"entry {k} {entry['formula-id']} passes", entry["status"] == "pass")
                   for k, entry in enumerate(report)]
        checks.append(("formula ids as expected",
                       [entry["formula-id"] for entry in report] == VERIFY_FORMULA_IDS))
        return checks

    def corrupt(self, outputs):
        code, report = outputs
        report = [dict(entry) for entry in report]
        report[-1]["status"] = "fail"
        return code, report


class TablesDeep:
    """Both table engines per statistic pair, the direct row recurrence, and CSV text."""

    sizes = {"area_sper_n": 20, "lda_n": 40, "csv_n": 16}

    def __init__(self, scratch: Path):
        pass

    def make_inputs(self, seed: int) -> None:
        return None  # fixed sizes; the seed is recorded but not used

    def run(self, inputs) -> dict:
        a_n, b_n, csv_n = self.sizes["area_sper_n"], self.sizes["lda_n"], self.sizes["csv_n"]
        out = {
            "a_lemma": recur.a_table_lemma(a_n),
            "a_three": recur.a_table_threeterm(a_n),
            "b_lemma": recur.b_table_lemma(b_n),
            "b_three": recur.b_table_threeterm(b_n),
            "bn_rows": recur.bn_poly_recurrence(b_n),
        }
        # Rows 1..16 of the n = 20 table are the area/sper table at n = 16.
        out["csv_table"] = DistTable(out["a_lemma"].row(m) for m in range(1, csv_n + 1))
        out["csv_parsed"] = DistTable.from_csv(out["csv_table"].to_csv())
        return out

    def check(self, out: dict) -> Checks:
        a, b = out["a_lemma"], out["b_lemma"]
        return [
            ("area/sper lemma = threeterm", a == out["a_three"]),
            ("lda lemma = threeterm", b == out["b_three"]),
            ("bn rows = lda row polynomials",
             len(out["bn_rows"]) == b.n
             and all(poly == recur.row_poly(b, m) for m, poly in enumerate(out["bn_rows"], 1))),
            ("area/sper totals = closed forms",
             all(recur.table_stat_total(a, m, "p") == recur.total_area(m)
                 and recur.table_stat_total(a, m, "q") == recur.total_sper(m)
                 for m in range(1, a.n + 1))),
            ("lda totals = closed forms",
             all(recur.table_stat_total(b, m, "p") == recur.total_levels(m)
                 and recur.table_stat_total(b, m, "q") == recur.total_descents(m)
                 and recur.table_stat_total(b, m, "r") == recur.total_ascents(m)
                 for m in range(1, b.n + 1))),
            ("csv round trip", out["csv_parsed"] == out["csv_table"]),
        ]

    def corrupt(self, out: dict) -> dict:
        table = out["a_three"]
        return {**out, "a_three": table.with_cell(5, 3, table[5, 3] + 1)}


class BruteOracle:
    """Brute-force tables and totals by enumeration, and a seeded bijection sweep."""

    sizes = {"n": 10, "map_n": 12, "map_samples": 3000}

    def __init__(self, scratch: Path):
        self._reference: dict | None = None

    def make_inputs(self, seed: int) -> list[tuple[int, ...]]:
        rng = random.Random(seed)
        length = self.sizes["map_n"]
        return [tuple(rng.randint(1, i) for i in range(1, length + 1))
                for _ in range(self.sizes["map_samples"])]

    def run(self, sample: list[tuple[int, ...]]) -> dict:
        n = self.sizes["n"]
        return {
            "a_brute": invseq.brute_dist_area_sper(n),
            "b_brute": invseq.brute_dist_lda(n),
            "totals": invseq.brute_stat_totals(n),
            "maps": [_map_images(invseq.validate(raw)) for raw in sample],
        }

    def check(self, out: dict) -> Checks:
        ref = self._references()
        checks = [
            ("area/sper brute = lemma", out["a_brute"] == ref["a_lemma"]),
            ("lda brute = lemma", out["b_brute"] == ref["b_lemma"]),
            ("totals = closed forms", out["totals"] == ref["totals"]),
        ]
        if "backends agree" in ref:
            checks.append(("compiled kernel = pure kernel", ref["backends agree"]))
        for k, images in enumerate(out["maps"]):
            checks += [(f"sample {k} {name}", ok) for name, ok in _map_checks(images)]
        return checks

    def corrupt(self, out: dict) -> dict:
        """Replace the first nonzero-ascent g image by the descending permutation."""
        maps = list(out["maps"])
        k = next(k for k, m in enumerate(maps) if m["stats"].ascents)
        length = len(maps[k]["rho"])
        maps[k] = {**maps[k], "g": Permutation(range(length, 0, -1))}
        return {**out, "maps": maps}

    def _references(self) -> dict:
        """Expected tables and totals, computed once, outside the timed region."""
        if self._reference is None:
            n = self.sizes["n"]
            ref = {
                "a_lemma": recur.a_table_lemma(n),
                "b_lemma": recur.b_table_lemma(n),
                "totals": {"area": recur.total_area(n), "sper": recur.total_sper(n),
                           "levels": recur.total_levels(n),
                           "descents": recur.total_descents(n),
                           "ascents": recur.total_ascents(n)},
            }
            if kernel.BACKEND != "python":
                ref["backends agree"] = (
                    kernel.area_sper_counts(n) == _kernel_py.area_sper_counts(n)
                    and kernel.lda_counts(n) == _kernel_py.lda_counts(n))
            self._reference = ref
        return self._reference


def _map_images(rho: InversionSequence) -> dict:
    """Every map of `bijections` applied to rho, with its inverse or second application."""
    cycles = bijections.f_levels_to_cycles(rho)
    perm = bijections.g_ascents(rho)
    images = {
        "rho": rho, "stats": invseq.stats(rho),
        "f": cycles, "f_back": bijections.f_inverse(cycles),
        "g": perm, "g_back": bijections.g_inverse(perm),
    }
    for name in ("complement", "area_flip", "sper_involution", "levels_involution"):
        image = getattr(bijections, name)(rho)
        images[name] = image
        if image is not None:
            images[name + "_back"] = getattr(bijections, name)(image)
            images[name + "_stats"] = invseq.stats(image)
    return images


def _map_checks(m: dict) -> Checks:
    """Round trips and statistic transport, with permutation statistics counted here."""
    rho, st = m["rho"], m["stats"]
    entries = rho.entries
    word = m["g"].oneline
    out = [
        ("f round trip, cycles = levels + 1",
         m["f_back"] == rho and len(m["f"].cycles) == st.levels + 1),
        ("g round trip, ascents kept",
         m["g_back"] == rho and sum(a < b for a, b in zip(word, word[1:])) == st.ascents),
        ("complement involution, ascents = levels + descents",
         m["complement_back"] == rho
         and m["complement_stats"].ascents == st.levels + st.descents),
        ("area flip involution, area moves by 1",
         m["area_flip_back"] == rho and abs(m["area_flip_stats"].area - st.area) == 1),
    ]
    if m["sper_involution"] is None:
        n = len(entries)
        out.append(("sper involution undefined only off its domain",
                    all(v in (i - 1, i) for i, v in enumerate(entries, 1))
                    and entries[-1] in (n - 1, n)))
    else:
        out.append(("sper involution, sper moves by 1",
                    m["sper_involution_back"] == rho and m["sper_involution"] != rho
                    and abs(m["sper_involution_stats"].sper - st.sper) == 1))
    if m["levels_involution"] is None:
        out.append(("levels involution undefined only on binary sequences",
                    max(entries) <= 2))
    else:
        mate = m["levels_involution"]
        out.append(("levels involution flips levels parity",
                    m["levels_involution_back"] == rho and mate != rho
                    and (m["levels_involution_stats"].levels - st.levels) % 2 == 1
                    and mate.entries[-1] == entries[-1]))
    return out


WORKLOADS = {"verify-deep": VerifyDeep, "tables-deep": TablesDeep, "brute-oracle": BruteOracle}
