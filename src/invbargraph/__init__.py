"""Exact statistics on bargraphs of inversion sequences.

Distribution tables for the joint area/semi-perimeter and
levels/descents/ascents statistics, closed-form totals, sign-balance
involutions, bijections onto permutations, and truncated-series checks of
the generating-function identities.  All arithmetic is exact (integers and
rationals); there is no floating point anywhere.
"""

__version__ = "0.1.0"

from invbargraph.bijections import (
    CycleForm,
    area_flip,
    ascent_count,
    complement,
    cycle_count,
    f_inverse,
    f_levels_to_cycles,
    g_ascents,
    g_inverse,
    levels_involution,
    sper_involution,
)
from invbargraph.gfseries import RationalSeries
from invbargraph.invseq import (
    InversionSequence,
    Permutation,
    StatRecord,
    brute_dist_area_sper,
    brute_dist_lda,
    enumerate_sequences,
    from_permutation,
    stats,
    to_permutation,
    validate,
)
from invbargraph.kernel import BACKEND as KERNEL_BACKEND
from invbargraph.mpoly import MPoly
from invbargraph.recur import (
    DistTable,
    a_table_lemma,
    a_table_threeterm,
    b_table_lemma,
    b_table_threeterm,
    bn_poly_recurrence,
    eulerian,
    harmonic_integer,
    row_poly,
    stirling_first,
    total_area,
    total_ascents,
    total_descents,
    total_levels,
    total_sper,
)

__all__ = [
    "CycleForm",
    "DistTable",
    "InversionSequence",
    "KERNEL_BACKEND",
    "MPoly",
    "Permutation",
    "RationalSeries",
    "StatRecord",
    "a_table_lemma",
    "a_table_threeterm",
    "area_flip",
    "ascent_count",
    "b_table_lemma",
    "b_table_threeterm",
    "bn_poly_recurrence",
    "brute_dist_area_sper",
    "brute_dist_lda",
    "complement",
    "cycle_count",
    "enumerate_sequences",
    "eulerian",
    "f_inverse",
    "f_levels_to_cycles",
    "from_permutation",
    "g_ascents",
    "g_inverse",
    "harmonic_integer",
    "levels_involution",
    "row_poly",
    "sper_involution",
    "stats",
    "stirling_first",
    "to_permutation",
    "total_area",
    "total_ascents",
    "total_descents",
    "total_levels",
    "total_sper",
    "validate",
]
