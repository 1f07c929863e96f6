"""Disjoint-union (subset) convolution on the Hamming cube, sharp
Hoelder-exponent tuple counting, and numerical inequality verification."""

from .core import (
    INT,
    REAL,
    CubeFunction,
    SetFamily,
    exponent,
)
from .counting import CountReport, bound_report, count_disjoint_tuples, extremal_family
from .transform import corner_convolution, moebius, subset_convolve, zeta
from .verifier import (
    TrialConfig,
    check_lemma_mine,
    check_main_inequality,
    check_p_monotonicity,
    check_two_point,
    equality_witness,
    run_trials,
)

__all__ = [
    "INT",
    "REAL",
    "CubeFunction",
    "SetFamily",
    "CountReport",
    "TrialConfig",
    "bound_report",
    "check_lemma_mine",
    "check_main_inequality",
    "check_p_monotonicity",
    "check_two_point",
    "corner_convolution",
    "count_disjoint_tuples",
    "equality_witness",
    "exponent",
    "extremal_family",
    "moebius",
    "run_trials",
    "subset_convolve",
    "zeta",
]

__version__ = "0.1.0"
