"""Analysis toolkit: statistics, scaling-law fits, theory constants, tables.

Everything the benchmark harness needs to turn raw trial outcomes into the
paper-style comparisons recorded in EXPERIMENTS.md.
"""

from repro.analysis.dynamics import (
    dominance_steps,
    fit_xi,
    predicted_winner,
    simple_mean_field,
)
from repro.analysis.scaling import ModelFit, fit_models, klogn_model, linear_model, log_model
from repro.analysis.stats import (
    bootstrap_mean_interval,
    summarize,
    wilson_interval,
)
from repro.analysis.tables import Table
from repro.analysis.viz import final_share_chart, population_chart, share_bar, sparkline
from repro.analysis.theory import (
    LEMMA_2_1_SUCCESS_LOWER_BOUND,
    LEMMA_4_2_DROPOUT_LOWER_BOUND,
    lemma_5_4_initial_gap,
    lower_bound_rounds,
    optimal_k_bound,
    simple_k_bound,
)

__all__ = [
    "LEMMA_2_1_SUCCESS_LOWER_BOUND",
    "LEMMA_4_2_DROPOUT_LOWER_BOUND",
    "ModelFit",
    "Table",
    "bootstrap_mean_interval",
    "dominance_steps",
    "final_share_chart",
    "fit_models",
    "fit_xi",
    "klogn_model",
    "lemma_5_4_initial_gap",
    "linear_model",
    "log_model",
    "lower_bound_rounds",
    "optimal_k_bound",
    "population_chart",
    "predicted_winner",
    "share_bar",
    "simple_k_bound",
    "simple_mean_field",
    "sparkline",
    "summarize",
    "wilson_interval",
]
