"""Log-normal tail modeling of elite performance lists.

Fit a truncated-normal tail plus population size to each event's all-time
list by MCMC, share a population prior across events empirically, and turn
the posteriors into forecasts: exceedance rates, record probabilities,
expected bests, scoring tables, and backtests against held-out years.
"""
from .backtest import (
    BacktestCell,
    BacktestReport,
    BacktestSpec,
    DataMode,
    run_backtest,
)
from .distcore import std_normal_cdf
from .emprior import (
    HyperPrior,
    InsufficientEvents,
    TwoPassResult,
    expected_population,
    robust_hyperprior,
    two_pass_fit,
)
from .errors import TailcastError
from .fitfile import FitFileError, load_fit, save_fit
from .ingest import (
    DateWindow,
    Direction,
    EventSpec,
    PerformanceList,
    RawMark,
    Unit,
    build_performance_list,
    decode_mark,
    encode_mark,
    load_performance_list,
    write_list_file,
)
from .sampler import (
    FitFailed,
    FitResult,
    PosteriorChain,
    SamplerConfig,
    fit_event,
    gelman_rubin_mpsrf,
)
from .stats import (
    AnchorNotFound,
    ScoreTable,
    UndefinedCorrelation,
    anchor_mark,
    build_score_table,
    expected_best,
    expected_exceedances,
    improvement,
    mark_for_points,
    pearson,
    record_probability,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorNotFound",
    "BacktestCell",
    "BacktestReport",
    "BacktestSpec",
    "DataMode",
    "DateWindow",
    "Direction",
    "EventSpec",
    "FitFailed",
    "FitFileError",
    "FitResult",
    "HyperPrior",
    "InsufficientEvents",
    "PerformanceList",
    "PosteriorChain",
    "RawMark",
    "SamplerConfig",
    "ScoreTable",
    "TailcastError",
    "TwoPassResult",
    "Unit",
    "UndefinedCorrelation",
    "anchor_mark",
    "build_performance_list",
    "build_score_table",
    "decode_mark",
    "encode_mark",
    "expected_best",
    "expected_exceedances",
    "expected_population",
    "fit_event",
    "gelman_rubin_mpsrf",
    "improvement",
    "load_fit",
    "load_performance_list",
    "mark_for_points",
    "pearson",
    "record_probability",
    "robust_hyperprior",
    "run_backtest",
    "save_fit",
    "score",
    "std_normal_cdf",
    "two_pass_fit",
    "write_list_file",
]
