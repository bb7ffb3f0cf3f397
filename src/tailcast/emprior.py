"""Two-pass empirical-Bayes construction of the population-size prior.

Pass 1 takes every event's posterior mean of log N under the weak prior
(distcore.HyperPrior.weakly_informative(): log N ~ Normal(log 1e4, 2^2)) by
quadrature on a fixed grid; nothing is sampled. The pass-1 means of all
events then define a shared log-normal prior, a HyperPrior of EMPIRICAL
provenance (robust location from their median, robust scale from the
tightest 75% subset), under which pass 2 samples every event in one
sampler.fit_events call. Each list's grid is scored once
(distcore.grid_columns): pass 2 shapes each event's proposal by reweighting
that grid's log N columns to the empirical prior.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distcore import HyperPrior, Provenance, grid_posterior
from .errors import TailcastError
from .sampler import FitResult, SamplerConfig, fit_events
# Not called here: perfbench/tracing.py wraps fit_event under this name.
from .sampler import fit_event  # noqa: F401

VARIANCE_FLOOR = 1e-4
SUBSET_FRACTION = 0.75
# A cut edge of the pass-1 grid (distcore.grid_posterior) may hold at most
# EDGE_MASS of the posterior mass.
EDGE_MASS = 1e-3


class InsufficientEvents(TailcastError):
    """The empirical prior needs at least four usable events."""


class GridEdgeMass(TailcastError):
    """A posterior puts more than EDGE_MASS of its mass on a cut edge of the
    pass-1 grid, so the grid cannot give its mean."""


def min_subset_variance(values, subset_size: int) -> float:
    """Smallest sample variance among all subsets of the given size.

    A minimum-variance fixed-size subset of reals is contiguous in sorted
    order, so a sliding window over the sorted values finds it exactly.
    """
    v = np.sort(np.asarray(values, dtype=float))
    m = len(v)
    if not 2 <= subset_size <= m:
        raise ValueError(f"subset_size must be in [2, {m}], got {subset_size}")
    return float(sliding_window_view(v, subset_size).var(axis=1, ddof=1).min())


def robust_hyperprior(point_estimates) -> HyperPrior:
    """Empirical prior from a mapping event_id -> posterior mean of log N.

    Location is the median of the means; scale is the minimum variance over
    the tightest ~75% contiguous subset, floored so the prior stays proper.
    """
    usable = []
    for event_id, value in sorted(point_estimates.items()):
        if math.isfinite(value):
            usable.append((event_id, value))
        else:
            warnings.warn(f"{event_id}: discarding unusable population estimate {value!r}")
    if len(usable) < 4:
        raise InsufficientEvents(
            f"empirical prior needs >= 4 events with usable estimates, have {len(usable)}"
        )
    means = np.array([v for _, v in usable])
    subset = math.ceil(SUBSET_FRACTION * len(means))
    sigma2 = max(min_subset_variance(means, subset), VARIANCE_FLOOR)
    return HyperPrior(
        mu_N=float(np.median(means)),
        sigma2_N=sigma2,
        provenance=Provenance.EMPIRICAL,
        contributing_events=tuple(e for e, _ in usable),
    )


def expected_population(fit: FitResult) -> float:
    """Posterior mean of N on the natural scale, over the pooled draws."""
    with np.errstate(over="ignore"):
        return float(np.mean(np.exp(fit.pooled_logN)))


def pass1_estimate(data) -> float:
    """Posterior mean of log N for one list under the weak prior, from its
    grid posterior (distcore.grid_posterior).

    Raises GridEdgeMass when a cut edge of the grid (the first or last
    u-row, or the last log N column) holds more than EDGE_MASS of the mass.
    """
    mean, _, edge_mass = grid_posterior(data, HyperPrior.weakly_informative())
    for edge, share in edge_mass.items():
        if share > EDGE_MASS:
            raise GridEdgeMass(f"{data.event.event_id}: {share:.3g} of the pass-1 "
                               f"posterior mass lies on the grid edge {edge}")
    return mean[1]


@dataclass(frozen=True)
class TwoPassResult:
    prior: HyperPrior
    fits: dict[str, FitResult]
    pass1_estimates: dict[str, float]
    failures: dict[str, str]


def two_pass_fit(lists, config: SamplerConfig) -> TwoPassResult:
    """Pass 1: each list's grid E[log N] under the weak prior. Pass 2: sample
    every list under the prior those means define.

    Each fit's span is its list's, PerformanceList.t_m. Pass 1 samples
    nothing, so the prior does not depend on `config`. An event whose pass-1
    grid fails its edge check is left out of the prior, noted in `failures`,
    and still fitted in pass 2. Pass 2 (sampler.fit_events) refuses two
    lists with one event id.
    """
    lists = list(lists)
    if len(lists) < 4:
        raise InsufficientEvents(f"two-pass fitting needs >= 4 events, have {len(lists)}")
    estimates: dict[str, float] = {}
    failures: dict[str, str] = {}
    for data in lists:
        try:
            estimates[data.event.event_id] = pass1_estimate(data)
        except GridEdgeMass as exc:
            failures[data.event.event_id] = str(exc)
    prior = robust_hyperprior(estimates)
    fits, failures2 = fit_events(lists, prior, config)
    for event_id, msg in failures2.items():
        failures[event_id] = f"{failures.get(event_id, '')}; pass 2: {msg}".lstrip("; ")
    return TwoPassResult(prior=prior, fits=fits, pass1_estimates=estimates, failures=failures)
