"""Two-pass empirical-Bayes construction of the population-size prior.

Pass 1 fits every event under a deliberately near-flat prior; the
posterior-mean population sizes of all events then define a shared
log-normal prior (robust location from the median, robust scale from the
tightest 75% subset) under which pass 2 refits everything.
"""
from __future__ import annotations

import enum
import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import TailcastError
from .sampler import FitFailed, FitResult, SamplerConfig, fit_events
# Not called here: perfbench/tracing.py wraps fit_event under this name.
from .sampler import fit_event  # noqa: F401

WEAK_MU_N = math.log(10_000.0)
WEAK_SIGMA2_N = math.exp(20.0)
VARIANCE_FLOOR = 1e-4
SUBSET_FRACTION = 0.75


class InsufficientEvents(TailcastError):
    """The empirical prior needs at least four usable events."""


class Provenance(enum.Enum):
    WEAKLY_INFORMATIVE = "weak"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class HyperPrior:
    """Log-normal prior on population size: log N ~ Normal(mu_N, sigma2_N)."""

    mu_N: float
    sigma2_N: float
    provenance: Provenance
    contributing_events: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2_N) and self.sigma2_N > 0.0):
            raise ValueError("sigma2_N must be positive and finite")

    @property
    def provenance_name(self) -> str:
        return self.provenance.value

    @staticmethod
    def weakly_informative() -> "HyperPrior":
        return HyperPrior(WEAK_MU_N, WEAK_SIGMA2_N, Provenance.WEAKLY_INFORMATIVE)


def min_subset_variance(values, subset_size: int) -> float:
    """Smallest sample variance among all subsets of the given size.

    A minimum-variance fixed-size subset of reals is contiguous in sorted
    order, so a sliding window over the sorted values finds it exactly.
    """
    v = np.sort(np.asarray(values, dtype=float))
    m = len(v)
    if not 2 <= subset_size <= m:
        raise ValueError(f"subset_size must be in [2, {m}], got {subset_size}")
    best = math.inf
    for start in range(m - subset_size + 1):
        window = v[start:start + subset_size]
        best = min(best, float(np.var(window, ddof=1)))
    return best


def robust_hyperprior(point_estimates) -> HyperPrior:
    """Empirical prior from a mapping event_id -> posterior-mean population E[N].

    Location is the median of the logs; scale is the minimum variance over
    the tightest ~75% contiguous subset, floored so the prior stays proper.
    """
    usable = []
    for event_id, value in sorted(point_estimates.items()):
        if math.isfinite(value) and value > 0.0:
            usable.append((event_id, value))
        else:
            warnings.warn(f"{event_id}: discarding unusable population estimate {value!r}")
    if len(usable) < 4:
        raise InsufficientEvents(
            f"empirical prior needs >= 4 events with usable estimates, have {len(usable)}"
        )
    logs = np.log([v for _, v in usable])
    subset = math.ceil(SUBSET_FRACTION * len(logs))
    sigma2 = max(min_subset_variance(logs, subset), VARIANCE_FLOOR)
    return HyperPrior(
        mu_N=float(np.median(logs)),
        sigma2_N=sigma2,
        provenance=Provenance.EMPIRICAL,
        contributing_events=tuple(e for e, _ in usable),
    )


def expected_population(fit: FitResult) -> float:
    """Posterior mean of N on the natural scale, over the pooled draws."""
    with np.errstate(over="ignore"):
        return float(np.mean(np.exp(fit.pooled_logN)))


def event_seed(base_seed: int, event_id: str) -> int:
    """Stable per-event seed, independent of event ordering."""
    return (base_seed ^ zlib.crc32(event_id.encode("utf-8"))) & 0x7FFFFFFF


@dataclass(frozen=True)
class TwoPassResult:
    prior: HyperPrior
    fits: dict[str, FitResult]
    pass1_fits: dict[str, FitResult]
    pass1_estimates: dict[str, float]
    failures: dict[str, str]


def fit_corpus(lists, prior: HyperPrior, config: SamplerConfig, t_m: float | None = None):
    """Fit every list under one prior, each event with its own event_seed.

    `t_m` is as for two_pass_fit. All events are sampled together (see
    sampler.fit_events), and each fit is the one fit_event would give with
    that seed. Returns (fits, failures): event_id -> FitResult, and
    event_id -> the message of the FitFailed that ended that event. Two
    lists with one event id are refused.
    """
    lists = list(lists)
    ids = [data.event.event_id for data in lists]
    for i, event_id in enumerate(ids):
        if event_id in ids[:i]:
            raise ValueError(f"two lists have event id {event_id!r}")
    events = [(data, prior, event_seed(config.seed, event_id), t_m)
              for data, event_id in zip(lists, ids)]
    fits: dict[str, FitResult] = {}
    failures: dict[str, str] = {}
    for event_id, result in zip(ids, fit_events(events, config)):
        if isinstance(result, FitFailed):
            failures[event_id] = str(result)
        else:
            fits[event_id] = result
    return fits, failures


def two_pass_fit(lists, config: SamplerConfig, t_m: float | None = None) -> TwoPassResult:
    """Fit every list twice: weak prior, then the prior learned from pass 1.

    `t_m` is one span in years for every event, or None to derive it per
    event from its data. Both passes are fit_corpus runs with the same
    SamplerConfig, so each event keeps its seed across them.
    """
    lists = list(lists)
    if len(lists) < 4:
        raise InsufficientEvents(f"two-pass fitting needs >= 4 events, have {len(lists)}")
    weak = HyperPrior.weakly_informative()
    pass1_fits, failures1 = fit_corpus(lists, weak, config, t_m)
    estimates = {event_id: expected_population(fit) for event_id, fit in pass1_fits.items()}
    prior = robust_hyperprior(estimates)
    pass2_fits, failures2 = fit_corpus(lists, prior, config, t_m)
    failures = dict(failures1)
    for event_id, msg in failures2.items():
        failures[event_id] = f"{failures.get(event_id, '')}; pass 2: {msg}".lstrip("; ")
    return TwoPassResult(
        prior=prior,
        fits=pass2_fits,
        pass1_fits=pass1_fits,
        pass1_estimates=estimates,
        failures=failures,
    )
