"""Shared builders for the test suite.

Most statistics tests need a FitResult whose posterior is under full
control (often a point mass), without paying for an MCMC run. The
builders here assemble structurally complete FitResults from arrays.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from tailcast.emprior import HyperPrior
from tailcast.ingest import EventSpec, PerformanceList
from tailcast.sampler import FitMetadata, FitResult, PosteriorChain, SamplerConfig
from tailcast.synth import sample_tail, tail_performance_list


def running_event(event_id: str = "ev100m") -> EventSpec:
    return EventSpec.running(event_id)


def field_event(event_id: str = "evLJ") -> EventSpec:
    return EventSpec.field(event_id)


def make_fit(
    mu,
    logN,
    sigma,
    *,
    event: EventSpec | None = None,
    t_m: float = 1.0,
    n_k: int = 100,
    w_k: float = 0.0,
    best_x: float | None = None,
    record_x: float | None = None,
    mpsrf: float = 1.0,
    config: SamplerConfig | None = None,
    prior: HyperPrior | None = None,
    notes: tuple[str, ...] = (),
) -> FitResult:
    """FitResult from explicit draw arrays, split into two equal chains.

    The default config pools every draw, so the pooled draws are the arrays.
    """
    mu = np.asarray(mu, dtype=float)
    logN = np.asarray(logN, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    assert mu.shape == logN.shape == sigma.shape and mu.ndim == 1
    assert len(mu) >= 2 and len(mu) % 2 == 0
    event = event if event is not None else running_event()
    best_x = (w_k - 6.0 * float(np.mean(sigma))) if best_x is None else best_x
    config = config if config is not None else SamplerConfig(chains=2, seed=0,
                                                             pool_size=len(mu))
    prior = prior if prior is not None else HyperPrior.weakly_informative()
    half = len(mu) // 2
    chains = tuple(
        PosteriorChain(
            chain_id=i,
            mu=mu[i * half:(i + 1) * half].copy(),
            logN=logN[i * half:(i + 1) * half].copy(),
            accept_rate=0.3,
            step_scale=0.05,
            sigma=sigma[i * half:(i + 1) * half].copy(),
        )
        for i in range(2)
    )
    meta = FitMetadata(
        event=event,
        t_m=t_m,
        n_k=n_k,
        w_k=w_k,
        best_x=best_x,
        record_x=best_x if record_x is None else record_x,
        prior=prior,
        config=config,
        notes=notes,
    )
    return FitResult(chains, mpsrf, meta)


def point_mass_fit(
    mu: float,
    sigma: float,
    logN: float,
    *,
    n_draws: int = 1000,
    **kwargs,
) -> FitResult:
    """FitResult whose every pooled draw is the same (mu, logN, sigma)."""
    return make_fit(
        np.full(n_draws, mu),
        np.full(n_draws, logN),
        np.full(n_draws, sigma),
        **kwargs,
    )


def lane_events() -> list[PerformanceList]:
    """Synthetic events of 400, 25 and 120 marks for the lane-sampler tests."""
    lists = []
    for seed, keep in ((55, 400), (61, 25), (62, 120)):
        tail = sample_tail(seed, math.log(11.28), 0.033, 20_000, keep)
        lists.append(tail_performance_list(EventSpec.running(f"lane{seed}"), tail,
                                           2001, 2020, seed=seed + 1))
    return lists


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
