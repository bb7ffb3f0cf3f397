"""Shared builders for the test suite.

Most statistics tests need a FitResult whose posterior is under full
control (often a point mass), without paying for an MCMC run. The
builders here assemble structurally complete FitResults from arrays.
"""
from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtri

from tailcast import sampler
from tailcast.distcore import tail_mass_sigma
from tailcast.emprior import HyperPrior
from tailcast.ingest import EventSpec, PerformanceList
from tailcast.sampler import ChainSummary, FitMetadata, FitResult, SamplerConfig
from tailcast.synth import sample_tail, tail_performance_list


def running_event(event_id: str = "ev100m") -> EventSpec:
    return EventSpec.running(event_id)


def field_event(event_id: str = "evLJ") -> EventSpec:
    return EventSpec.field(event_id)


def make_fit(
    mu,
    logN=None,
    *,
    sigma=None,
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
    """FitResult whose pooled draws are the given arrays, fitted by two chains.

    Pass either logN or sigma; the other follows from the tail-mass identity
    sigma = (w_k - mu) / Phi^-1(n_k/N), as the fit's own pooled sigma does.
    The default config pools every draw of two chains of 1000 draws.
    """
    assert (logN is None) != (sigma is None), "pass exactly one of logN and sigma"
    mu = np.asarray(mu, dtype=float)
    if logN is None:
        # n_k/N = Phi((w_k - mu) / sigma)
        logN = math.log(n_k) - log_ndtr((w_k - mu) / np.asarray(sigma, dtype=float))
    logN = np.asarray(logN, dtype=float)
    assert mu.shape == logN.shape and mu.ndim == 1 and len(mu) >= 1
    event = event if event is not None else running_event()
    config = config if config is not None else SamplerConfig(chains=2, batches=1000, seed=0,
                                                             pool_size=len(mu))
    prior = prior if prior is not None else HyperPrior.weakly_informative()
    chains = tuple(ChainSummary(chain_id=i, accept_rate=0.3, step_scale=0.05)
                   for i in range(2))

    if best_x is None:
        best_x = w_k - 6.0 * float(np.mean(tail_mass_sigma(mu, logN, n_k, w_k)))
    meta = FitMetadata(
        event=event,
        t_m=t_m,
        n_k=n_k,
        w_k=w_k,
        best_x=best_x,
        record_x=best_x if record_x is None else record_x,
        prior=prior,
        config=config,
        chains=chains,
        notes=notes,
    )
    return FitResult(mu, logN, mpsrf, meta)


def point_mass_fit(
    mu: float,
    sigma: float,
    logN: float,
    *,
    n_draws: int = 1000,
    n_k: int = 100,
    **kwargs,
) -> FitResult:
    """FitResult whose every pooled draw is the same (mu, logN), on the model:
    the worst listed mark w_k = mu + sigma * Phi^-1(n_k/N) is derived, so the
    identity gives back sigma (to rounding)."""
    share = n_k * math.exp(-logN)
    assert 0.0 < share < 0.5, f"n_k/N = {share} is off the model"
    return make_fit(
        np.full(n_draws, mu),
        np.full(n_draws, logN),
        n_k=n_k,
        w_k=mu + sigma * float(ndtri(share)),
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


def fail_every_init(monkeypatch, *event_ids: str) -> None:
    """Make every chain of the named events find no initialization: a
    chain's stream, chain_rng(seed, event id, chain id), names its event."""
    crcs = {zlib.crc32(event_id.encode("utf-8")) for event_id in event_ids}
    draw_init = sampler._draw_init

    def failing(target, mean, factor, rng):
        _, crc, _ = rng.bit_generator.seed_seq.entropy
        return None if crc in crcs else draw_init(target, mean, factor, rng)

    monkeypatch.setattr(sampler, "_draw_init", failing)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
