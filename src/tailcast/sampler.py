"""Adaptive random-walk Metropolis-Hastings over (mu, log N).

Protocol: each chain draws a random initialization, runs 1000-step
burn-ins that double or halve the proposal scale until the acceptance
rate lands in [0.2, 0.4], then samples in batches, retaining the final
state of each batch. Convergence across chains is assessed with the
multivariate potential scale reduction factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .distcore import make_lane_log_posterior, make_log_posterior, tail_mass_sigma
from .errors import TailcastError

if TYPE_CHECKING:
    from .emprior import HyperPrior
    from .ingest import EventSpec


class TuningFailed(TailcastError):
    """Burn-in retuning exhausted max_retunes without reaching the
    acceptance band."""

    def __init__(self, message: str, last_rate: float):
        super().__init__(message)
        self.last_rate = last_rate


class FitFailed(TailcastError):
    """Too many chains failed for this event's fit to be usable."""


@dataclass(frozen=True)
class SamplerConfig:
    burn_in_steps: int = 1000
    accept_lo: float = 0.2
    accept_hi: float = 0.4
    batches: int = 1000
    batch_len: int = 50
    chains: int = 10
    step_scale: float = 0.001
    max_retunes: int = 25
    seed: int = 0
    pool_size: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.accept_lo < self.accept_hi < 1.0:
            raise ValueError("need 0 < accept_lo < accept_hi < 1")
        for name in ("burn_in_steps", "batches", "batch_len", "chains", "pool_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        # A zero or non-finite scale never moves a chain, however often it is retuned.
        if not (math.isfinite(self.step_scale) and self.step_scale > 0.0):
            raise ValueError(f"step_scale must be positive and finite, got {self.step_scale}")
        if self.max_retunes < 0:
            raise ValueError("max_retunes must be nonnegative")


@dataclass(frozen=True)
class TunedState:
    step_scale: float
    state: tuple[float, float]
    accept_rate: float


@dataclass(frozen=True)
class PosteriorChain:
    chain_id: int
    mu: np.ndarray
    logN: np.ndarray
    accept_rate: float
    step_scale: float
    sigma: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.mu)

    def draws(self) -> np.ndarray:
        """(n, 2) array of retained (mu, log N) states."""
        return np.column_stack((self.mu, self.logN))


@dataclass(frozen=True)
class FitMetadata:
    event: "EventSpec"
    t_m: float
    n_k: int
    w_k: float
    c_k: float
    best_x: float
    prior: "HyperPrior"
    config: SamplerConfig
    failed_chains: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def event_id(self) -> str:
        return self.event.event_id


@dataclass(frozen=True)
class FitResult:
    event_id: str
    chains: tuple[PosteriorChain, ...]
    pooled_mu: np.ndarray
    pooled_logN: np.ndarray
    pooled_sigma: np.ndarray
    mpsrf: float
    converged: bool
    meta: FitMetadata

    @property
    def pooled_size(self) -> int:
        return len(self.pooled_mu)


def _run_steps(target, state, lp, n_steps, scales, rng):
    """Advance one chain n_steps; returns (state, lp, accepted_count).

    The draws leave numpy once per block via .tolist(), so the state and
    every target call stay on Python floats: numpy-scalar arithmetic makes
    the target about 1.5x slower. Scaling each increment in the loop is
    the same IEEE product as a numpy column multiply, so the chain matches
    the numpy-indexing reference loop in tests/test_sampler.py bit for bit.
    """
    incs = rng.standard_normal((n_steps, 2)).tolist()
    # np.log, not math.log: the two can differ in the last ulp.
    log_us = np.log(rng.random(n_steps)).tolist()
    s_mu, s_y = scales
    mu, y = state
    accepted = 0
    for (d_mu, d_y), log_u in zip(incs, log_us):
        cand = (mu + d_mu * s_mu, y + d_y * s_y)
        lp_new = target(cand)
        if log_u < lp_new - lp:
            mu, y = cand
            lp = lp_new
            accepted += 1
    return (mu, y), lp, accepted


def tune_burn_in(target, config: SamplerConfig, init, rng=None) -> TunedState:
    """Burn in, retuning the proposal scale geometrically until the
    acceptance rate falls inside [accept_lo, accept_hi].

    A rejected round is re-done from the same initialization with the
    adjusted scale, so every acceptance measurement refers to the same
    region. Continuing from wherever a badly scaled chain drifted would
    let the measurement chase the chain instead of fixing the scale.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    start = tuple(init)
    lp0 = target(start)
    if not math.isfinite(lp0):
        raise ValueError("burn-in requires an initialization with finite log-posterior")
    scale = config.step_scale
    rate = math.nan
    for _ in range(config.max_retunes + 1):
        state, _, accepted = _run_steps(target, start, lp0, config.burn_in_steps,
                                        (scale, scale), rng)
        rate = accepted / config.burn_in_steps
        if config.accept_lo <= rate <= config.accept_hi:
            return TunedState(step_scale=scale, state=state, accept_rate=rate)
        scale = scale * 2.0 if rate > config.accept_hi else scale * 0.5
    raise TuningFailed(
        f"no acceptance rate in [{config.accept_lo}, {config.accept_hi}] after "
        f"{config.max_retunes} retunes (last rate {rate:.3f})",
        last_rate=rate,
    )


def run_chain(target, config: SamplerConfig, tuned: TunedState, rng=None,
              chain_id: int = 0) -> PosteriorChain:
    """Sample batches x batch_len steps, retaining each batch's final state."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    scales = (tuned.step_scale, tuned.step_scale)
    state = tuned.state
    lp = target(state)
    mu_draws = np.empty(config.batches)
    y_draws = np.empty(config.batches)
    accepted = 0
    for b in range(config.batches):
        state, lp, acc = _run_steps(target, state, lp, config.batch_len, scales, rng)
        accepted += acc
        mu_draws[b] = state[0]
        y_draws[b] = state[1]
    rate = accepted / (config.batches * config.batch_len)
    return PosteriorChain(chain_id=chain_id, mu=mu_draws, logN=y_draws,
                          accept_rate=rate, step_scale=tuned.step_scale)


def sample_lanes(target, config: SamplerConfig, tuned, rngs):
    """run_chain for many chains at once, stepped together as numpy lanes.

    Lane i starts from tuned[i] and draws from rngs[i]; `target` is a lane
    target (distcore.make_lane_log_posterior) whose lane i is that chain's
    posterior. Each lane draws its batch of increments and uniforms from its
    own generator in run_chain's order, and a chain's states depend only on
    those draws and its accept decisions. So lane i reproduces run_chain's
    chain bit for bit, unless the two targets' round-off splits a
    near-exact tie. Returns (mu, logN, accepted): (lanes, batches) arrays
    of retained states and each lane's accepted-step count.
    """
    lanes, n = len(tuned), config.batch_len
    scales = np.array([t.step_scale for t in tuned])
    state = np.empty((3, lanes))  # mu, log N and lp of every lane
    state[:2] = np.array([t.state for t in tuned], dtype=float).T
    cand = np.empty((3, lanes))
    incs = np.empty((lanes, n, 2))
    us = np.empty((lanes, n))
    mu_draws = np.empty((lanes, config.batches))
    y_draws = np.empty((lanes, config.batches))
    accepted = np.zeros(lanes, dtype=np.int64)
    with np.errstate(all="ignore"):
        state[2] = target(state[0], state[1])
        for b in range(config.batches):
            for inc, u, rng in zip(incs, us, rngs):
                rng.standard_normal(out=inc)
                rng.random(out=u)
            steps = incs.transpose(1, 2, 0) * scales
            # np.log over one contiguous block, as in _run_steps: a strided or
            # scalar log can differ in the last ulp.
            log_us = np.log(us).T
            for step, log_u in zip(steps, log_us):
                np.add(state[:2], step, out=cand[:2])
                cand[2] = target(cand[0], cand[1])
                accept = log_u < cand[2] - state[2]
                np.copyto(state, cand, where=accept)
                accepted += accept
            mu_draws[:, b] = state[0]
            y_draws[:, b] = state[1]
    return mu_draws, y_draws, accepted


def gelman_rubin_mpsrf(chains) -> float:
    """Multivariate potential scale reduction factor over (mu, log N).

    Accepts PosteriorChain objects or (n, 2) arrays. Returns inf when the
    pooled within-chain covariance is singular (nothing moved).
    """
    arrays = [c.draws() if hasattr(c, "draws") else np.asarray(c, dtype=float) for c in chains]
    if len(arrays) < 2:
        raise ValueError("need at least 2 chains")
    n = len(arrays[0])
    if n < 10 or any(len(a) != n for a in arrays):
        raise ValueError("chains must have equal length >= 10")
    m = len(arrays)
    means = np.array([a.mean(axis=0) for a in arrays])
    within = np.zeros((2, 2))
    for a in arrays:
        within += np.cov(a, rowvar=False, ddof=1)
    within /= m
    between_over_n = np.cov(means, rowvar=False, ddof=1)
    try:
        lam = np.linalg.eigvals(np.linalg.solve(within, between_over_n))
    except np.linalg.LinAlgError:
        return math.inf
    lam_max = float(np.max(lam.real))
    if not math.isfinite(lam_max):
        return math.inf
    psrf2 = (n - 1) / n + (m + 1) / m * max(lam_max, 0.0)
    return math.sqrt(psrf2)


def _draw_init(target, data, prior, rng, max_tries=500):
    """Random initialization with finite target log-posterior, or None.

    mu starts near the list median; log N near the prior location with its
    spread clamped to something searchable (the weakly-informative prior is
    deliberately near-flat, so literal prior draws would be useless).
    """
    marks = np.asarray(data.marks)
    center = float(np.median(marks))
    spread = max(2.0 * (data.w_k - data.best), 0.02)
    loc = prior.mu_N
    sc = min(math.sqrt(prior.sigma2_N), 1.5)
    floor_y = math.log(2.0 * data.n_k)
    for _ in range(max_tries):
        mu = center + spread * rng.standard_normal()
        y = loc + sc * rng.standard_normal()
        if y <= floor_y:
            continue
        theta = (mu, y)
        if math.isfinite(target(theta)):
            return theta
    return None


def fit_event(data, prior, config: SamplerConfig, t_m: float | None = None) -> FitResult:
    """Full fit of one event: chains, tuning, sampling, diagnostics, pooling.

    The one-event case of fit_events, seeded with config.seed. t_m defaults
    to the ingestion window span when the window is bounded, else to the
    record-date span of the list (floored at one year).
    """
    (result,) = fit_events([(data, prior, config.seed, t_m)], config)
    if isinstance(result, FitFailed):
        raise result
    return result


@dataclass(frozen=True)
class _TunedEvent:
    """One event after burn-in: its tuned chains, ready for the lane loop."""

    data: object
    prior: "HyperPrior"
    config: SamplerConfig
    t_m: float
    tuned: tuple[tuple[int, TunedState, np.random.Generator], ...]
    failed: tuple[int, ...]
    notes: tuple[str, ...]


def fit_events(events, config: SamplerConfig) -> list:
    """Fit several events, sampling all their chains in one lane loop.

    `events` holds one (data, prior, seed, t_m) per event; t_m None is
    derived as in fit_event. Each event's chains are initialized and burned
    in one after another, chain c on its own default_rng(seed ^ c). Every
    tuned chain of every event that can still succeed then becomes one lane
    of sample_lanes. So an event's fit depends on its own data, prior, seed
    and t_m, never on the events fitted with it. Returns each event's
    FitResult, or the FitFailed that ended it, in order.
    """
    if config.chains < 2:
        raise ValueError("fitting needs at least 2 chains for the convergence diagnostic")
    results: list = []
    for data, prior, seed, t_m in events:
        try:
            results.append(_burn_in_event(data, prior, replace(config, seed=seed),
                                          _derive_t_m(data) if t_m is None else t_m))
        except FitFailed as exc:
            results.append(exc)
    lanes = [(ev, tuned, rng) for ev in results if isinstance(ev, _TunedEvent)
             for _, tuned, rng in ev.tuned]
    if not lanes:
        return results
    target = make_lane_log_posterior([ev.data for ev, _, _ in lanes],
                                     [ev.prior for ev, _, _ in lanes])
    mu, y, accepted = sample_lanes(target, config, [t for _, t, _ in lanes],
                                   [rng for _, _, rng in lanes])
    first = 0
    for i, ev in enumerate(results):
        if isinstance(ev, _TunedEvent):
            lane = slice(first, first + len(ev.tuned))
            results[i] = _finish_event(ev, mu[lane], y[lane], accepted[lane])
            first = lane.stop
    return results


def _burn_in_event(data, prior, config: SamplerConfig, t_m: float) -> _TunedEvent:
    """Initialize and burn in every chain of one event, scalar and in order."""
    target = make_log_posterior(data, prior)
    tuned = []
    failed = []
    notes = []
    for chain_id in range(config.chains):
        rng = np.random.default_rng(config.seed ^ chain_id)
        init = _draw_init(target, data, prior, rng)
        if init is None:
            failed.append(chain_id)
            notes.append(f"chain {chain_id}: no finite-posterior initialization found")
            continue
        try:
            tuned.append((chain_id, tune_burn_in(target, config, init, rng), rng))
        except TuningFailed as exc:
            failed.append(chain_id)
            notes.append(f"chain {chain_id}: {exc}")
    if not tuned:
        raise FitFailed(f"{data.event.event_id}: all {config.chains} chains failed tuning")
    if len(failed) * 2 >= config.chains:
        raise FitFailed(
            f"{data.event.event_id}: {len(failed)} of {config.chains} chains failed"
        )
    return _TunedEvent(data, prior, config, t_m, tuple(tuned), tuple(failed), tuple(notes))


def _finish_event(ev: _TunedEvent, mu, y, accepted) -> FitResult:
    """Diagnostics and pooling over one event's sampled lanes."""
    data, config = ev.data, ev.config
    steps = config.batches * config.batch_len
    chains = [
        PosteriorChain(chain_id=chain_id, mu=m, logN=lg,
                       accept_rate=int(acc) / steps, step_scale=tuned.step_scale,
                       sigma=tail_mass_sigma(m, lg, data.n_k, data.w_k))
        for (chain_id, tuned, _), m, lg, acc in zip(ev.tuned, mu, y, accepted)
    ]
    mpsrf = gelman_rubin_mpsrf(chains)
    pooled_mu, pooled_y, pooled_sigma = _pool_draws(chains, config.pool_size)
    meta = FitMetadata(
        event=data.event,
        t_m=float(ev.t_m),
        n_k=data.n_k,
        w_k=data.w_k,
        c_k=data.c_k,
        best_x=data.best,
        prior=ev.prior,
        config=config,
        failed_chains=ev.failed,
        notes=ev.notes,
    )
    return FitResult(
        event_id=data.event.event_id,
        chains=tuple(chains),
        pooled_mu=pooled_mu,
        pooled_logN=pooled_y,
        pooled_sigma=pooled_sigma,
        mpsrf=mpsrf,
        converged=mpsrf < 1.1,
        meta=meta,
    )


def _derive_t_m(data) -> float:
    if data.window is not None:
        span = data.window.span_years()
        if span is not None:
            return span
    return max(data.span_years(), 1.0)


def _pool_draws(chains, pool_size):
    """Deterministic even-stride subsample across the concatenated chains."""
    mu = np.concatenate([c.mu for c in chains])
    y = np.concatenate([c.logN for c in chains])
    sigma = np.concatenate([c.sigma for c in chains])
    total = len(mu)
    if total <= pool_size:
        return mu, y, sigma
    idx = np.floor(np.linspace(0.0, total, pool_size, endpoint=False)).astype(int)
    return mu[idx], y[idx], sigma[idx]
