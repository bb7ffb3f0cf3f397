"""Adaptive random-walk Metropolis-Hastings over (mu, log N).

Protocol: each chain of an event proposes s L z, z standard normal and L
the Cholesky factor of the covariance of the event's grid posterior
(distcore.grid_posterior: the list's one weak-prior grid, reweighted to
the event's prior, so pass 2 scores no grid of its own). It starts at a
random point around the grid mean, runs 1000-step burn-ins that double or
halve s from _START_SCALE until the acceptance rate lands in [0.2, 0.4],
then samples in batches, retaining the final state of each batch.
Convergence across chains is assessed with the multivariate potential scale
reduction factor.

tune_burn_in and run_chain run one chain on Python floats, through the
one-lane view of the log-posterior kernel; they are the reference the
pipeline must match bit for bit. fit_events, the one corpus fitter, fits
every list of a corpus under one prior (a distcore.HyperPrior) and runs
every chain of every event as numpy lanes of the same kernel instead, one
lane target scoring every list under that prior. run_lanes is the one lane
stepper: tune_lanes runs the next burn-in round of every chain still tuning
as one run_lanes batch, and fit_events steps the tuned chains through it
batch by batch. A lane takes its draws whole per burn-in round or batch,
in _run_steps' order, so it keeps its chain's stream; everything built
from them is built per block of _STEP_BLOCK steps, so only the draws
grow with the round. Each fitted event keeps the mpsrf of its chains and
an even-stride pool of their draws, and drops the chains. At the defaults
the pool is every retained draw: 10 chains x 100 batches = pool_size 1000.
Draws retained 50 steps apart are nearly independent (lag-1
autocorrelation at most 0.013 on the criterion-5 fixture), so retaining
more than the pool would buy sampling that no forecast reads. An event that
lost half its chains or more, at initialization or in burn-in, is not
sampled and fails as "<id>: k of N chains failed". fit_event is its
one-event case. SamplerConfig refuses fewer than 2 chains or 10 batches,
which the diagnostic cannot judge.
"""
from __future__ import annotations

import math
import sys
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .distcore import (HyperPrior, grid_posterior, make_lane_log_posterior, make_log_posterior,
                       tail_mass_sigma)
from .errors import TailcastError
from .ingest import EventSpec

# The s every chain starts burn-in with: 2.38 / sqrt(d) for d = 2, optimal for a
# proposal shaped like a Gaussian target (Roberts, Gelman & Gilks 1997).
_START_SCALE = 2.38 / math.sqrt(2.0)
# Initial points a chain tries before _draw_init gives up on it.
_INIT_TRIES = 500
# The tuning rule: a burn-in round's acceptance rate must land in
# [_ACCEPT_LO, _ACCEPT_HI], and a chain fails after _MAX_RETUNES retunes.
_ACCEPT_LO = 0.2
_ACCEPT_HI = 0.4
_MAX_RETUNES = 25
# Steps whose increments, log-uniforms and accept flags run_lanes builds at
# once: the default batch_len, so sampling builds one block per batch.
_STEP_BLOCK = 50


class TuningFailed(TailcastError):
    """Burn-in retuning exhausted _MAX_RETUNES without reaching the
    acceptance band."""

    def __init__(self, message: str, last_rate: float):
        super().__init__(message)
        self.last_rate = last_rate


class FitFailed(TailcastError):
    """Too many chains failed for this event's fit to be usable."""


@dataclass(frozen=True)
class SamplerConfig:
    burn_in_steps: int = 1000
    batches: int = 100
    batch_len: int = 50
    chains: int = 10
    seed: int = 0
    pool_size: int = 1000

    def __post_init__(self) -> None:
        # A fit file holds no integer too large for a float, and the band check
        # below scales burn_in_steps by one: a larger setting would overflow
        # there or write a fit that no command reads back.
        for f in fields(self):
            value = getattr(self, f.name)
            if value > sys.float_info.max:
                raise ValueError(f"{f.name} of {len(str(value))} digits is too large for a float")
        for name in ("burn_in_steps", "batches", "batch_len", "chains", "pool_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        # Every fit ends in gelman_rubin_mpsrf, which compares two chains or more
        # of ten retained draws or more.
        if self.chains < 2:
            raise ValueError(f"chains must be at least 2 for the convergence "
                             f"diagnostic, got {self.chains}")
        if self.batches < 10:
            raise ValueError(f"batches must be at least 10 for the convergence "
                             f"diagnostic, got {self.batches}")
        # A round's rate is accepted/burn_in_steps; with too few steps no count lands
        # in the band, and every chain would run out its retunes. The first count at
        # or above _ACCEPT_LO is within one of ceil(_ACCEPT_LO * steps).
        n, first = self.burn_in_steps, math.ceil(_ACCEPT_LO * self.burn_in_steps)
        if not any(_ACCEPT_LO <= a / n <= _ACCEPT_HI for a in (first - 1, first, first + 1)):
            raise ValueError(f"burn_in_steps {n} gives no acceptance rate in "
                             f"[{_ACCEPT_LO}, {_ACCEPT_HI}]")
        # Chain streams hash the seed with numpy's SeedSequence, which takes no negative.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TunedState:
    step_scale: float
    state: tuple[float, float]
    accept_rate: float
    factor: tuple[float, float, float]


@dataclass(frozen=True)
class PosteriorChain:
    """One chain as run_chain samples it: its retained (mu, log N) states."""

    chain_id: int
    mu: np.ndarray
    logN: np.ndarray
    accept_rate: float
    step_scale: float


@dataclass(frozen=True)
class ChainSummary:
    """One sampled chain of a fit: its acceptance rate over the retained
    steps and its tuned proposal scale s."""

    chain_id: int
    accept_rate: float
    step_scale: float


@dataclass(frozen=True)
class FitMetadata:
    """What a fit was made from. t_m is the span in years the list's marks
    accumulated over, finite and positive; best_x is the best fitted mark;
    record_x is the event's record as of the end of the fit's window, fitted
    or not; chains are the sampled chains, in chain order."""

    event: EventSpec
    t_m: float
    n_k: int
    w_k: float
    best_x: float
    record_x: float
    prior: HyperPrior
    config: SamplerConfig
    chains: tuple[ChainSummary, ...]
    failed_chains: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_m) and self.t_m > 0.0):
            raise ValueError(f"t_m must be a positive number of years, got {self.t_m}")

    @property
    def event_id(self) -> str:
        return self.event.event_id


@dataclass(frozen=True)
class FitResult:
    """One fitted event, the same whether sampled or loaded: the pooled
    (mu, log N) draws, the mpsrf of the chains they were pooled from, and
    what the fit was made from. Each pooled draw's sigma follows from its
    (mu, log N) by the tail-mass identity: nan for a draw outside its domain.
    """

    pooled_mu: np.ndarray
    pooled_logN: np.ndarray
    mpsrf: float
    meta: FitMetadata
    pooled_sigma: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pooled_sigma",
                           tail_mass_sigma(self.pooled_mu, self.pooled_logN,
                                           self.meta.n_k, self.meta.w_k))

    @property
    def event_id(self) -> str:
        return self.meta.event_id

    @property
    def converged(self) -> bool:
        return self.mpsrf < 1.1

    @property
    def pooled_size(self) -> int:
        return len(self.pooled_mu)


def _run_steps(target, state, lp, n_steps, scales, rng):
    """Advance one chain n_steps; returns (state, lp, accepted_count).

    `scales` is (a, b, c), the entries of s L, so a step moves (mu, log N)
    by (a z1, b z1 + c z2). The draws leave numpy once per block via
    .tolist(), so the state and every target call stay on Python floats:
    numpy-scalar arithmetic makes the target about 1.5x slower. Each
    increment is the same IEEE arithmetic as numpy column operations, so the
    chain matches the numpy-indexing reference loop in tests/test_sampler.py
    bit for bit.
    """
    incs = rng.standard_normal((n_steps, 2)).tolist()
    # np.log, not math.log: the two can differ in the last ulp.
    log_us = np.log(rng.random(n_steps)).tolist()
    a, b, c = scales
    mu, y = state
    accepted = 0
    for (z1, z2), log_u in zip(incs, log_us):
        cand = (mu + z1 * a, y + (z1 * b + z2 * c))
        lp_new = target(cand)
        if log_u < lp_new - lp:
            mu, y = cand
            lp = lp_new
            accepted += 1
    return (mu, y), lp, accepted


def tune_burn_in(target, config: SamplerConfig, init, factor, rng=None) -> TunedState:
    """Burn in, retuning the proposal scale s of s * L z geometrically from
    _START_SCALE until the acceptance rate falls inside
    [_ACCEPT_LO, _ACCEPT_HI]. `factor` holds L's entries (l11, l21, l22).

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
    scale = _START_SCALE
    rate = math.nan
    for _ in range(_MAX_RETUNES + 1):
        state, _, accepted = _run_steps(target, start, lp0, config.burn_in_steps,
                                        _scaled(scale, factor), rng)
        rate = accepted / config.burn_in_steps
        if _ACCEPT_LO <= rate <= _ACCEPT_HI:
            return TunedState(step_scale=scale, state=state, accept_rate=rate, factor=factor)
        scale = scale * 2.0 if rate > _ACCEPT_HI else scale * 0.5
    raise _tuning_failed(rate)


def _scaled(scale: float, factor) -> tuple[float, float, float]:
    """The proposal's (a, b, c) = scale * (l11, l21, l22)."""
    return tuple(scale * entry for entry in factor)


def _tuning_failed(rate: float) -> TuningFailed:
    return TuningFailed(
        f"no acceptance rate in [{_ACCEPT_LO}, {_ACCEPT_HI}] after "
        f"{_MAX_RETUNES} retunes (last rate {rate:.3f})",
        last_rate=rate,
    )


def run_chain(target, config: SamplerConfig, tuned: TunedState, rng=None,
              chain_id: int = 0) -> PosteriorChain:
    """Sample batches x batch_len steps, retaining each batch's final state."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    scales = _scaled(tuned.step_scale, tuned.factor)
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


def run_lanes(target, starts, scales, rngs, batches: int, batch_len: int):
    """run_chain for many chains at once, stepped together as numpy lanes:
    the one Metropolis loop of burn-in rounds (tune_lanes) and of retained
    sampling (fit_events).

    `target` is a lane target (distcore.make_lane_log_posterior); lane i
    starts at starts[:, i], (mu, log N), steps by scales[:, i], its (a, b, c)
    as in _run_steps, and draws from rngs[i]: per batch, its (batch_len, 2)
    increments, then its batch_len uniforms, in _run_steps' order. So lane i
    reproduces run_chain's chain bit for bit, as make_log_posterior is the
    one-lane view of the same kernel. The draws are taken whole per batch, so
    each lane keeps its chain's stream; the steps, log-uniforms and accept
    flags built from them are built _STEP_BLOCK steps at a time, so a batch
    holds 24 bytes of draws per lane-step and only one block of what follows
    from them. Returns (mu, logN, accepted): (lanes, batches) arrays of each
    batch's final state, and each lane's accepted-step count. A start whose
    log-posterior is not finite is refused.
    """
    lanes = len(rngs)
    state = np.empty((3, lanes))  # mu, log N and lp of every lane
    state[:2] = starts
    cand = np.empty_like(state)
    # Views and buffers made once: each slice or temporary costs a call per step.
    pos, lp, cand_pos = state[:2].reshape(-1), state[2], cand[:2].reshape(-1)
    cand_mu, cand_y, cand_lp = cand
    gain = np.empty(lanes)
    incs = np.empty((lanes, batch_len, 2))
    us = np.empty((lanes, batch_len))
    a, b, c = scales
    mu_draws = np.empty((lanes, batches))
    y_draws = np.empty((lanes, batches))
    accepted = np.zeros(lanes, dtype=np.int64)
    with np.errstate(all="ignore"):
        target(state[0], state[1], out=lp)
        if not np.isfinite(lp).all():
            raise ValueError("every lane must start at a finite log-posterior")
        for batch in range(batches):
            for inc, u, rng in zip(incs, us, rngs):
                rng.standard_normal(out=inc)
                rng.random(out=u)
            for start in range(0, batch_len, _STEP_BLOCK):
                block = slice(start, start + _STEP_BLOCK)
                # Row t of steps holds step t of every lane, mu block then log N
                # block, laid out like state[:2], so one flat add moves every lane.
                z1, z2 = incs[:, block].transpose(2, 1, 0)
                steps = np.stack((z1 * a, z1 * b + z2 * c), axis=1).reshape(len(z1), -1)
                # np.log over one contiguous block, as in _run_steps: a strided or
                # scalar log can differ in the last ulp.
                log_us = np.log(np.ascontiguousarray(us[:, block].T))
                accepts = np.empty((len(steps), lanes), dtype=bool)
                for step, log_u, accept in zip(steps, log_us, accepts):
                    np.add(pos, step, out=cand_pos)
                    target(cand_mu, cand_y, out=cand_lp)
                    np.less(log_u, np.subtract(cand_lp, lp, out=gain), out=accept)
                    np.copyto(state, cand, where=accept)
                accepted += accepts.sum(axis=0)
            mu_draws[:, batch] = state[0]
            y_draws[:, batch] = state[1]
    return mu_draws, y_draws, accepted


def tune_lanes(lists, prior, factors, config: SamplerConfig, inits, rngs) -> list:
    """tune_burn_in for many chains at once, one numpy lane per chain.

    Chain i scores lists[i] under `prior`, proposes along factors[i],
    starts every round from inits[i] and draws from rngs[i] in tune_burn_in's
    order. Each pass runs the next round of every chain still tuning under
    tune_burn_in's rule, as one run_lanes batch, so every outcome, and where
    every generator ends, is tune_burn_in's. Returns each chain's TunedState
    or TuningFailed.
    """
    n = config.burn_in_steps
    results: list = [None] * len(inits)
    scales = [_START_SCALE] * len(inits)
    pending = list(range(len(inits)))
    for r in range(_MAX_RETUNES + 1):
        if not pending:
            break
        mu, y, accepted = run_lanes(
            make_lane_log_posterior([lists[i] for i in pending], prior),
            np.array([inits[i] for i in pending], dtype=float).T,
            np.array([_scaled(scales[i], factors[i]) for i in pending]).T,
            [rngs[i] for i in pending], 1, n)
        for lane, i in enumerate(pending):
            rate = int(accepted[lane]) / n
            if _ACCEPT_LO <= rate <= _ACCEPT_HI:
                results[i] = TunedState(step_scale=scales[i], accept_rate=rate,
                                        state=(float(mu[lane, 0]), float(y[lane, 0])),
                                        factor=factors[i])
            elif r == _MAX_RETUNES:
                results[i] = _tuning_failed(rate)
            else:
                scales[i] *= 2.0 if rate > _ACCEPT_HI else 0.5
        pending = [i for i in pending if results[i] is None]
    return results


def gelman_rubin_mpsrf(chains) -> float:
    """Multivariate potential scale reduction factor over (mu, log N), from
    each chain's (n, 2) array of draws. Returns inf when the pooled
    within-chain covariance is singular (nothing moved).
    """
    arrays = [np.asarray(c, dtype=float) for c in chains]
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


def _draw_init(target, mean, factor, rng):
    """Random initialization with finite log-posterior, or None: the grid
    mean plus 2 L z, so the chains start over twice the posterior's spread."""
    l11, l21, l22 = factor
    for _ in range(_INIT_TRIES):
        z1, z2 = rng.standard_normal(), rng.standard_normal()
        theta = (mean[0] + 2.0 * l11 * z1, mean[1] + 2.0 * (l21 * z1 + l22 * z2))
        if math.isfinite(target(theta)):
            return theta
    return None


def _grid_proposal(data, prior):
    """The grid posterior's mean in (mu, log N) and its covariance's
    Cholesky factor as (l11, l21, l22). Raises FitFailed when the covariance
    is singular, as it is when the posterior lies within one cell of the grid."""
    (mean_d, mean_y), cov, _ = grid_posterior(data, prior)
    try:
        (l11, _), (l21, l22) = np.linalg.cholesky(cov).tolist()
    except np.linalg.LinAlgError:
        raise FitFailed(f"{data.event.event_id}: the grid posterior's covariance "
                        f"{cov.tolist()} is not positive definite") from None
    return (data.w_k + mean_d, mean_y), (l11, l21, l22)


def fit_event(data, prior, config: SamplerConfig) -> FitResult:
    """Full fit of one event: chains, tuning, sampling, diagnostics, pooling.

    The one-event case of fit_events.
    """
    fits, failures = fit_events([data], prior, config)
    if failures:
        raise FitFailed(failures[data.event.event_id])
    return fits[data.event.event_id]


def chain_rng(seed: int, event_id: str, chain_id: int) -> np.random.Generator:
    """The generator of one chain: its own stream, hashed by SeedSequence
    from (base seed, crc32 of the event id, chain id), so nearby seeds,
    events and chains get unrelated streams."""
    return np.random.default_rng([seed, zlib.crc32(event_id.encode("utf-8")), chain_id])


def fit_events(lists, prior: HyperPrior, config: SamplerConfig):
    """Fit every list under one prior, sampling all their chains as lanes.

    Each fit's span is its list's, PerformanceList.t_m. Chain c of an event
    starts around its grid posterior on chain_rng(config.seed, event id, c);
    tune_lanes burns in every chain at once, and run_lanes steps every
    tuned chain of every event that can still succeed. So a fit depends on its own list and id,
    the prior and the config, never on the events fitted with it. Returns
    (fits, failures) in list order: event_id -> FitResult, and event_id ->
    the message of the FitFailed that ended that event. Two lists with one
    event id are refused.
    """
    # Per event: (data, {chain id: note on its failure}, [(lane, its
    # ChainSummary) per sampled chain]), or the message of the FitFailed that ended it.
    events: dict = {}
    chains = []  # per chain with an init: (event id, chain id, factor, init, rng)
    for data in lists:
        event_id = data.event.event_id
        if event_id in events:
            raise ValueError(f"two lists have event id {event_id!r}")
        try:
            mean, factor = _grid_proposal(data, prior)
        except FitFailed as exc:
            events[event_id] = str(exc)
            continue
        target = make_log_posterior(data, prior)
        notes = {}
        for chain_id in range(config.chains):
            rng = chain_rng(config.seed, event_id, chain_id)
            init = _draw_init(target, mean, factor, rng)
            if init is None:
                notes[chain_id] = f"chain {chain_id}: no finite-posterior initialization found"
            else:
                chains.append((event_id, chain_id, factor, init, rng))
        events[event_id] = (data, notes, [])
    outcomes = tune_lanes([events[c[0]][0] for c in chains], prior, [c[2] for c in chains],
                          config, [c[3] for c in chains], [c[4] for c in chains])
    for (event_id, chain_id, *_), outcome in zip(chains, outcomes):
        if isinstance(outcome, TuningFailed):
            events[event_id][1][chain_id] = f"chain {chain_id}: {outcome}"
    # An event that lost half its chains or more is not sampled.
    lanes = [(chain, tuned) for chain, tuned in zip(chains, outcomes)
             if isinstance(tuned, TunedState) and 2 * len(events[chain[0]][1]) < config.chains]
    if lanes:
        mu, y, accepted = run_lanes(
            make_lane_log_posterior([events[c[0]][0] for c, _ in lanes], prior),
            np.array([t.state for _, t in lanes]).T,
            np.array([_scaled(t.step_scale, t.factor) for _, t in lanes]).T,
            [c[4] for c, _ in lanes], config.batches, config.batch_len)
        steps = config.batches * config.batch_len
        for lane, ((event_id, chain_id, *_), tuned) in enumerate(lanes):
            events[event_id][2].append((lane, ChainSummary(
                chain_id=chain_id, accept_rate=int(accepted[lane]) / steps,
                step_scale=tuned.step_scale)))
    fits: dict[str, FitResult] = {}
    failures: dict[str, str] = {}
    for event_id, event in events.items():
        if isinstance(event, str):
            failures[event_id] = event
            continue
        data, notes, sampled = event
        if not sampled:
            failures[event_id] = f"{event_id}: {len(notes)} of {config.chains} chains failed"
            continue
        rows, summaries = zip(*sampled)
        event_mu, event_y = mu[list(rows)], y[list(rows)]  # (chains, batches), chain order
        meta = FitMetadata(
            event=data.event,
            t_m=data.t_m,
            n_k=data.n_k,
            w_k=data.w_k,
            best_x=data.best,
            record_x=data.record,
            prior=prior,
            config=config,
            chains=summaries,
            failed_chains=tuple(sorted(notes)),
            notes=tuple(notes[c] for c in sorted(notes)),
        )
        fits[event_id] = FitResult(
            *_pool_draws(event_mu, event_y, config.pool_size),
            gelman_rubin_mpsrf(np.stack((event_mu, event_y), axis=2)), meta)
    return fits, failures


def _pool_draws(mu, logN, pool_size):
    """Deterministic even-stride subsample of at most pool_size draws across
    the chains' rows of (chains, draws) arrays, read in chain order."""
    mu, logN = np.ravel(mu), np.ravel(logN)
    total = len(mu)
    if total <= pool_size:
        return mu, logN
    idx = np.floor(np.linspace(0.0, total, pool_size, endpoint=False)).astype(int)
    return mu[idx], logN[idx]
