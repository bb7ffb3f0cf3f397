"""Random-walk Metropolis-Hastings over (mu, log N).

Protocol: each chain of an event proposes s L z, z standard normal and L
the Cholesky factor of the covariance of the event's grid posterior
(distcore.grid_posterior: the list's one weak-prior grid, reweighted to
the event's prior, so pass 2 scores no grid of its own), and s is
_START_SCALE, 2.38/sqrt(2), optimal for a Gaussian target whose shape the
proposal already has (Roberts, Gelman & Gilks 1997; Roberts & Rosenthal
2001). A chain starts at a random point around the grid mean, burns in
for one round of burn_in_steps (250 at the defaults), then samples in
batches of batch_len steps (20 at the defaults), retaining the final
state of each batch. s is never retuned. A loop that doubled or halved it
until a round's acceptance rate landed in [0.2, 0.4] reacted mostly to
noise (a 250-step rate's sd is about 0.03): on the benchmark's corpus
workload, seeds 0 to 29, it re-ran 302 rounds for the 140 chains whose
first rate strayed, and left 2398 of the 2400 chains at the start scale.
Convergence across chains is assessed with the multivariate potential
scale reduction factor.

tune_burn_in and run_chain run one chain on Python floats, through the
one-lane view of the log-posterior kernel; they are the reference the
pipeline must match bit for bit. fit_events, the one corpus fitter, fits
every list of a corpus under one prior (a distcore.HyperPrior) and runs
every chain of every event as numpy lanes of the same kernel instead, one
lane target scoring every list under that prior. run_lanes is the one lane
stepper: fit_events burns every chain in as one run_lanes batch of
burn_in_steps, then steps them through retained sampling batch by batch.
Each call of the lane target moves every lane two steps: it scores both
candidates of the second step beside the first step's, so the second is
accepted against whichever state the first left, bit for bit as one step
at a time. A lane takes its draws whole per batch, in _run_steps' order,
so it keeps its chain's stream, for whole batches of at least _STEP_BLOCK
steps at a time; everything built from them is built per block of
_STEP_BLOCK steps across those batches, so only the draws grow with the
batch. Each fitted event keeps the mpsrf of its chains and an even-stride
pool of their draws, and drops the chains. At the defaults the pool is
every retained draw: 10 chains x 100 batches = pool_size 1000. Thinning
further than the chains' autocorrelation needs buys no precision (Geyer
1992): on the
criterion-5 fixture, draws retained 20 steps apart keep every event's
pooled ESS above 600 of 1000 (tests/test_acceptance.py), and retaining
more than the pool would buy sampling that no forecast reads. An event
that lost half its chains or more at initialization is not sampled and
fails as "<id>: k of N chains failed". fit_event is its one-event case.
SamplerConfig refuses fewer than 2 chains or 10 batches, which the
diagnostic cannot judge.
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
from .ingest import EventSpec, decode_mark

# The s of every chain: 2.38 / sqrt(d) for d = 2, optimal for a proposal
# shaped like a Gaussian target (Roberts, Gelman & Gilks 1997).
_START_SCALE = 2.38 / math.sqrt(2.0)
# Initial points a chain tries before _draw_init gives up on it.
_INIT_TRIES = 500
# Steps whose increments, log-uniforms and accept flags run_lanes builds at
# once, and the fewest steps whose draws it takes at once (whole batches of
# them). It bounds what a long burn-in batch holds beyond its draws, and a
# smaller block would set up more blocks per batch.
_STEP_BLOCK = 50


class FitFailed(TailcastError):
    """Too many chains failed for this event's fit to be usable."""


@dataclass(frozen=True)
class SamplerConfig:
    burn_in_steps: int = 250
    batches: int = 100
    batch_len: int = 20
    chains: int = 10
    seed: int = 0
    pool_size: int = 1000

    def __post_init__(self) -> None:
        # A fit file holds no integer too large for a float: a larger setting
        # would write a fit that no command reads back.
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
    steps and its proposal scale s, always _START_SCALE."""

    chain_id: int
    accept_rate: float
    step_scale: float


@dataclass(frozen=True)
class FitMetadata:
    """What a fit was made from. t_m is the span in years the list's marks
    accumulated over, finite and positive; best_x is the best fitted mark;
    record_x is the event's record as of the end of the fit's window, fitted
    or not, and each transformed mark must decode to a positive, finite one;
    chains are the sampled chains, in chain order."""

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
        # Forecasts print both marks, and a finite transformed mark past about
        # +-709.78 decodes to no positive finite time or distance. A non-finite
        # one is the fit file's to refuse: dumps writes none and loads reads none.
        for name in ("best_x", "record_x"):
            x = getattr(self, name)
            if math.isfinite(x):
                try:
                    mark = decode_mark(self.event, x)
                except OverflowError:
                    mark = math.inf
                if not 0.0 < mark < math.inf:
                    raise ValueError(f"{name} must decode to a positive finite mark, got {x!r}")

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
    """Burn in one chain: one round of burn_in_steps from init, proposing
    _START_SCALE * L z, where `factor` holds L's entries (l11, l21, l22).
    The scale is kept whatever the round's acceptance rate, which the
    returned TunedState records."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    start = tuple(init)
    lp0 = target(start)
    if not math.isfinite(lp0):
        raise ValueError("burn-in requires an initialization with finite log-posterior")
    state, _, accepted = _run_steps(target, start, lp0, config.burn_in_steps,
                                    _scaled(_START_SCALE, factor), rng)
    return TunedState(step_scale=_START_SCALE, state=state,
                      accept_rate=accepted / config.burn_in_steps, factor=factor)


def _scaled(scale: float, factor) -> tuple[float, float, float]:
    """The proposal's (a, b, c) = scale * (l11, l21, l22)."""
    return tuple(scale * entry for entry in factor)


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
    the one Metropolis loop of fit_events' burn-in and retained sampling.

    Lane i starts at starts[:, i], (mu, log N), steps by scales[:, i], its
    (a, b, c) as in _run_steps, and draws from rngs[i]: per batch, its
    (batch_len, 2) increments, then its batch_len uniforms, in _run_steps'
    order. So lane i reproduces run_chain's chain bit for bit, as
    make_log_posterior is the one-lane view of the same kernel.

    Every call of `target` moves every lane two steps (a pre-fetch of depth
    2; Brockwell 2006, J. Comput. Graph. Stat. 15:246): from state R it
    scores R + s_t, R + s_t+1 and (R + s_t) + s_t+1 at once, then accepts
    step t against R and step t+1 against whichever state step t left, with
    _run_steps' subtraction and comparison, so each lane's draws stay bit
    for bit. `target` is therefore a lane target
    (distcore.make_lane_log_posterior) over the lanes' lists taken three
    times, lists * 3, scoring flat arrays of three blocks of lanes. At a few
    dozen lanes a call's cost is mostly its numpy calls' overhead, not their
    arithmetic, so a call over three points per lane costs little more than
    one over one point per lane.

    A lane takes its draws whole per batch, so it keeps its chain's stream,
    but for at least _STEP_BLOCK steps at a time: into a buffer of whole
    batches. The steps, log-uniforms and accept flags built from them are
    built _STEP_BLOCK steps at a time across the buffer's batches, and each
    batch's final state is recorded where it falls inside a block. A block
    of odd length ends in a pair whose second step is never accepted (its
    log-uniform is +inf), so every block runs the same paired loop. A batch
    holds 24 bytes of draws per lane-step and only one block of what follows
    from them. Returns (mu, logN, accepted): (lanes, batches) arrays of each
    batch's final state, and each lane's accepted-step count. A start whose
    log-posterior is not finite is refused.
    """
    lanes = len(rngs)
    state = np.empty((3, lanes))  # mu, log N and lp of every lane
    state[:2] = starts
    # (mu, log N, lp) x (R + s_t, R + s_t+1, (R + s_t) + s_t+1) x lanes; each
    # quantity's three blocks are one flat array of the target's lanes.
    cand = np.empty((3, 3, lanes))
    cand[:2] = state[:2, None]
    # Views and buffers made once: each slice or temporary costs a call per step.
    lp, pos = state[2], state[:2, None]
    cand_mu, cand_y, cand_lp = (row.reshape(-1) for row in cand)
    first, second, both = cand.transpose(1, 0, 2)
    first_lp, second_lp = first[2], second[2]
    firsts, (first_mu, first_y), (both_mu, both_y) = cand[:2, :2], first[:2], both[:2]
    gain = np.empty(lanes)
    group = min(batches, -(-_STEP_BLOCK // batch_len))  # batches per buffer
    incs = np.empty((lanes, group, batch_len, 2))
    us = np.empty((lanes, group, batch_len))
    # Each lane's draw methods and per-batch views, bound once: per call they
    # cost about as much as the draws of a short batch.
    draws = [(rng.standard_normal, rng.random, list(zip(inc, u)))
             for inc, u, rng in zip(incs, us, rngs)]
    a, b, c = scales
    mu_draws = np.empty((lanes, batches))
    y_draws = np.empty((lanes, batches))
    accepted = np.zeros(lanes, dtype=np.int64)
    with np.errstate(all="ignore"):
        target(cand_mu, cand_y, cand_lp)
        lp[:] = first_lp
        if not np.isfinite(lp).all():
            raise ValueError("every lane must start at a finite log-posterior")
        for batch0 in range(0, batches, group):
            count = min(group, batches - batch0)
            for normal, uniform, views in draws:
                for inc, u in views[:count]:
                    normal(out=inc)
                    uniform(out=u)
            n_steps = count * batch_len
            buf_incs = incs[:, :count].reshape(lanes, n_steps, 2)
            buf_us = us[:, :count].reshape(lanes, n_steps)
            for start in range(0, n_steps, _STEP_BLOCK):
                m = min(_STEP_BLOCK, n_steps - start)
                pairs = (m + 1) // 2
                # The last step of each batch in this block, by its place in
                # the block: the state after it is that batch's draw.
                ends = {end - start: batch0 + end // batch_len
                        for end in range(batch_len - 1, n_steps, batch_len)
                        if start <= end < start + m}
                # Step t of every lane, in a mu block and a log N block, with a
                # zero step padding a block of odd length.
                steps = np.zeros((2, 2 * pairs, lanes))
                z1 = buf_incs[:, start:start + m, 0].T
                np.multiply(z1, a, steps[0, :m])
                np.multiply(z1, b, steps[1, :m])
                steps[1, :m] += buf_incs[:, start:start + m, 1].T * c
                steps = steps.reshape(2, pairs, 2, lanes)
                # np.log over one contiguous block, as in _run_steps: a strided or
                # scalar log can differ in the last ulp. The padding step's +inf
                # is never accepted.
                log_us = np.full((2 * pairs, lanes), np.inf)
                np.log(np.ascontiguousarray(buf_us[:, start:start + m].T), log_us[:m])
                accepts = np.empty((2 * pairs, lanes), dtype=bool)
                for t, (step, mu_step, y_step, log_u1, log_u2, accept1, accept2) in enumerate(zip(
                        steps.transpose(1, 0, 2, 3), steps[0, :, 1], steps[1, :, 1],
                        log_us[::2], log_us[1::2],
                        accepts[::2], accepts[1::2])):
                    np.add(pos, step, firsts)
                    # Two 1-D adds cost less than one over the strided (2, lanes) views.
                    np.add(first_mu, mu_step, both_mu)
                    np.add(first_y, y_step, both_y)
                    target(cand_mu, cand_y, cand_lp)
                    np.less(log_u1, np.subtract(first_lp, lp, gain), accept1)
                    np.copyto(state, first, where=accept1)
                    np.copyto(second, both, where=accept1)
                    if 2 * t in ends:
                        mu_draws[:, ends[2 * t]], y_draws[:, ends[2 * t]] = state[:2]
                    np.less(log_u2, np.subtract(second_lp, lp, gain), accept2)
                    np.copyto(state, second, where=accept2)
                    if 2 * t + 1 in ends:
                        mu_draws[:, ends[2 * t + 1]], y_draws[:, ends[2 * t + 1]] = state[:2]
                accepted += accepts.sum(axis=0)
    return mu_draws, y_draws, accepted


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
    """Full fit of one event: chains, burn-in, sampling, diagnostics, pooling.

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
    starts around its grid posterior on chain_rng(config.seed, event id, c).
    Every chain of every event that can still succeed then runs two
    run_lanes calls: burn-in, one batch of burn_in_steps at _START_SCALE,
    and retained sampling from where burn-in ends, so each chain's draws are
    tune_burn_in's and run_chain's. A fit depends on its own list and id,
    the prior and the config, never on the events fitted with it. Returns
    (fits, failures) in list order: event_id -> FitResult, and event_id ->
    the message of the FitFailed that ended that event. Two lists with one
    event id are refused.
    """
    # Per event: (data, {chain id: note on its failure}, [(lane, its
    # ChainSummary) per sampled chain]), or the message of the FitFailed that ended it.
    events: dict = {}
    chains = []  # per chain to sample: (event id, chain id, factor, init, rng)
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
        notes, found = {}, []
        for chain_id in range(config.chains):
            rng = chain_rng(config.seed, event_id, chain_id)
            init = _draw_init(target, mean, factor, rng)
            if init is None:
                notes[chain_id] = f"chain {chain_id}: no finite-posterior initialization found"
            else:
                found.append((event_id, chain_id, factor, init, rng))
        # An event that lost half its chains or more is not sampled.
        if 2 * len(notes) < config.chains:
            chains += found
        events[event_id] = (data, notes, [])
    if chains:
        target = make_lane_log_posterior([events[c[0]][0] for c in chains] * 3, prior)
        scales = np.array([_scaled(_START_SCALE, c[2]) for c in chains]).T
        rngs = [c[4] for c in chains]
        mu, y, _ = run_lanes(target, np.array([c[3] for c in chains]).T, scales, rngs,
                             1, config.burn_in_steps)
        mu, y, accepted = run_lanes(target, np.hstack((mu, y)).T, scales, rngs,
                                    config.batches, config.batch_len)
        steps = config.batches * config.batch_len
        for lane, (event_id, chain_id, *_) in enumerate(chains):
            events[event_id][2].append((lane, ChainSummary(
                chain_id=chain_id, accept_rate=int(accepted[lane]) / steps,
                step_scale=_START_SCALE)))
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
