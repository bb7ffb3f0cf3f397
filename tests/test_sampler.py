"""Metropolis-Hastings machinery: burn-in, sampling, diagnostics, fitting."""
import copy
import hashlib
import math
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from tailcast import fitfile, sampler
from tailcast.distcore import make_lane_log_posterior, make_log_posterior, tail_mass_sigma
from tailcast.emprior import HyperPrior, Provenance
from tailcast.ingest import DateWindow, EventSpec, build_performance_list
from tailcast.sampler import (
    ChainSummary,
    FitFailed,
    SamplerConfig,
    TunedState,
    chain_rng,
    fit_event,
    fit_events,
    gelman_rubin_mpsrf,
    run_chain,
    run_lanes,
    tune_burn_in,
    _draw_init,
    _grid_proposal,
    _pool_draws,
    _run_steps,
)
from tailcast.synth import sample_tail, tail_performance_list

from conftest import fail_every_init, lane_events

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033
# The proposal factor of a target whose covariance is the identity.
IDENTITY = (1.0, 0.0, 1.0)


def std_normal_2d(theta):
    x, y = theta
    return -0.5 * (x * x + y * y)


def small_config(**kw):
    base = dict(
        burn_in_steps=400, batches=200, batch_len=10, chains=3,
        pool_size=400, seed=11,
    )
    base.update(kw)
    return SamplerConfig(**base)


def synthetic_event(seed=55, keep=400, population=20_000, first_year=2001):
    spec = EventSpec.running(f"syn{seed}")
    tail = sample_tail(seed, MU_STAR, SIGMA_STAR, population, keep)
    return tail_performance_list(spec, tail, first_year, 2020, seed=seed + 1)


INFORMATIVE = HyperPrior(
    mu_N=math.log(20_000.0), sigma2_N=0.25, provenance=Provenance.EMPIRICAL
)


def test_tuner_rejects_bad_init():
    with pytest.raises(ValueError):
        tune_burn_in(std_normal_2d, small_config(), (math.nan, 0.0), IDENTITY)


def test_run_chain_zero_scale_degenerate():
    config = small_config(batches=20, batch_len=5)
    tuned = TunedState(step_scale=0.0, state=(0.7, -0.2), accept_rate=0.3, factor=IDENTITY)
    chain = run_chain(std_normal_2d, config, tuned, np.random.default_rng(3))
    assert chain.accept_rate == 1.0
    assert np.all(chain.mu == 0.7)
    assert np.all(chain.logN == -0.2)


def _reference_run_steps(target, state, lp, n_steps, scales, rng):
    """The straightforward numpy-indexing step loop that _run_steps must
    reproduce bit for bit."""
    z = rng.standard_normal((n_steps, 2))
    a, b, c = scales
    d_mu = z[:, 0] * a
    d_y = z[:, 0] * b + z[:, 1] * c
    log_us = np.log(rng.random(n_steps))
    mu, y = state
    accepted = 0
    for k in range(n_steps):
        cand = (mu + d_mu[k], y + d_y[k])
        lp_new = target(cand)
        if log_us[k] < lp_new - lp:
            mu, y = cand
            lp = lp_new
            accepted += 1
    return (mu, y), lp, accepted


@pytest.mark.parametrize("case", ["event", "std_normal"])
def test_run_steps_matches_reference_loop(case):
    if case == "event":
        data = synthetic_event()
        target = make_log_posterior(data, INFORMATIVE)
        state = (float(max(data.marks)) + 0.05, math.log(20_000.0))
        scales = (0.01, 0.04, 0.02)
    else:
        target, state, scales = std_normal_2d, (0.3, -0.4), (1.5, -0.3, 0.7)
    fast_rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    fast = ref = (state, target(state), 0)
    accepted = 0
    for n_steps in (50, 10, 10, 1000, 7):
        fast = _run_steps(target, *fast[:2], n_steps, scales, fast_rng)
        ref = _reference_run_steps(target, *ref[:2], n_steps, scales, ref_rng)
        assert fast == ref  # state, lp and accepted count, bit for bit
        assert all(type(v) is float for v in fast[0])
        accepted += fast[2]
    assert 0 < accepted < 1077


@pytest.mark.parametrize("reverse_lanes", [False, True])
@pytest.mark.parametrize("batch_len", [1, 7, 49, 50, 51, 120])
def test_sample_lanes_matches_run_chain(batch_len, reverse_lanes):
    # Retained sampling as fit_events runs it: run_lanes from tuned states.
    config = small_config(batches=30, batch_len=batch_len)
    lists, priors, tuned, rngs = [], [], [], []
    for data in lane_events():
        for prior in (HyperPrior.weakly_informative(), INFORMATIVE):
            target = make_log_posterior(data, prior)
            mean, factor = _grid_proposal(data, prior)
            for chain_id in range(2):
                rng = np.random.default_rng(40 + len(rngs))
                init = _draw_init(target, mean, factor, rng)
                lists.append(data)
                priors.append(prior)
                tuned.append(tune_burn_in(target, config, init, factor, rng))
                rngs.append(rng)
    # Lane j runs chain order[j]. Reversed, every chain sits elsewhere in the
    # lane block, and its draws must not depend on where.
    order = range(len(tuned))[::-1] if reverse_lanes else range(len(tuned))
    steps = config.batches * config.batch_len
    # One lane target scores one prior, so each prior's chains run apart.
    for prior in (HyperPrior.weakly_informative(), INFORMATIVE):
        lanes = [i for i in order if priors[i] == prior]
        target = make_lane_log_posterior([lists[i] for i in lanes] * 3, prior)
        starts = np.array([tuned[i].state for i in lanes]).T
        scales = np.array([sampler._scaled(tuned[i].step_scale, tuned[i].factor)
                           for i in lanes]).T
        mu, logN, accepted = run_lanes(target, starts, scales,
                                       [copy.deepcopy(rngs[i]) for i in lanes],
                                       config.batches, config.batch_len)
        assert mu.shape == logN.shape == (len(lanes), config.batches)
        for lane, i in enumerate(lanes):
            chain = run_chain(make_log_posterior(lists[i], prior), config, tuned[i], rngs[i])
            assert np.array_equal(mu[lane], chain.mu)
            assert np.array_equal(logN[lane], chain.logN)
            assert int(accepted[lane]) / steps == chain.accept_rate
            assert 0 < accepted[lane] < steps


def _lane_starts(prior, config):
    """The lane_events' chains, two each, started and scaled as fit_events
    does: (lists, starts, scales, rngs), each stream just past _draw_init."""
    lists, starts, scales, rngs = [], [], [], []
    for data in lane_events():
        target = make_log_posterior(data, prior)
        mean, factor = _grid_proposal(data, prior)
        for chain_id in range(2):
            rng = chain_rng(config.seed, data.event.event_id, chain_id)
            lists.append(data)
            starts.append(_draw_init(target, mean, factor, rng))
            scales.append(sampler._scaled(sampler._START_SCALE, factor))
            rngs.append(rng)
    return lists, np.array(starts).T, np.array(scales).T, rngs


@pytest.mark.parametrize("reverse_lanes", [False, True])
@pytest.mark.parametrize("burn_in_steps", [1, 3, 251])
def test_burn_in_lanes_match_tune_burn_in(burn_in_steps, reverse_lanes):
    # Burn-in is one run_lanes batch: an odd length ends in a lone step, in
    # the last block (251 = 5 x 50 + 1) or in the only one.
    prior = HyperPrior.weakly_informative()
    config = small_config(burn_in_steps=burn_in_steps)
    lists, starts, scales, rngs = _lane_starts(prior, config)
    order = np.arange(len(lists))[::-1] if reverse_lanes else np.arange(len(lists))
    target = make_lane_log_posterior([lists[i] for i in order] * 3, prior)
    mu, logN, accepted = run_lanes(target, starts[:, order], scales[:, order],
                                   [copy.deepcopy(rngs[i]) for i in order], 1, burn_in_steps)
    for lane, i in enumerate(order):
        _, factor = _grid_proposal(lists[i], prior)
        tuned = tune_burn_in(make_log_posterior(lists[i], prior), config,
                             tuple(starts[:, i].tolist()), factor, rngs[i])
        assert (mu[lane, 0], logN[lane, 0]) == tuned.state
        assert int(accepted[lane]) / burn_in_steps == tuned.accept_rate


def test_lanes_match_run_chain_where_most_candidates_leave_the_domain():
    # Lanes started just above w_k and log 2 n_k. Every other lane steps far
    # wider than the posterior, so most candidates fall below w_k or N = 2 n_k,
    # where the lane kernel gives nan or -inf and the one-lane view -inf;
    # the others take narrower steps and are accepted now and then. No
    # candidate outside the domain may ever be accepted, on either step of a pair.
    prior, config = INFORMATIVE, small_config(batches=10, batch_len=7)
    lists = [d for d in lane_events() for _ in range(2)]
    tuned = [TunedState(step_scale=1.0, state=(d.w_k + 0.002, math.log(2.0 * d.n_k) + 0.05),
                        accept_rate=0.0, factor=(2.0, 0.0, 10.0) if i % 2 else (0.2, 0.0, 3.0))
             for i, d in enumerate(lists)]
    rngs = [np.random.default_rng(70 + i) for i in range(len(lists))]
    lane_target = make_lane_log_posterior(lists * 3, prior)
    outside = []

    def target(mu, log_n_pop, out):
        lp = lane_target(mu, log_n_pop, out)
        outside.append(np.mean(~np.isfinite(lp)))
        return lp

    starts = np.array([t.state for t in tuned]).T
    scales = np.array([sampler._scaled(1.0, t.factor) for t in tuned]).T
    mu, logN, accepted = run_lanes(target, starts, scales, [copy.deepcopy(r) for r in rngs],
                                   config.batches, config.batch_len)
    assert np.mean(outside[1:]) > 0.5
    assert accepted[::2].min() > 0
    for lane, data in enumerate(lists):
        chain = run_chain(make_log_posterior(data, prior), config, tuned[lane], rngs[lane])
        assert np.array_equal(mu[lane], chain.mu)
        assert np.array_equal(logN[lane], chain.logN)
        assert int(accepted[lane]) / (config.batches * config.batch_len) == chain.accept_rate
        assert np.all(mu[lane] > data.w_k)


def test_run_lanes_moves_two_steps_per_kernel_call():
    # One call scores the start, then each call scores a pair of steps for
    # every lane: 3 points per lane, a flat array over the lists taken 3 times.
    prior, config = HyperPrior.weakly_informative(), small_config()
    lists, starts, scales, rngs = _lane_starts(prior, config)
    lane_target = make_lane_log_posterior(lists * 3, prior)
    calls = []

    def target(mu, log_n_pop, out):
        calls.append((mu.shape, log_n_pop.shape, out.shape))
        return lane_target(mu, log_n_pop, out)

    run_lanes(target, starts, scales, rngs, 1, 250)
    assert calls == [((3 * len(lists),),) * 3] * (1 + 125)
    calls.clear()
    # Batches of 20 run 3 at a time, 60 steps in blocks of 50 and 10.
    run_lanes(target, starts, scales, rngs, 100, 20)
    assert len(calls) == 1 + 1000


def test_run_lanes_refuses_a_start_off_the_posterior():
    data = synthetic_event()
    target = make_lane_log_posterior([data, data] * 3, INFORMATIVE)
    # the second lane starts below the list's worst mark, where the posterior is 0
    starts = np.array([[float(max(data.marks)) + 0.05, data.w_k - 0.01],
                       [math.log(20_000.0)] * 2])
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    with pytest.raises(ValueError, match="finite log-posterior"):
        run_lanes(target, starts, np.full((3, 2), 0.01), rngs, 1, 10)


def test_burn_in_memory_is_bounded_by_the_block():
    # The draws of a batch are 24 bytes per lane-step (two normals and one
    # uniform); everything built from them is built one block at a time.
    data, prior = synthetic_event(), HyperPrior.weakly_informative()
    config = small_config(burn_in_steps=4000)
    target = make_log_posterior(data, prior)
    mean, factor = _grid_proposal(data, prior)
    rngs = [chain_rng(config.seed, data.event.event_id, c) for c in range(40)]
    starts = np.array([_draw_init(target, mean, factor, rng) for rng in rngs]).T
    scales = np.array([sampler._scaled(sampler._START_SCALE, factor)] * 40).T
    lane_target = make_lane_log_posterior([data] * 120, prior)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        mu, _, _ = run_lanes(lane_target, starts, scales, rngs, 1, config.burn_in_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.shape == (40, 1)
    assert (peak - entry) / (40 * config.burn_in_steps) <= 32.0


# sha256 of the chains that the fit below pools: it moves only with a
# deliberate change to the sampler's draws.
DRAWS_SHA256 = "d408928502eecba187557bfac83158b9b695c5ba7a3124627a1d2c49af835f99"
# sha256 of the fit file itself; it also moves with the fit-file format.
FIT_FILE_SHA256 = "4fa3f8fdba1622caadc99aa8c7a5c884adc58428a582b13dbe602783e2126dc9"


def _reference_chains(data, prior, config, chain_ids=None):
    """The chains the scalar reference samples for data, one at a time:
    chain_rng, then _draw_init, tune_burn_in and run_chain on that stream."""
    target = make_log_posterior(data, prior)
    mean, factor = _grid_proposal(data, prior)
    chains = []
    for chain_id in range(config.chains) if chain_ids is None else chain_ids:
        rng = chain_rng(config.seed, data.event.event_id, chain_id)
        tuned = tune_burn_in(target, config, _draw_init(target, mean, factor, rng), factor, rng)
        chains.append(run_chain(target, config, tuned, rng, chain_id=chain_id))
    return chains


def _assert_pools(fit, chains):
    """fit holds the pool of these chains and their summaries, bit for bit."""
    mu, logN = _pool_draws([c.mu for c in chains], [c.logN for c in chains],
                           fit.meta.config.pool_size)
    assert np.array_equal(fit.pooled_mu.view(np.uint64), mu.view(np.uint64))
    assert np.array_equal(fit.pooled_logN.view(np.uint64), logN.view(np.uint64))
    assert fit.meta.chains == tuple(
        ChainSummary(chain_id=c.chain_id, accept_rate=c.accept_rate, step_scale=c.step_scale)
        for c in chains)


def _draws_digest(chains, n_k, w_k):
    digest = hashlib.sha256()
    for chain in chains:
        digest.update(np.array(chain.chain_id, dtype="<i8").tobytes())
        # sigma as the sampler once stored it per chain, by the identity
        sigma = tail_mass_sigma(chain.mu, chain.logN, n_k, w_k)
        for draws in (chain.mu, chain.logN, sigma):
            digest.update(np.asarray(draws, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_fit_event_bytes_are_frozen():
    # dated inside one calendar year, so the list, and the file, span 1.0
    data, config = synthetic_event(first_year=2020), small_config()
    assert data.t_m == 1.0
    fit = fit_event(data, INFORMATIVE, config)
    chains = _reference_chains(data, INFORMATIVE, config)
    assert _draws_digest(chains, data.n_k, data.w_k) == DRAWS_SHA256
    text = fitfile.dumps(fit)
    for pooled in (fit, fitfile.loads(text)):
        _assert_pools(pooled, chains)
    assert fit.mpsrf == gelman_rubin_mpsrf([np.column_stack((c.mu, c.logN)) for c in chains])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FIT_FILE_SHA256


def test_pooled_sigma_is_the_identity_over_the_pooled_draws():
    data, config = synthetic_event(), small_config()
    fit = fit_event(data, INFORMATIVE, config)
    assert fit.pooled_size == config.pool_size < config.chains * config.batches
    want = tail_mass_sigma(fit.pooled_mu, fit.pooled_logN, data.n_k, data.w_k)
    assert np.array_equal(fit.pooled_sigma, want)


def test_reloaded_fit_pools_the_same_draws():
    fit = fit_event(synthetic_event(), INFORMATIVE, small_config())
    back = fitfile.loads(fitfile.dumps(fit))
    for name in ("pooled_mu", "pooled_logN", "pooled_sigma"):
        assert np.array_equal(getattr(back, name), getattr(fit, name)), name


def test_adjacent_base_seeds_share_no_chain():
    # Seeds s and s ^ 1 once gave one event the same chains in another order.
    data = synthetic_event()
    for seed in (8, 11):
        pair = []
        for config in (small_config(seed=seed, batches=20), small_config(seed=seed ^ 1, batches=20)):
            chains = _reference_chains(data, INFORMATIVE, config)
            _assert_pools(fit_event(data, INFORMATIVE, config), chains)
            pair.append(chains)
        for chain_a in pair[0]:
            for chain_b in pair[1]:
                assert not np.array_equal(chain_a.mu, chain_b.mu)
                assert not np.array_equal(chain_a.logN, chain_b.logN)


def test_chain_streams_share_no_first_draw():
    firsts = [chain_rng(seed, "mens100m", chain_id).random()
              for seed in range(16) for chain_id in range(10)]
    assert len(set(firsts)) == len(firsts)


def test_fit_events_draws_each_chain_from_its_stream():
    # Chain c of an event starts where _draw_init, fed chain_rng(seed, id, c),
    # puts it, whatever other events are fitted alongside. The pool holds
    # every draw of these 3 chains of 20.
    data, other = synthetic_event(), synthetic_event(seed=61, keep=25)
    config = small_config(batches=20)
    fit = fit_events([other, data], INFORMATIVE, config)[0][data.event.event_id]
    assert fit.pooled_size == config.chains * config.batches
    _assert_pools(fit, _reference_chains(data, INFORMATIVE, config))


def test_fit_events_burns_in_once_then_samples(monkeypatch):
    # Two run_lanes calls over every chain: burn-in, one batch of
    # burn_in_steps, then retained sampling. Each chain's stream ends where
    # the scalar _draw_init, tune_burn_in and run_chain leave it, also for
    # the chains of a 3-mark list, whose acceptance rates stray furthest.
    tiny = tail_performance_list(EventSpec.running("tiny60"),
                                 sample_tail(60, MU_STAR, SIGMA_STAR, 20_000, 3),
                                 2001, 2020, seed=61)
    lists, prior = [*lane_events(), tiny], HyperPrior.weakly_informative()
    config = small_config(batches=20)
    calls, streams = [], {}

    def counted_run_lanes(target, starts, scales, rngs, batches, batch_len):
        calls.append((len(rngs), batches, batch_len))
        return run_lanes(target, starts, scales, rngs, batches, batch_len)

    def kept_chain_rng(seed, event_id, chain_id):
        streams[event_id, chain_id] = chain_rng(seed, event_id, chain_id)
        return streams[event_id, chain_id]

    monkeypatch.setattr(sampler, "run_lanes", counted_run_lanes)
    monkeypatch.setattr(sampler, "chain_rng", kept_chain_rng)
    fits, failures = fit_events(lists, prior, config)
    assert not failures
    lanes = len(lists) * config.chains
    assert calls == [(lanes, 1, config.burn_in_steps),
                     (lanes, config.batches, config.batch_len)]
    for data in lists:
        target = make_log_posterior(data, prior)
        mean, factor = _grid_proposal(data, prior)
        chains = []
        for chain_id in range(config.chains):
            rng = chain_rng(config.seed, data.event.event_id, chain_id)
            tuned = tune_burn_in(target, config, _draw_init(target, mean, factor, rng), factor, rng)
            chains.append(run_chain(target, config, tuned, rng, chain_id=chain_id))
            got = streams[data.event.event_id, chain_id].bit_generator.state
            assert got == rng.bit_generator.state
        _assert_pools(fits[data.event.event_id], chains)


def test_fit_events_keeps_an_event_that_lost_fewer_than_half_its_chains(monkeypatch):
    # Of 6 chains, `kept` loses 2 and is fitted; `lost` loses half and fails.
    # Each chain is named by its stream, chain_rng(seed, event id, chain id).
    kept, lost = synthetic_event(), synthetic_event(seed=61, keep=25)
    no_init = {(kept.event.event_id, 1), (kept.event.event_id, 3),
               (lost.event.event_id, 0), (lost.event.event_id, 1), (lost.event.event_id, 4)}
    crc_ids = {zlib.crc32(d.event.event_id.encode("utf-8")): d.event.event_id for d in (kept, lost)}

    def draw_init(target, mean, factor, rng):
        _, crc, chain_id = rng.bit_generator.seed_seq.entropy
        if (crc_ids[crc], chain_id) in no_init:
            return None
        return _draw_init(target, mean, factor, rng)

    # 4 surviving chains of 20 draws pool to 30: blocks of 8, 7, 8 and 7 draws
    config = small_config(chains=6, batches=20, pool_size=30)
    survivors = _reference_chains(kept, INFORMATIVE, config, chain_ids=(0, 2, 4, 5))
    monkeypatch.setattr(sampler, "_draw_init", draw_init)
    fits, failures = fit_events([kept, lost], INFORMATIVE, config)
    assert failures == {lost.event.event_id: f"{lost.event.event_id}: 3 of 6 chains failed"}
    fit = fits[kept.event.event_id]
    assert fit.meta.failed_chains == (1, 3)
    assert fit.meta.notes == tuple(f"chain {c}: no finite-posterior initialization found"
                                   for c in (1, 3))
    assert fitfile.dumps(fit) == fitfile.dumps(fit_event(kept, INFORMATIVE, config))
    assert [c.chain_id for c in fit.meta.chains] == [0, 2, 4, 5]
    _assert_pools(fit, survivors)


def test_fit_events_names_an_event_whose_every_chain_found_no_initialization(monkeypatch):
    # An event that lost every chain reads like one that lost half of them.
    kept, lost = synthetic_event(), synthetic_event(seed=61, keep=25)
    config = small_config(batches=20)
    fail_every_init(monkeypatch, lost.event.event_id)
    fits, failures = fit_events([lost, kept], INFORMATIVE, config)
    assert failures == {lost.event.event_id: f"{lost.event.event_id}: 3 of 3 chains failed"}
    assert list(fits) == [kept.event.event_id]


def test_run_chain_deterministic():
    config = small_config()
    tuned = tune_burn_in(std_normal_2d, config, (0.0, 0.0), IDENTITY, np.random.default_rng(5))
    a = run_chain(std_normal_2d, config, tuned, np.random.default_rng(7))
    b = run_chain(std_normal_2d, config, tuned, np.random.default_rng(7))
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.logN, b.logN)
    assert a.accept_rate == b.accept_rate
    assert len(a.mu) == config.batches


def _reference_mpsrf(arrays):
    n = len(arrays[0])
    m = len(arrays)
    means = np.array([a.mean(axis=0) for a in arrays])
    within = sum(np.cov(a, rowvar=False, ddof=1) for a in arrays) / m
    between_over_n = np.cov(means, rowvar=False, ddof=1)
    lam = np.max(np.linalg.eigvals(np.linalg.solve(within, between_over_n)).real)
    return math.sqrt((n - 1) / n + (m + 1) / m * max(lam, 0.0))


def test_mpsrf_matches_reference():
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(300, 2)) for _ in range(4)]
    assert gelman_rubin_mpsrf(arrays) == pytest.approx(_reference_mpsrf(arrays), rel=1e-12)


def test_mpsrf_identical_distributions_small():
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=(500, 2)) for _ in range(5)]
    assert gelman_rubin_mpsrf(arrays) < 1.05


def test_mpsrf_separated_chains_large():
    rng = np.random.default_rng(2)
    a = rng.normal(-10.0, 0.01, size=(200, 2))
    b = rng.normal(10.0, 0.01, size=(200, 2))
    assert gelman_rubin_mpsrf([a, b]) > 10.0


def test_mpsrf_constant_chains_sentinel():
    a = np.zeros((50, 2))
    b = np.zeros((50, 2))
    assert gelman_rubin_mpsrf([a, b]) == math.inf


def test_mpsrf_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gelman_rubin_mpsrf([rng.normal(size=(100, 2))])
    with pytest.raises(ValueError):
        gelman_rubin_mpsrf([rng.normal(size=(5, 2)), rng.normal(size=(5, 2))])
    with pytest.raises(ValueError):
        gelman_rubin_mpsrf([rng.normal(size=(100, 2)), rng.normal(size=(60, 2))])


def test_mpsrf_repeated_seeds_mostly_converged():
    # 20 independent repetitions of 4 same-distribution chains
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(100 + rep)
        arrays = [rng.normal(size=(250, 2)) for _ in range(4)]
        if gelman_rubin_mpsrf(arrays) < 1.1:
            hits += 1
    assert hits >= 19


def test_fit_event_structure_and_determinism():
    data = synthetic_event()
    config = small_config()
    fit = fit_event(data, INFORMATIVE, config)
    assert fit.event_id == data.event.event_id
    assert [c.chain_id for c in fit.meta.chains] == list(range(config.chains))
    assert fit.pooled_size == config.pool_size
    assert len(fit.pooled_mu) == len(fit.pooled_logN) == len(fit.pooled_sigma)
    assert np.all(np.isfinite(fit.pooled_sigma)) and np.all(fit.pooled_sigma > 0)
    assert np.all(np.exp(fit.pooled_logN) > data.n_k)
    for chain in fit.meta.chains:
        assert 0.15 <= chain.accept_rate <= 0.45
    assert fit.meta.t_m == data.t_m
    assert fit.meta.n_k == data.n_k
    assert fit.meta.prior is INFORMATIVE

    again = fit_event(data, INFORMATIVE, config)
    assert np.array_equal(fit.pooled_mu, again.pooled_mu)
    assert np.array_equal(fit.pooled_logN, again.pooled_logN)
    assert fit.mpsrf == again.mpsrf


def test_fit_event_recovers_mu():
    data = synthetic_event(seed=77)
    fit = fit_event(data, INFORMATIVE, small_config(chains=4))
    mu_hat = float(np.mean(fit.pooled_mu))
    sd = float(np.std(fit.pooled_mu))
    assert abs(mu_hat - MU_STAR) <= 3.0 * sd


def test_fit_event_tiny_list_completes():
    # ten marks, the women's-mile-sized degenerate case: must not crash
    spec = EventSpec.running("tiny")
    tail = sample_tail(3, MU_STAR, SIGMA_STAR, 2_000, 10)
    data = tail_performance_list(spec, tail, 2007, 2011, seed=4)
    fit = fit_event(data, INFORMATIVE, small_config())
    assert fit.pooled_size > 0
    assert np.all(np.isfinite(fit.pooled_mu))


def test_fit_event_needs_two_chains():
    data = synthetic_event()
    with pytest.raises(ValueError):
        fit_event(data, INFORMATIVE, small_config(chains=1))


def test_fit_event_all_chains_failing(monkeypatch):
    data = synthetic_event()
    fail_every_init(monkeypatch, data.event.event_id)
    with pytest.raises(FitFailed, match="3 of 3 chains failed"):
        fit_event(data, INFORMATIVE, small_config())


def test_derive_t_m():
    spec = EventSpec.running("span")
    tail = sample_tail(9, MU_STAR, SIGMA_STAR, 5_000, 50)
    data = tail_performance_list(spec, tail, 2010, 2020, seed=10)
    # no window: the list's record-date span
    assert data.window is None
    dates = [r.date for r in data.records]
    span = (max(dates) - min(dates)).days / 365.25
    assert fit_event(data, INFORMATIVE, small_config()).meta.t_m == data.t_m == span > 1.0
    # dated inside one calendar year: the span floors to one year
    within = tail_performance_list(spec, tail, 2015, 2015, seed=10)
    assert fit_event(within, INFORMATIVE, small_config()).meta.t_m == within.t_m == 1.0
    # a bounded ingestion window wins with its whole years, the 5.0 that
    # `tailcast fit --mode five-years` records in its manifest
    five = build_performance_list(spec, list(data.records), window=DateWindow.years_before(2019, 5))
    assert fit_event(five, INFORMATIVE, small_config()).meta.t_m == 5.0


def test_pool_draws_stride():
    mu = np.arange(1200, dtype=float).reshape(2, 600)  # two chains of 600
    pooled_mu, pooled_logN = _pool_draws(mu, mu + 1000.0, 400)
    assert len(pooled_mu) == 400
    assert pooled_mu[0] == 0.0
    assert np.all(np.diff(pooled_mu) > 0)
    assert np.array_equal(pooled_logN, pooled_mu + 1000.0)

    mu2, _ = _pool_draws([np.arange(100, dtype=float)], [np.zeros(100)], 400)
    assert np.array_equal(mu2, np.arange(100, dtype=float))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(batches=0)
    # the convergence diagnostic needs two chains of ten retained draws
    with pytest.raises(ValueError, match="chains"):
        SamplerConfig(chains=1)
    with pytest.raises(ValueError, match="batches"):
        SamplerConfig(batches=9)
    assert SamplerConfig(batches=10).batches == 10
    # burn-in is one round at a fixed scale, so any positive length will do
    assert SamplerConfig(burn_in_steps=1).burn_in_steps == 1
    with pytest.raises(ValueError, match="burn_in_steps must be positive"):
        SamplerConfig(burn_in_steps=0)
    # chain streams are SeedSequence hashes, which take no negative seed
    with pytest.raises(ValueError, match="seed"):
        SamplerConfig(seed=-1)
    # nor any setting too large for a float, which a fit file cannot hold
    largest = int(sys.float_info.max)
    for name in ("burn_in_steps", "batches", "batch_len", "chains", "seed", "pool_size"):
        with pytest.raises(ValueError, match=f"{name} of 309 digits is too large for a float"):
            SamplerConfig(**{name: largest + 1})
    assert SamplerConfig(seed=largest).seed == largest
