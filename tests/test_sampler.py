"""Metropolis-Hastings machinery: tuning, sampling, diagnostics, fitting."""
import copy
import hashlib
import math

import numpy as np
import pytest

from tailcast import fitfile
from tailcast.distcore import make_lane_log_posterior, make_log_posterior
from tailcast.emprior import HyperPrior, Provenance
from tailcast.ingest import EventSpec
from tailcast.sampler import (
    FitFailed,
    SamplerConfig,
    TunedState,
    TuningFailed,
    fit_event,
    gelman_rubin_mpsrf,
    run_chain,
    sample_lanes,
    tune_burn_in,
    _derive_t_m,
    _draw_init,
    _pool_draws,
    _run_steps,
)
from tailcast.synth import sample_tail, tail_performance_list

from conftest import lane_events

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033


def std_normal_2d(theta):
    x, y = theta
    return -0.5 * (x * x + y * y)


def small_config(**kw):
    base = dict(
        burn_in_steps=400, batches=200, batch_len=10, chains=3,
        pool_size=400, seed=11, max_retunes=25,
    )
    base.update(kw)
    return SamplerConfig(**base)


def synthetic_event(seed=55, keep=400, population=20_000):
    spec = EventSpec.running(f"syn{seed}")
    tail = sample_tail(seed, MU_STAR, SIGMA_STAR, population, keep)
    return tail_performance_list(spec, tail, 2001, 2020, seed=seed + 1)


INFORMATIVE = HyperPrior(
    mu_N=math.log(20_000.0), sigma2_N=0.25, provenance=Provenance.EMPIRICAL
)


def test_tuner_reaches_band():
    config = small_config(burn_in_steps=1000)
    tuned = tune_burn_in(std_normal_2d, config, (0.0, 0.0), np.random.default_rng(1))
    assert config.accept_lo <= tuned.accept_rate <= config.accept_hi
    assert tuned.step_scale > config.step_scale  # had to grow from 0.001
    assert math.isfinite(std_normal_2d(tuned.state))


def test_tuner_keeps_already_good_scale():
    config = small_config(burn_in_steps=1000)
    first = tune_burn_in(std_normal_2d, config, (0.0, 0.0), np.random.default_rng(1))
    retuned = tune_burn_in(
        std_normal_2d,
        SamplerConfig(**{**config.__dict__, "step_scale": first.step_scale}),
        (0.0, 0.0),
        np.random.default_rng(2),
    )
    assert retuned.step_scale == first.step_scale


def test_tuner_gives_up():
    def spike(theta):
        return 0.0 if theta == (0.0, 0.0) else -math.inf

    config = small_config(max_retunes=3, burn_in_steps=100)
    with pytest.raises(TuningFailed) as err:
        tune_burn_in(spike, config, (0.0, 0.0), np.random.default_rng(0))
    assert err.value.last_rate == 0.0


def test_tuner_rejects_bad_init():
    with pytest.raises(ValueError):
        tune_burn_in(std_normal_2d, small_config(), (math.nan, 0.0))


def test_run_chain_zero_scale_degenerate():
    config = small_config(batches=20, batch_len=5)
    tuned = TunedState(step_scale=0.0, state=(0.7, -0.2), accept_rate=0.3)
    chain = run_chain(std_normal_2d, config, tuned, np.random.default_rng(3))
    assert chain.accept_rate == 1.0
    assert np.all(chain.mu == 0.7)
    assert np.all(chain.logN == -0.2)


def _reference_run_steps(target, state, lp, n_steps, scales, rng):
    """The straightforward numpy-indexing step loop that _run_steps must
    reproduce bit for bit."""
    incs = rng.standard_normal((n_steps, 2))
    incs[:, 0] *= scales[0]
    incs[:, 1] *= scales[1]
    log_us = np.log(rng.random(n_steps))
    mu, y = state
    accepted = 0
    for k in range(n_steps):
        cand = (mu + incs[k, 0], y + incs[k, 1])
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
        scales = (0.01, 0.05)
    else:
        target, state, scales = std_normal_2d, (0.3, -0.4), (1.5, 0.7)
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


@pytest.mark.parametrize("with_cut", [False, True])
@pytest.mark.parametrize("batch_len", [1, 7, 50])
def test_sample_lanes_matches_run_chain(batch_len, with_cut):
    config = small_config(batches=30, batch_len=batch_len)
    lists, priors, tuned, rngs = [], [], [], []
    for data in lane_events(with_cut):
        for prior in (HyperPrior.weakly_informative(), INFORMATIVE):
            target = make_log_posterior(data, prior)
            for chain_id in range(2):
                rng = np.random.default_rng(40 + len(rngs))
                init = _draw_init(target, data, prior, rng)
                lists.append(data)
                priors.append(prior)
                tuned.append(tune_burn_in(target, config, init, rng))
                rngs.append(rng)
    mu, logN, accepted = sample_lanes(make_lane_log_posterior(lists, priors), config,
                                      tuned, [copy.deepcopy(rng) for rng in rngs])
    steps = config.batches * config.batch_len
    assert mu.shape == logN.shape == (len(tuned), config.batches)
    for i, (data, prior) in enumerate(zip(lists, priors)):
        chain = run_chain(make_log_posterior(data, prior), config, tuned[i], rngs[i])
        assert np.array_equal(mu[i], chain.mu)
        assert np.array_equal(logN[i], chain.logN)
        assert int(accepted[i]) / steps == chain.accept_rate
        assert 0 < accepted[i] < steps


# sha256 of the fit file below; it moves only with a deliberate change to
# the sampler's draws or to the fit-file format, which must then say so.
FIT_FILE_SHA256 = "0dac49016416c66ff20e1004ae42dd5ed0cb3992cdaddb0762732e7b6c4e5b73"


def test_fit_event_bytes_are_frozen():
    fit = fit_event(synthetic_event(), INFORMATIVE, small_config(), t_m=1.0)
    digest = hashlib.sha256(fitfile.dumps(fit).encode("utf-8")).hexdigest()
    assert digest == FIT_FILE_SHA256


def test_run_chain_deterministic():
    config = small_config()
    tuned = tune_burn_in(std_normal_2d, config, (0.0, 0.0), np.random.default_rng(5))
    a = run_chain(std_normal_2d, config, tuned, np.random.default_rng(7))
    b = run_chain(std_normal_2d, config, tuned, np.random.default_rng(7))
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.logN, b.logN)
    assert a.accept_rate == b.accept_rate
    assert len(a) == config.batches


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
    fit = fit_event(data, INFORMATIVE, config, t_m=1.0)
    assert fit.event_id == data.event.event_id
    assert len(fit.chains) == config.chains
    assert fit.pooled_size <= config.pool_size
    assert len(fit.pooled_mu) == len(fit.pooled_logN) == len(fit.pooled_sigma)
    assert np.all(np.isfinite(fit.pooled_sigma)) and np.all(fit.pooled_sigma > 0)
    assert np.all(np.exp(fit.pooled_logN) > data.n_k)
    for chain in fit.chains:
        assert 0.15 <= chain.accept_rate <= 0.45
        assert chain.sigma is not None and len(chain.sigma) == len(chain)
    assert fit.meta.t_m == 1.0
    assert fit.meta.n_k == data.n_k
    assert fit.meta.prior is INFORMATIVE

    again = fit_event(data, INFORMATIVE, config, t_m=1.0)
    assert np.array_equal(fit.pooled_mu, again.pooled_mu)
    assert np.array_equal(fit.pooled_logN, again.pooled_logN)
    assert fit.mpsrf == again.mpsrf


def test_fit_event_recovers_mu():
    data = synthetic_event(seed=77)
    fit = fit_event(data, INFORMATIVE, small_config(chains=4), t_m=1.0)
    mu_hat = float(np.mean(fit.pooled_mu))
    sd = float(np.std(fit.pooled_mu))
    assert abs(mu_hat - MU_STAR) <= 3.0 * sd


def test_fit_event_tiny_list_completes():
    # ten marks, the women's-mile-sized degenerate case: must not crash
    spec = EventSpec.running("tiny")
    tail = sample_tail(3, MU_STAR, SIGMA_STAR, 2_000, 10)
    data = tail_performance_list(spec, tail, 2007, 2011, seed=4)
    fit = fit_event(data, INFORMATIVE, small_config(), t_m=5.0)
    assert fit.pooled_size > 0
    assert np.all(np.isfinite(fit.pooled_mu))


def test_fit_event_needs_two_chains():
    data = synthetic_event()
    with pytest.raises(ValueError):
        fit_event(data, INFORMATIVE, small_config(chains=1))


def test_fit_event_all_chains_failing():
    data = synthetic_event()
    config = small_config(max_retunes=0, step_scale=1e9)
    with pytest.raises(FitFailed):
        fit_event(data, INFORMATIVE, config, t_m=1.0)


def test_derive_t_m():
    spec = EventSpec.running("span")
    tail = sample_tail(9, MU_STAR, SIGMA_STAR, 5_000, 50)
    data = tail_performance_list(spec, tail, 2001, 2010, seed=10)
    # bounded ingestion window wins
    assert data.window is None
    derived = _derive_t_m(data)
    assert derived == pytest.approx(data.span_years())
    assert derived >= 1.0


def test_pool_draws_stride():
    class Stub:
        def __init__(self, lo, hi):
            self.mu = np.arange(lo, hi, dtype=float)
            self.logN = self.mu + 1000.0
            self.sigma = self.mu + 2000.0

    mu, logN, sigma = _pool_draws([Stub(0, 600), Stub(600, 1200)], 400)
    assert len(mu) == 400
    assert mu[0] == 0.0
    assert np.all(np.diff(mu) > 0)
    assert np.array_equal(logN, mu + 1000.0)
    assert np.array_equal(sigma, mu + 2000.0)

    mu2, _, _ = _pool_draws([Stub(0, 100)], 400)
    assert np.array_equal(mu2, np.arange(100, dtype=float))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(accept_lo=0.5, accept_hi=0.4)
    with pytest.raises(ValueError):
        SamplerConfig(batches=0)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplerConfig(step_scale=bad)
