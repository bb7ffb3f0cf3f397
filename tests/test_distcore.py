"""Numeric-kernel tests: cdf/quantile accuracy, the tail-mass
reparametrization, and both log-posterior routes."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from tailcast.distcore import (
    NormalParams,
    PopulationParams,
    ReparamOutOfDomain,
    exceedance_prob,
    gaussian_logpdf,
    log_posterior,
    log_std_normal_cdf,
    make_log_posterior,
    population_from_sigma,
    sigma_from_population,
    std_normal_cdf,
    std_normal_quantile,
    tail_mass_sigma,
    truncnorm_logpdf,
)
from tailcast.emprior import HyperPrior

# Reference values, frozen from high-precision evaluation (mpmath at 50
# digits); they are independent of the scipy.special routines under test.
PHI_MINUS_2 = 0.02275013194817922
Q_975 = 1.9599639845400532
Q_1E10 = -6.3613409024040575
Q_125 = -1.1503493803760083
LOG_2_PHI0 = -0.22579135264472738  # log(2 * N(0 | 0, 1))
LOG_PHI = {
    3.5: -0.00023265614137680455,
    4.5: -3.397678896834466e-06,
    4.99: -3.01896508091595e-07,
    5.5: -1.8989562646189464e-08,
    -5.0: -15.064998393988725,
    -37.5: -707.6689893175072,
}


def test_cdf_reference_points():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-2.0) == pytest.approx(PHI_MINUS_2, abs=1e-15)
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert std_normal_cdf(-8.0) < 1e-14
    assert std_normal_cdf(-40.0) == 0.0
    assert std_normal_cdf(40.0) == 1.0


def test_cdf_array_matches_scalar():
    zs = np.linspace(-10.0, 10.0, 401)
    arr = std_normal_cdf(zs)
    assert arr.shape == zs.shape
    for z, v in zip(zs[::40], arr[::40]):
        assert v == pytest.approx(std_normal_cdf(float(z)), rel=1e-12)
    assert np.all(np.diff(arr) >= 0.0)


@given(st.floats(-8.0, 8.0))
def test_cdf_symmetry(z):
    assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-13)


def test_log_cdf_reference_points():
    # Upper tail: Phi rounds to within a few ulps of one, so log Phi keeps full
    # relative accuracy only if it is not taken as the log of Phi itself.
    for z, want in LOG_PHI.items():
        assert log_std_normal_cdf(z) == pytest.approx(want, rel=1e-13, abs=0.0)
    zs = np.array(list(LOG_PHI))
    assert log_std_normal_cdf(zs) == pytest.approx(list(LOG_PHI.values()), rel=1e-13, abs=0.0)


def test_log_cdf_survives_deep_tail():
    # Phi itself underflows near z = -39; the log form must not.
    val = log_std_normal_cdf(-100.0)
    assert math.isfinite(val)
    assert val == pytest.approx(float(special.log_ndtr(-100.0)), rel=1e-12)


def test_quantile_reference_points():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(Q_975, abs=1e-9)
    assert std_normal_quantile(1e-10) == pytest.approx(Q_1E10, abs=1e-8)
    assert std_normal_quantile(0.125) == pytest.approx(Q_125, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.7])
def test_quantile_domain(p):
    with pytest.raises(ValueError):
        std_normal_quantile(p)
    with pytest.raises(ValueError):
        std_normal_quantile(np.array([0.5, p]))


def test_quantile_array_shape():
    ps = np.array([[0.1, 0.5], [0.9, 0.99]])
    qs = std_normal_quantile(ps)
    assert qs.shape == ps.shape
    assert qs[0, 1] == 0.0


def test_cdf_quantile_roundtrip_grid():
    # |Phi(q(p)) - p| < 1e-10 across [1e-15, 1 - 1e-15]
    ps = np.concatenate([
        np.geomspace(1e-15, 0.4, 60),
        np.linspace(0.4, 0.6, 11),
        1.0 - np.geomspace(1e-15, 0.4, 60),
    ])
    for p in ps:
        assert abs(std_normal_cdf(std_normal_quantile(float(p))) - p) < 1e-10


@given(st.floats(-8.0, 5.5))
@settings(max_examples=200)
def test_quantile_cdf_roundtrip(z):
    assert std_normal_quantile(std_normal_cdf(z)) == pytest.approx(z, abs=1e-8)


def test_quantile_cdf_roundtrip_upper_tail():
    # Above z ~ 5.7, Phi(z) sits within a few ulps of 1.0, so z itself is no
    # longer recoverable from a double; the probability-space contract still
    # holds exactly there.
    for z in (5.5, 6.0, 7.0, 8.0):
        p = std_normal_cdf(z)
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-10


def test_exceedance_prob():
    params = NormalParams(mu=2.0, sigma2=4.0)
    assert exceedance_prob(2.0, params) == 0.5
    assert exceedance_prob(2.0 - 2.0 * 2.0, params) == pytest.approx(PHI_MINUS_2, abs=1e-15)
    assert exceedance_prob(-1e6, params) == 0.0
    grid = np.linspace(-4.0, 8.0, 100)
    vals = [exceedance_prob(float(a), params) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_normal_params_validation():
    with pytest.raises(ValueError):
        NormalParams(mu=0.0, sigma2=0.0)
    with pytest.raises(ValueError):
        NormalParams(mu=0.0, sigma2=-1.0)


def test_truncnorm_recovers_untruncated():
    params = NormalParams(mu=1.3, sigma2=0.49)
    for x in (-0.5, 1.0, 1.3):
        full = gaussian_logpdf(x, 1.3, 0.49)
        assert truncnorm_logpdf(x, params, math.inf) == pytest.approx(full, abs=1e-12)


def test_truncnorm_at_mean_cutoff():
    params = NormalParams(mu=0.0, sigma2=1.0)
    assert truncnorm_logpdf(0.0, params, 0.0) == pytest.approx(LOG_2_PHI0, abs=1e-13)
    assert truncnorm_logpdf(0.1, params, 0.0) == -math.inf


def test_truncnorm_normalization_quadrature():
    cases = [
        (0.0, 1.0, 0.0),
        (2.423, 0.033, 2.36),
        (-3.0, 0.5, -4.1),
        (10.0, 4.0, 22.0),
    ]
    for mu, sigma, c in cases:
        params = NormalParams(mu=mu, sigma2=sigma * sigma)
        lo = min(mu, c) - 12.0 * sigma
        total, err = integrate.quad(
            lambda x: math.exp(truncnorm_logpdf(x, params, c)),
            lo, c, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_sigma_from_population_exact_identity():
    # With tail fraction exactly Phi(-2) the identity gives sigma = (mu - w)/2.
    q = std_normal_cdf(-2.0)
    p = PopulationParams(mu=0.0, N=91.0 / q, n_k=91, w_k=-2.0, t_m=1.0)
    assert sigma_from_population(p) == pytest.approx(1.0, abs=1e-9)
    p2 = PopulationParams(mu=5.0, N=10.0 / q, n_k=10, w_k=4.0, t_m=1.0)
    assert sigma_from_population(p2) == pytest.approx(0.5, abs=1e-9)


def test_tail_mass_sigma_matches_scalar_identity():
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.5, 3.0, 50)
    log_n_pop = rng.uniform(math.log(250.0), 20.0, 50)
    sigma = tail_mass_sigma(mu, log_n_pop, 100, 0.2)
    for m, y, s in zip(mu, log_n_pop, sigma):
        p = PopulationParams(mu=float(m), N=math.exp(y), n_k=100, w_k=0.2, t_m=1.0)
        assert s == pytest.approx(sigma_from_population(p), rel=1e-12)


def test_reparam_domain_errors():
    with pytest.raises(ReparamOutOfDomain):
        sigma_from_population(PopulationParams(mu=0.0, N=10.0, n_k=5, w_k=-1.0, t_m=1.0))
    with pytest.raises(ReparamOutOfDomain):
        sigma_from_population(PopulationParams(mu=0.0, N=100.0, n_k=5, w_k=0.5, t_m=1.0))
    with pytest.raises(ValueError):
        PopulationParams(mu=0.0, N=5.0, n_k=5, w_k=-1.0, t_m=1.0)


@given(
    mu=st.floats(-5.0, 5.0),
    log_q=st.floats(math.log(1e-9), math.log(0.45)),
    n_k=st.integers(1, 2000),
    gap=st.floats(0.01, 6.0),
)
@settings(max_examples=300)
def test_population_sigma_inverse_pair(mu, log_q, n_k, gap):
    q = math.exp(log_q)
    p = PopulationParams(mu=mu, N=n_k / q, n_k=n_k, w_k=mu - gap, t_m=1.0)
    sigma = sigma_from_population(p)
    assert sigma > 0.0
    back = population_from_sigma(mu, sigma, n_k, mu - gap)
    assert back == pytest.approx(p.N, rel=1e-6)
    # Eq-4-style identity in the other direction
    assert std_normal_cdf((p.w_k - mu) / sigma) * p.N == pytest.approx(n_k, rel=1e-6)


def _toy_data(marks, c_k=None):
    marks = tuple(marks)
    return SimpleNamespace(marks=marks, n_k=len(marks), c_k=max(marks) if c_k is None else c_k)


WEAK = HyperPrior.weakly_informative()


def test_log_posterior_domain_walls():
    data = _toy_data([-0.1, -0.05, 0.0])
    assert log_posterior((1.0, math.log(2.0)), data, WEAK) == -math.inf  # N <= n_k
    assert log_posterior((1.0, 701.0), data, WEAK) == -math.inf
    assert log_posterior((1.0, -701.0), data, WEAK) == -math.inf
    assert log_posterior((-2.0, math.log(1000.0)), data, WEAK) == -math.inf  # w_k >= mu
    assert math.isfinite(log_posterior((1.0, math.log(1000.0)), data, WEAK))


def test_log_posterior_permutation_invariant():
    rng = np.random.default_rng(4)
    marks = list(rng.normal(0.0, 0.2, 40))
    data = _toy_data(marks)
    theta = (0.8, math.log(5000.0))
    base = log_posterior(theta, data, WEAK)
    shuffled = list(marks)
    rng.shuffle(shuffled)
    assert log_posterior(theta, _toy_data(shuffled, c_k=data.c_k), WEAK) == base


def test_log_posterior_single_point_near_boundary():
    # One mark at x = c_k with mu a hair above it and N chosen so sigma = 1:
    # the data term approaches log(2 * N(0|0,1)) as the gap closes.
    delta = 1e-6
    q = std_normal_cdf(-delta)
    data = _toy_data([0.0])
    theta = (delta, math.log(1.0 / q))
    prior_term = gaussian_logpdf(theta[1], WEAK.mu_N, WEAK.sigma2_N)
    value = log_posterior(theta, data, WEAK)
    assert value - prior_term == pytest.approx(LOG_2_PHI0, abs=1e-5)


def test_log_posterior_doubling_data():
    marks = [-0.3, -0.1, 0.0, 0.05]
    data = _toy_data(marks)
    doubled = _toy_data(marks * 2)
    mu, n_pop = 0.9, 3000.0
    lp1 = log_posterior((mu, math.log(n_pop)), data, WEAK)
    lp2 = log_posterior((mu, math.log(2.0 * n_pop)), doubled, WEAK)
    term1 = lp1 - gaussian_logpdf(math.log(n_pop), WEAK.mu_N, WEAK.sigma2_N)
    term2 = lp2 - gaussian_logpdf(math.log(2.0 * n_pop), WEAK.mu_N, WEAK.sigma2_N)
    assert term2 == pytest.approx(2.0 * term1, rel=1e-12)


@given(
    mu=st.floats(-1.0, 4.0),
    y=st.floats(1.0, 30.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150)
def test_log_posterior_two_routes_agree(mu, y, seed):
    rng = np.random.default_rng(seed)
    marks = np.sort(rng.normal(0.0, 0.5, 25))
    data = _toy_data(marks.tolist())
    prior = HyperPrior(mu_N=8.0, sigma2_N=4.0, provenance=WEAK.provenance)
    reference = log_posterior((mu, y), data, prior)
    fast = make_log_posterior(data, prior)((mu, y))
    if math.isinf(reference):
        assert math.isinf(fast) and fast < 0
    else:
        assert fast == pytest.approx(reference, rel=1e-9, abs=1e-9)
