"""Numeric-kernel tests: cdf accuracy, the tail-mass identity, and the
log-posterior kernel and its one-lane view, checked against the reference
route in oracles.py."""
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy import stats as scipy_stats

from tailcast.distcore import (
    log_std_normal_cdf,
    make_lane_log_posterior,
    make_log_posterior,
    std_normal_cdf,
    tail_mass_sigma,
)
from tailcast.emprior import HyperPrior, Provenance

from conftest import lane_events
from oracles import (
    gaussian_logpdf,
    log_posterior,
    tail_mass_domain,
    tail_mass_quotient,
    truncnorm_logpdf,
)

# Reference values, frozen from high-precision evaluation (mpmath at 50
# digits); they are independent of the scipy.special routines under test.
PHI_MINUS_2 = 0.02275013194817922
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
    # The quantile inside the tail-mass identity: with mu = 0, w_k = -1 and
    # n_k/N = q, sigma = -1 / Phi^-1(q).
    for q, z in ((1e-10, Q_1E10), (0.125, Q_125)):
        assert tail_mass_sigma(0.0, -math.log(q), 1, -1.0) == pytest.approx(-1.0 / z, rel=5e-10)


# One draw inside the domain, then one per way out of it, for w_k = 0 and
# n_k = 1 (so n_k/N = exp(-log N)): mu at w_k, n_k/N of 0.5 and 0, a nan, mu
# below w_k with n_k/N above 0.5 (a positive quotient all the same), sigma
# overflowing or rounding to 0, and log N at the kernel's bound of 700 and
# above it, where the quotient is still finite and positive.
DOMAIN_MU = [1.0, 0.0, 1.0, 1.0, math.nan, -1.0, 1e308, 5e-324, 1.0, 1.0]
DOMAIN_LOG_N = [3.0, 3.0, math.log(2.0), math.inf, 3.0, 0.1, math.log(2.0) + 1e-12, 699.0,
                700.0, 720.0]


def test_tail_mass_domain_is_where_sigma_is_the_models():
    mu, log_n_pop = np.array(DOMAIN_MU), np.array(DOMAIN_LOG_N)
    sigma = tail_mass_sigma(mu, log_n_pop, 1, 0.0)
    assert np.isfinite(sigma[0]) and sigma[0] > 0.0
    assert np.isnan(sigma[1:]).all()
    # Only the w_k < mu test keeps the positive quotient of draw 5 out, and
    # only the bound on log N those of the last two.
    assert tail_mass_quotient(mu[5], log_n_pop[5], 1, 0.0) > 0.0
    assert np.all(tail_mass_quotient(mu[-2:], log_n_pop[-2:], 1, 0.0) > 0.0)


@st.composite
def identity_draws(draw):
    """(n_k, w_k, mu, log N): draws that mix arbitrary doubles with the
    domain's edges for that n_k and w_k."""
    n_k = draw(st.integers(1, 10_000))
    w_k = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
    edge_mu = [w_k, float(np.nextafter(w_k, math.inf)), w_k + 1.0, 1e300, 5e-324]
    log_2n = math.log(2.0 * n_k)
    edge_log_n = [log_2n - 1e-9, log_2n, log_2n + 1e-9, log_2n + 3.0, 700.0, 800.0]
    size = draw(st.integers(1, 12))

    def column(edges, span):
        return draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(*span), st.floats()),
                             min_size=size, max_size=size))

    return (n_k, w_k, column(edge_mu, (w_k - 5.0, w_k + 5.0)),
            column(edge_log_n, (0.0, 40.0)))


@settings(max_examples=300, deadline=None)
@example((1, 0.0, DOMAIN_MU, DOMAIN_LOG_N))
@given(identity_draws())
def test_tail_mass_sigma_is_nan_exactly_outside_the_domain(draws):
    n_k, w_k, mu, log_n_pop = draws
    mu, log_n_pop = np.array(mu), np.array(log_n_pop)
    inside = tail_mass_domain(mu, log_n_pop, n_k, w_k)
    sigma = tail_mass_sigma(mu, log_n_pop, n_k, w_k)
    assert np.array_equal(np.isnan(sigma), ~inside)
    with np.errstate(all="ignore"):
        want = tail_mass_quotient(mu, log_n_pop, n_k, w_k)
    assert np.array_equal(sigma[inside].view(np.uint64), want[inside].view(np.uint64))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.7])
def test_quantile_domain(p):
    # Both targets take Phi^-1(n_k/N) only at tail fractions in (0, 0.5):
    # n_k/N = p outside it, or a log N that is no number at all, never scores.
    data = _toy_data([-0.1, -0.05, 0.0])
    with np.errstate(all="ignore"):
        y = float(np.log(data.n_k / np.float64(p)))
        assert make_log_posterior(data, WEAK)((1.0, y)) == -math.inf
        lp = make_lane_log_posterior([data], WEAK)(np.array([1.0]), np.array([y]))
    assert np.isnan(lp[0]) or lp[0] == -math.inf


def test_cdf_quantile_roundtrip_grid():
    # |Phi(q(p)) - p| < 1e-10 across [1e-15, 1 - 1e-15]
    ps = np.concatenate([
        np.geomspace(1e-15, 0.4, 60),
        np.linspace(0.4, 0.6, 11),
        1.0 - np.geomspace(1e-15, 0.4, 60),
    ])
    for p in ps:
        assert abs(std_normal_cdf(special.ndtri(float(p))) - p) < 1e-10


@given(st.floats(-8.0, 5.5))
@settings(max_examples=200)
def test_quantile_cdf_roundtrip(z):
    assert special.ndtri(std_normal_cdf(z)) == pytest.approx(z, abs=1e-8)


def test_quantile_cdf_roundtrip_upper_tail():
    # Above z ~ 5.7, Phi(z) sits within a few ulps of 1.0, so z itself is no
    # longer recoverable from a double; the probability-space contract still
    # holds exactly there.
    for z in (5.5, 6.0, 7.0, 8.0):
        p = std_normal_cdf(z)
        assert abs(std_normal_cdf(special.ndtri(p)) - p) < 1e-10


def test_truncnorm_recovers_untruncated():
    for x in (-0.5, 1.0, 1.3):
        full = gaussian_logpdf(x, 1.3, 0.49)
        assert truncnorm_logpdf(x, 1.3, 0.7, math.inf) == pytest.approx(full, abs=1e-12)


def test_truncnorm_at_mean_cutoff():
    assert truncnorm_logpdf(0.0, 0.0, 1.0, 0.0) == pytest.approx(LOG_2_PHI0, abs=1e-13)
    assert truncnorm_logpdf(0.1, 0.0, 1.0, 0.0) == -math.inf


def test_truncnorm_normalization_quadrature():
    cases = [
        (0.0, 1.0, 0.0),
        (2.423, 0.033, 2.36),
        (-3.0, 0.5, -4.1),
        (10.0, 4.0, 22.0),
    ]
    for mu, sigma, c in cases:
        lo = min(mu, c) - 12.0 * sigma
        total, err = integrate.quad(
            lambda x: math.exp(truncnorm_logpdf(x, mu, sigma, c)),
            lo, c, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_tail_mass_sigma_exact_identity():
    # With tail fraction exactly Phi(-2) the identity gives sigma = (mu - w)/2.
    q = std_normal_cdf(-2.0)
    assert tail_mass_sigma(0.0, math.log(91.0 / q), 91, -2.0) == pytest.approx(1.0, abs=1e-9)
    assert tail_mass_sigma(5.0, math.log(10.0 / q), 10, 4.0) == pytest.approx(0.5, abs=1e-9)


def test_tail_mass_sigma_matches_scalar_identity():
    # Per draw, Normal(mu, sigma^2) puts exactly n_k/N of its mass below w_k.
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.5, 3.0, 50)
    log_n_pop = rng.uniform(math.log(250.0), 20.0, 50)
    sigma = tail_mass_sigma(mu, log_n_pop, 100, 0.2)
    for m, y, s in zip(mu, log_n_pop, sigma):
        assert s > 0.0
        tail = scipy_stats.norm.cdf(0.2, loc=m, scale=s)
        assert tail == pytest.approx(100.0 * math.exp(-y), rel=1e-10)


@given(
    mu=st.floats(-5.0, 5.0),
    log_q=st.floats(math.log(1e-9), math.log(0.45)),
    n_k=st.integers(1, 2000),
    gap=st.floats(0.01, 6.0),
)
@settings(max_examples=300)
def test_population_sigma_inverse_pair(mu, log_q, n_k, gap):
    n_pop = n_k / math.exp(log_q)
    w_k = mu - gap
    sigma = float(tail_mass_sigma(mu, math.log(n_pop), n_k, w_k))
    assert sigma > 0.0
    # the identity read the other way: N = n_k / Phi((w_k - mu) / sigma)
    assert n_k / std_normal_cdf((w_k - mu) / sigma) == pytest.approx(n_pop, rel=1e-6)


def _toy_data(marks):
    marks = tuple(marks)
    return SimpleNamespace(marks=marks, n_k=len(marks))


WEAK = HyperPrior.weakly_informative()


def test_log_posterior_domain_walls():
    target = make_log_posterior(_toy_data([-0.1, -0.05, 0.0]), WEAK)
    assert target((1.0, math.log(2.0))) == -math.inf  # N <= n_k
    assert target((1.0, math.log(5.0))) == -math.inf  # n_k/N >= 0.5
    assert target((1.0, 701.0)) == -math.inf
    assert target((1.0, -701.0)) == -math.inf
    assert target((-2.0, math.log(1000.0))) == -math.inf  # w_k >= mu
    assert target((0.0, math.log(1000.0))) == -math.inf
    assert math.isfinite(target((1.0, math.log(1000.0))))


def test_log_posterior_permutation_invariant():
    rng = np.random.default_rng(4)
    marks = list(rng.normal(0.0, 0.2, 40))
    data = _toy_data(marks)
    theta = (0.8, math.log(5000.0))
    base = make_log_posterior(data, WEAK)(theta)
    shuffled = list(marks)
    rng.shuffle(shuffled)
    assert make_log_posterior(_toy_data(shuffled), WEAK)(theta) == base


def test_log_posterior_single_point_near_boundary():
    # One mark at x = w_k with mu a hair above it and N chosen so sigma = 1:
    # the data term approaches log(2 * N(0|0,1)) as the gap closes.
    delta = 1e-6
    q = std_normal_cdf(-delta)
    data = _toy_data([0.0])
    theta = (delta, math.log(1.0 / q))
    prior_term = gaussian_logpdf(theta[1], WEAK.mu_N, WEAK.sigma2_N)
    value = make_log_posterior(data, WEAK)(theta)
    assert value - prior_term == pytest.approx(LOG_2_PHI0, abs=1e-5)


def test_log_posterior_doubling_data():
    marks = [-0.3, -0.1, 0.0, 0.05]
    data = _toy_data(marks)
    doubled = _toy_data(marks * 2)
    mu, n_pop = 0.9, 3000.0
    lp1 = make_log_posterior(data, WEAK)((mu, math.log(n_pop)))
    lp2 = make_log_posterior(doubled, WEAK)((mu, math.log(2.0 * n_pop)))
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


# The lane tests run once under a weak and once under an informative prior.
PRIORS = (WEAK, HyperPrior(math.log(20_000.0), 0.25, Provenance.EMPIRICAL))


def _lanes():
    """lane_events, two lanes each."""
    return [d for d in lane_events() for _ in range(2)]


def test_lane_target_matches_oracle():
    lists = _lanes()
    w_k = np.array([d.w_k for d in lists])
    log_n = np.log([d.n_k for d in lists])
    for prior in PRIORS:
        lane = make_lane_log_posterior(lists, prior)
        for gap in (0.01, 0.03, 0.08):
            for excess in (1.0, 2.5, 5.0):
                mu, y = w_k + gap, log_n + excess
                got = lane(mu, y)
                out = np.empty(len(lists))
                assert lane(mu, y, out=out) is out
                assert np.array_equal(out, got)
                for i, data in enumerate(lists):
                    want = log_posterior((float(mu[i]), float(y[i])), data, prior)
                    assert math.isfinite(want)
                    assert got[i] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("one_lane_view", [False, True])
def test_lane_target_never_finite_outside_domain(one_lane_view):
    """The lane kernel scores every point outside the domain nan or -inf; its
    one-lane view turns each into a Python float -inf, without a warning."""
    lists = _lanes()
    w_k = np.array([d.w_k for d in lists])
    log_n = np.log([d.n_k for d in lists])
    ones = np.ones(len(lists))
    cases = [
        (w_k, log_n + 3.0),                       # mu == w_k
        (w_k - 0.01, log_n + 3.0),                # mu below w_k
        (w_k - 1.0, log_n + 3.0),
        (w_k + 0.05, log_n + math.log(2.0) - 1e-9),  # N just below 2 n_k
        (w_k + 0.05, log_n + 0.3),
        (w_k + 0.05, log_n),                      # N == n_k
        (w_k + 0.05, log_n - 3.0),
        (w_k - 0.01, log_n - 3.0),                # both at once: r/d alone would be finite
        (w_k - 0.01, log_n + 0.3),                # both at once with n_k < N < 2 n_k:
                                                  # Phi^-1(q)/(w_k - mu) alone is positive
        (w_k + 0.05, 700.0 * ones),               # log N >= 700
        (w_k + 0.05, 720.0 * ones),
        (w_k + 0.05, 1e4 * ones),
        (w_k + 0.05, -700.0 * ones),              # log N <= -700
        (w_k + 0.05, -1e4 * ones),
    ]
    for prior in PRIORS:
        lane = make_lane_log_posterior(lists, prior)
        scalar = [make_log_posterior(d, prior) for d in lists]
        for mu, y in cases:
            if not one_lane_view:
                with np.errstate(all="ignore"):
                    lp = lane(mu, y)
                assert np.all(np.isnan(lp) | (lp == -math.inf)), (mu - w_k, y - log_n, lp)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for i, target in enumerate(scalar):
                    value = target((float(mu[i]), float(y[i])))
                    assert type(value) is float and value == -math.inf, (i, mu[i], y[i], value)
