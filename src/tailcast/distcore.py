"""Numerical kernels for the truncated-normal tail model.

The standard normal cdf, log-cdf and quantile are scipy.special's ndtr,
log_ndtr and ndtri, and take floats or numpy arrays alike. On top of them:
the truncated log-density, the tail-mass reparametrization linking
population size N to the spread sigma (`tail_mass_sigma` holds its vector
form over posterior draws), and the model log-posterior over
theta = (mu, log N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import TailcastError

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)


class ReparamOutOfDomain(TailcastError):
    """(mu, N) lies outside the region where the tail-mass identity
    defines a positive sigma (needs n_k/N < 0.5 and w_k < mu)."""


@dataclass(frozen=True)
class NormalParams:
    """Mean and variance of the latent performance distribution (log space)."""

    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class PopulationParams:
    """Population-size parametrization of one event's tail.

    N counts all performances (observed or not) in the modeled window of
    t_m years; the observed list is the best n_k of them, the worst of
    which sits at w_k in transformed space.
    """

    mu: float
    N: float
    n_k: int
    w_k: float
    t_m: float

    def __post_init__(self) -> None:
        if self.n_k < 1:
            raise ValueError("n_k must be a positive count")
        if not (self.N > self.n_k):
            raise ValueError(f"population N={self.N} must exceed the list size n_k={self.n_k}")
        if not (self.t_m > 0.0):
            raise ValueError("t_m must be a positive number of years")

    @property
    def tail_fraction(self) -> float:
        return self.n_k / self.N


def std_normal_cdf(z):
    """Phi(z) for a float or an array."""
    return special.ndtr(z)


def log_std_normal_cdf(z):
    """log Phi(z) for a float or an array, finite long after Phi underflows."""
    return special.log_ndtr(z)


def std_normal_quantile(p):
    """Phi^-1(p) for a float or an array; every p must lie in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError(f"quantile requires 0 < p < 1, got {p}")
    return special.ndtri(p)


def exceedance_prob(a, params: NormalParams):
    """Probability that a single performance beats mark a: Phi((a - mu)/sigma)."""
    return std_normal_cdf((a - params.mu) / params.sigma)


def truncnorm_logpdf(x: float, params: NormalParams, c: float) -> float:
    """Log-density of a normal truncated to (-inf, c], zero density above c."""
    if x > c:
        return -math.inf
    sigma = params.sigma
    z = (x - params.mu) / sigma
    log_norm = -0.5 * z * z - math.log(sigma) - 0.5 * _LOG_2PI
    return log_norm - log_std_normal_cdf((c - params.mu) / sigma)


def _sigma_from(mu: float, n_pop: float, n_k: int, w_k: float) -> float:
    q = n_k / n_pop
    if not 0.0 < q < 0.5:
        raise ReparamOutOfDomain(f"tail fraction n_k/N = {q:.6g} must be in (0, 0.5)")
    if not w_k < mu:
        raise ReparamOutOfDomain(f"worst mark w_k = {w_k:.6g} must lie below mu = {mu:.6g}")
    return (w_k - mu) / float(special.ndtri(q))


def sigma_from_population(p: PopulationParams) -> float:
    """Spread implied by (mu, N) through the tail-mass identity
    Phi((w_k - mu)/sigma) = n_k/N."""
    return _sigma_from(p.mu, p.N, p.n_k, p.w_k)


def tail_mass_sigma(mu, log_n_pop, n_k: int, w_k: float):
    """sigma = (w_k - mu) / Phi^-1(n_k/N) elementwise over draws of mu and log N.

    The caller keeps every draw inside the domain (w_k < mu, 0 < n_k/N < 0.5).
    """
    return (w_k - mu) / special.ndtri(n_k * np.exp(-log_n_pop))


def population_from_sigma(mu: float, sigma: float, n_k: int, w_k: float) -> float:
    """Inverse of sigma_from_population: the N whose tail mass at w_k is n_k/N."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return n_k / std_normal_cdf((w_k - mu) / sigma)


def gaussian_logpdf(x: float, mu: float, sigma2: float) -> float:
    return -0.5 * (x - mu) ** 2 / sigma2 - 0.5 * math.log(2.0 * math.pi * sigma2)


def log_posterior(theta: tuple[float, float], data, prior) -> float:
    """Un-normalized log-posterior of theta = (mu, log N) given one event's tail.

    Sum of truncated-normal log-densities over the list, plus the log-normal
    prior on N evaluated in the sampled coordinate log N (where it is
    Gaussian); the improper uniform prior on mu contributes zero. Any theta
    outside the reparametrization domain scores -inf so samplers reject it.

    `data` is a PerformanceList, `prior` a HyperPrior; only .marks/.n_k/.c_k
    and .mu_N/.sigma2_N are touched, so structural stand-ins work in tests.
    """
    mu, log_n_pop = theta
    if not -700.0 < log_n_pop < 700.0:
        return -math.inf
    n_pop = math.exp(log_n_pop)
    if not n_pop > data.n_k:
        return -math.inf
    w_k = max(data.marks)
    try:
        sigma = _sigma_from(mu, n_pop, data.n_k, w_k)
    except ReparamOutOfDomain:
        return -math.inf
    params = NormalParams(mu=mu, sigma2=sigma * sigma)
    data_term = math.fsum(truncnorm_logpdf(x, params, data.c_k) for x in data.marks)
    if math.isnan(data_term):
        return -math.inf
    prior_term = gaussian_logpdf(log_n_pop, prior.mu_N, prior.sigma2_N)
    return data_term + prior_term


def make_log_posterior(data, prior):
    """Compiled closure computing log_posterior(theta) in O(1) per call.

    Precomputes the sufficient statistics of the list (count, mean, centered
    sum of squares) so sampler steps cost a handful of scalar operations
    instead of a pass over the data. Agrees with log_posterior to floating
    round-off; tests assert the equivalence.
    """
    marks = np.asarray(data.marks, dtype=float)
    n = int(data.n_k)
    w_k = float(marks.max())
    c_k = float(data.c_k)
    mean_x = float(marks.mean())
    css = float(((marks - mean_x) ** 2).sum())
    log_n = math.log(n)
    mu_n = float(prior.mu_N)
    sigma2_n = float(prior.sigma2_N)
    prior_const = -0.5 * math.log(2.0 * math.pi * sigma2_n)
    data_const = -0.5 * n * _LOG_2PI
    c_is_w = c_k == w_k
    exp_, log_, ndtri, log_ndtr = math.exp, math.log, special.ndtri, special.log_ndtr

    def target(theta: tuple[float, float]) -> float:
        mu, log_n_pop = theta
        if not w_k < mu:
            return -math.inf
        if not -700.0 < log_n_pop < 700.0:
            return -math.inf
        q = n * exp_(-log_n_pop)
        if not 0.0 < q < 0.5:
            return -math.inf
        # float() keeps the rest of the step in Python-float arithmetic.
        sigma = (w_k - mu) / float(ndtri(q))
        # Truncation mass: at c_k == w_k it is exactly q by construction.
        if c_is_w:
            log_tail = log_n - log_n_pop
        else:
            log_tail = float(log_ndtr((c_k - mu) / sigma))
        dev = mean_x - mu
        data_term = (data_const - n * log_(sigma)
                     - (css + n * dev * dev) / (2.0 * sigma * sigma)
                     - n * log_tail)
        prior_dev = log_n_pop - mu_n
        return data_term + prior_const - 0.5 * prior_dev * prior_dev / sigma2_n

    return target


def make_lane_log_posterior(lists, priors):
    """The log-posterior of many chains at once: lane i scores lists[i]
    under priors[i], and target(mu, log_n_pop) maps two arrays over the
    lanes to an array of log-posteriors.

    The sufficient statistics are held per lane with the constants folded,
    and each lane's value is an elementwise function of its own list, prior
    and point, never of the other lanes. The order of operations differs
    from make_log_posterior, so the two agree to round-off. Every lane
    outside the domain comes out nan or -inf: log(mu - w_k) is nan below
    w_k, and log(-ndtri(q)) is nan or -inf for q = n_k/N >= 0.5. Only
    log N >= 700 needs an explicit guard: the scalar target rejects it, but
    there q is a tiny positive number that the quantile maps to a finite value.
    """
    stats = []
    for data, prior in zip(lists, priors):
        marks = np.asarray(data.marks, dtype=float)
        mean_x = marks.mean()
        stats.append((data.n_k, marks.max(), data.c_k, mean_x,
                      ((marks - mean_x) ** 2).sum() / data.n_k,
                      prior.mu_N, prior.sigma2_N))
    n, w_k, c_k, mean_x, var_x, mu_n, sigma2_n = np.array(stats, dtype=float).T
    # Per mark, with d = mu - w_k, r = -ndtri(q)/sqrt(2) (so sigma = d/(r sqrt 2))
    # and y = log N, the log-posterior is
    #   log(r/d) - (var_x + (mean_x - mu)^2) (r/d)^2 - log_tail + y (a - b y) + const,
    # where y (a - b y) - b mu_N^2 is the prior's -(y - mu_N)^2 / (2 sigma2_N n_k).
    b = 0.5 / (sigma2_n * n)
    a = 2.0 * b * mu_n
    const = (0.5 * math.log(2.0) - 0.5 * _LOG_2PI - b * mu_n * mu_n
             - 0.5 * np.log(2.0 * math.pi * sigma2_n) / n)
    log_n = np.log(n)
    # Truncation mass: at c_k == w_k it is exactly q, so -log_tail = y - log n_k.
    # Lanes truncated further out (c_k > w_k) take log_ndtr instead.
    cut = c_k != w_k
    a += np.where(cut, 0.0, 1.0)
    const -= np.where(cut, 0.0, log_n)
    any_cut = bool(cut.any())
    # Array operands: a Python float operand is converted again on every call.
    cap = np.full(len(n), 700.0)
    reject = np.full(len(n), -math.inf)
    log_ndtr, ndtri = special.log_ndtr, special.ndtri

    def target(mu, log_n_pop):
        r = ndtri(np.exp(log_n - log_n_pop)) * -_SQRT_HALF
        d = mu - w_k
        r_d = r / d
        dev = mean_x - mu
        per_mark = np.log(r) - np.log(d) - (var_x + dev * dev) * (r_d * r_d)
        if any_cut:
            per_mark -= np.where(cut, log_ndtr((c_k - mu) * r_d * _SQRT2), 0.0)
        lp = n * (per_mark + log_n_pop * (a - b * log_n_pop) + const)
        return np.where(log_n_pop < cap, lp, reject)

    return target
