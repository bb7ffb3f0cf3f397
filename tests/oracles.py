"""Slow reference routes that the shipped numerical kernels are checked against.

`log_posterior` scores theta = (mu, log N) the long way: the tail-mass
identity in scalar form, then the truncated-normal log-density mark by mark,
summed exactly with math.fsum. It shares no code with distcore's kernel
beyond scipy's normal functions.
"""
import math

from scipy import special

_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_logpdf(x: float, mu: float, sigma2: float) -> float:
    return -0.5 * (x - mu) ** 2 / sigma2 - 0.5 * math.log(2.0 * math.pi * sigma2)


def truncnorm_logpdf(x: float, mu: float, sigma: float, c: float) -> float:
    """Log-density of Normal(mu, sigma^2) truncated to (-inf, c], -inf above c."""
    if x > c:
        return -math.inf
    z = (x - mu) / sigma
    log_norm = -0.5 * z * z - math.log(sigma) - 0.5 * _LOG_2PI
    return log_norm - float(special.log_ndtr((c - mu) / sigma))


def log_posterior(theta: tuple[float, float], data, prior) -> float:
    """Un-normalized log-posterior of theta = (mu, log N) given one event's tail.

    The sum of truncated-normal log-densities over the list plus the Gaussian
    prior on log N; the improper uniform prior on mu adds nothing. A theta
    outside the domain of the tail-mass identity (w_k < mu, 0 < n_k/N < 0.5)
    scores -inf. The tail is truncated at its worst mark w_k. Only
    .marks/.n_k of `data` and .mu_N/.sigma2_N of `prior` are read.
    """
    mu, log_n_pop = theta
    if not -700.0 < log_n_pop < 700.0:
        return -math.inf
    w_k = max(data.marks)
    q = data.n_k / math.exp(log_n_pop)
    if not (0.0 < q < 0.5 and w_k < mu):
        return -math.inf
    sigma = (w_k - mu) / float(special.ndtri(q))
    data_term = math.fsum(truncnorm_logpdf(x, mu, sigma, w_k) for x in data.marks)
    if math.isnan(data_term):
        return -math.inf
    return data_term + gaussian_logpdf(log_n_pop, prior.mu_N, prior.sigma2_N)
