"""Numerical kernels for the truncated-normal tail model.

The standard normal cdf and log-cdf are scipy.special's ndtr and log_ndtr,
and take floats or numpy arrays alike. On top of them: the tail-mass
identity linking population size N to the spread sigma (`tail_mass_sigma`,
over posterior draws), and the model log-posterior over theta = (mu, log N)
in two forms: one chain at a time (`make_log_posterior`), for chain
initialization and the scalar reference sampler, and many chains as numpy
lanes (`make_lane_log_posterior`), for burn-in and retained sampling.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

_LOG_2PI = math.log(2.0 * math.pi)


def std_normal_cdf(z):
    """Phi(z) for a float or an array."""
    return special.ndtr(z)


def log_std_normal_cdf(z):
    """log Phi(z) for a float or an array, finite long after Phi underflows."""
    return special.log_ndtr(z)


def tail_mass_sigma(mu, log_n_pop, n_k: int, w_k: float):
    """sigma = (w_k - mu) / Phi^-1(n_k/N) elementwise over draws of mu and log N.

    The caller keeps every draw inside the domain (w_k < mu, 0 < n_k/N < 0.5).
    """
    return (w_k - mu) / special.ndtri(n_k * np.exp(-log_n_pop))


def make_log_posterior(data, prior):
    """The log-posterior of theta = (mu, log N) given one event's tail, as a
    closure that costs O(1) per call.

    The sum of truncated-normal log-densities over the list, plus the
    log-normal prior on N taken in the sampled coordinate log N (where it is
    Gaussian); the improper uniform prior on mu adds nothing. Any theta
    outside the domain of the tail-mass identity (w_k < mu, 0 < n_k/N < 0.5)
    scores -inf. The list enters through its sufficient statistics (count,
    mean, centred sum of squares), so a step costs a handful of scalar
    operations instead of a pass over the data. `data` needs .marks, .n_k
    and .c_k, `prior` .mu_N and .sigma2_N.
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
    under priors[i], and target(mu, log_n_pop, out=None) maps two arrays
    over the lanes to an array of log-posteriors, written into `out` when
    one is given.

    The sufficient statistics are held per lane with the constants folded,
    and each lane's value is an elementwise function of its own list, prior
    and point, never of the other lanes. The order of operations differs
    from make_log_posterior, so the two agree to round-off. The target works
    in k = min(Phi^-1(q), 0)/(w_k - mu) with q = n_k/N, which is 1/sigma
    inside the domain. Every lane outside it comes out nan or -inf: k is
    negative, zero, infinite or nan wherever mu <= w_k, q >= 0.5 or q > 1,
    and the target takes log(k), never log(k*k). The clamp at 0 matters
    below w_k with 0.5 < q < 1, where both factors of k change sign. Only
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
    # Per mark, with k = 1/sigma and y = log N, the log-posterior is
    #   log(k) - (var_x + (mean_x - mu)^2) k^2 / 2 - log_tail + y (a - b y) + const,
    # where y (a - b y) - b mu_N^2 is the prior's -(y - mu_N)^2 / (2 sigma2_N n_k).
    b = 0.5 / (sigma2_n * n)
    a = 2.0 * b * mu_n
    const = -0.5 * _LOG_2PI - b * mu_n * mu_n - 0.5 * np.log(2.0 * math.pi * sigma2_n) / n
    log_n = np.log(n)
    # Truncation mass: at c_k == w_k it is exactly q, so -log_tail = y - log n_k.
    # Lanes truncated further out (c_k > w_k) take log_ndtr instead.
    cut = c_k != w_k
    a += np.where(cut, 0.0, 1.0)
    const -= np.where(cut, 0.0, log_n)
    any_cut = bool(cut.any())
    # Array operands: a Python float operand is converted again on every call.
    lanes = len(n)
    zero, half = np.zeros(lanes), np.full(lanes, 0.5)
    cap, reject = np.full(lanes, 700.0), np.full(lanes, -math.inf)
    q, k, s = np.empty(lanes), np.empty(lanes), np.empty(lanes)
    log_ndtr, ndtri = special.log_ndtr, special.ndtri

    def target(mu, log_n_pop, out=None):
        # The closure's scratch arrays take explicit out= calls: an augmented
        # assignment would make them local names.
        np.exp(np.subtract(log_n, log_n_pop, out=q), out=q)
        np.minimum(ndtri(q, out=q), zero, out=q)
        np.divide(q, np.subtract(w_k, mu, out=k), out=k)
        np.subtract(mean_x, mu, out=s)
        np.multiply(s, s, out=s)
        np.add(s, var_x, out=s)
        np.multiply(s, np.multiply(k, k, out=q), out=s)
        np.multiply(s, half, out=s)
        out = np.log(k, out=out)
        out -= s
        if any_cut:
            out -= np.where(cut, log_ndtr((c_k - mu) * k), 0.0)
        np.multiply(b, log_n_pop, out=q)
        np.subtract(a, q, out=q)
        np.multiply(q, log_n_pop, out=q)
        np.add(q, const, out=q)
        out += q
        out *= n
        np.copyto(out, reject, where=log_n_pop >= cap)
        return out

    return target
