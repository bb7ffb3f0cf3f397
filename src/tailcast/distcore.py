"""Numerical kernels for the truncated-normal tail model.

The standard normal cdf and log-cdf are scipy.special's ndtr and log_ndtr,
and take floats or numpy arrays alike. On top of them: the tail-mass
identity linking population size N to the spread sigma (`tail_mass_sigma`,
over posterior draws, and nan for a draw outside the identity's domain),
and the model log-posterior over theta = (mu, log N), computed in one
place (`make_lane_log_posterior`) under one prior on N (`HyperPrior`):
many chains as numpy lanes, for burn-in and retained sampling, or one
list over a block of points, for its quadrature grid. `make_log_posterior`
is its one-lane view on Python floats, for chain initialization and the
scalar reference sampler. The kernel's cost is the overhead of its numpy
calls more than its arithmetic, so the sampler scores two steps of every
chain per call. Each list's grid is scored once, under the weak prior
(`HyperPrior.weakly_informative()`), into per-column sums (`grid_columns`)
that `grid_posterior` reweights to any prior on log N. Each column's log
weight is concave in u, so `grid_columns` finds from every 8th u-row the
band of rows that can rise above the floor it clamps weights to, and
scores only those: the same columns, bit for bit, from well under half
the cells for lists of hundreds of marks.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_LOG_2PI = math.log(2.0 * math.pi)
# The log N at and above which a point is outside the model's domain: there
# n_k/N is a tiny positive number that the quantile still maps to a finite
# value, so the kernel and the tail-mass identity both test for it.
_LOG_N_CAP = 700.0
# The grid of grid_posterior: u = log(mu - w_k) over _U_RANGE and log N over
# (log 2 n_k, _LOG_N_MAX], cut into equal cells taken at their midpoints, and
# scored _GRID_BLOCK log N columns (a divisor of the column count) at a time.
# Its edges but log N = log 2 n_k (n_k/N = 0.5, the domain's own boundary)
# are cuts.
_U_RANGE = (-14.0, 1.0)
_LOG_N_MAX = 30.0
_GRID_SHAPE = (400, 400)
_GRID_BLOCK = 50
# grid_columns' floor on a log weight below its column's largest, that
# floor's weight as np.exp gives it, and its band search (see its docstring):
# _BAND_MARGIN keeps 50 log units between a skipped row and the floor.
_FLOOR = -600.0
_EXP_FLOOR = float(np.exp(np.full(1, _FLOOR))[0])
_COARSE_STRIDE = 8
_BAND_MARGIN = 650.0


class Provenance(enum.Enum):
    WEAKLY_INFORMATIVE = "weak"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class HyperPrior:
    """Log-normal prior on population size: log N ~ Normal(mu_N, sigma2_N)."""

    mu_N: float
    sigma2_N: float
    provenance: Provenance
    contributing_events: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2_N) and self.sigma2_N > 0.0):
            raise ValueError("sigma2_N must be positive and finite")

    @staticmethod
    def weakly_informative() -> HyperPrior:
        return _WEAK


# The weak prior of pass 1, log N ~ Normal(log 1e4, 2^2): each list's grid is
# scored under it once (grid_columns), and grid_posterior reweights that grid
# to any other prior.
_WEAK = HyperPrior(math.log(10_000.0), 4.0, Provenance.WEAKLY_INFORMATIVE)


# Phi(z) and log Phi(z) (finite long after Phi underflows), of a float or an array
std_normal_cdf = special.ndtr
log_std_normal_cdf = special.log_ndtr


def tail_mass_sigma(mu, log_n_pop, n_k: int, w_k: float):
    """sigma = (w_k - mu) / Phi^-1(n_k/N) elementwise over draws of mu and
    log N, and nan for a draw outside the identity's domain: w_k < mu,
    0 < n_k/N < 0.5, log N < _LOG_N_CAP as in the kernel, and a sigma that
    fits a double.

    With w_k < mu, the quotient is positive exactly where 0 < n_k/N < 0.5;
    it is also tested finite and nonzero, since mu far above w_k overflows
    it and a gap mu - w_k near the smallest double rounds it to 0.
    """
    with np.errstate(all="ignore"):
        sigma = (w_k - mu) / special.ndtri(n_k * np.exp(-log_n_pop))
        inside = (mu > w_k) & (log_n_pop < _LOG_N_CAP) & (sigma > 0.0) & (sigma < np.inf)
        return np.where(inside, sigma, np.nan)


def make_log_posterior(data, prior):
    """The log-posterior of theta = (mu, log N) given one event's tail: the
    one-lane view of make_lane_log_posterior, for chain initialization and
    the scalar reference sampler.

    target(theta) returns a Python float; any theta outside the domain of
    the tail-mass identity (w_k < mu, 0 < n_k/N < 0.5) scores -inf.
    """
    lane = make_lane_log_posterior([data], prior)
    mu, log_n_pop, out = np.empty(1), np.empty(1), np.empty(1)

    def target(theta: tuple[float, float]) -> float:
        mu[0], log_n_pop[0] = theta
        with np.errstate(all="ignore"):
            lane(mu, log_n_pop, out=out)
        lp = float(out[0])
        # The lane kernel's nan outside the domain, and -inf, both score -inf.
        return lp if lp > -math.inf else -math.inf

    return target


def make_lane_log_posterior(lists, prior):
    """The log-posterior of many chains at once: lane i scores lists[i]
    under `prior`, and target(mu, log_n_pop, out=None) maps two arrays
    over the lanes to an array of log-posteriors, written into `out` when
    one is given.

    The lanes are the last axis, and mu and log N broadcast against each
    other and against it. So one list's target scores a whole block of
    points: mu of shape (rows, 1) and log N of shape (columns,) give a
    (rows, columns) block, with the terms of log N alone (the quantile
    among them) computed once per column and those of mu alone once per
    row. Every point gets the same operations in the same order whatever
    the shapes, so each value is bit for bit what a lane at that point gets.

    The package's one implementation of the model: the sum of
    truncated-normal log-densities over the list, truncated at its worst
    mark w_k, plus the log-normal prior on N taken in the sampled coordinate
    log N (where it is Gaussian); the improper uniform prior on mu adds
    nothing. The list enters through its sufficient statistics (count, mean,
    centred sum of squares), held per lane with the constants folded, so a
    step costs a handful of array operations instead of a pass over the data.
    Each lane's value is an elementwise function of its own list, the prior
    and its point, never of the other lanes. `data` needs .marks and .n_k,
    `prior` .mu_N and .sigma2_N.

    The target works in k = min(Phi^-1(q), 0)/(w_k - mu) with q = n_k/N,
    which is 1/sigma inside the domain. Every lane outside it comes out nan
    or -inf: k is negative, zero, infinite or nan wherever mu <= w_k,
    q >= 0.5 or q > 1, and the target takes log(k), never log(k*k). The
    clamp at 0 matters below w_k with 0.5 < q < 1, where both factors of k
    change sign. Only log N >= _LOG_N_CAP needs an explicit guard.
    """
    # The chains of one event share its list, so each list's row is built once.
    rows = {}
    for data in lists:
        if id(data) not in rows:
            marks = np.asarray(data.marks, dtype=float)
            mean_x = marks.mean()
            rows[id(data)] = (data.n_k, marks.max(), mean_x,
                              ((marks - mean_x) ** 2).sum() / data.n_k)
    n, w_k, mean_x, var_x = np.array([rows[id(data)] for data in lists], dtype=float).T
    mu_n, sigma2_n = prior.mu_N, prior.sigma2_N
    # Per mark, with k = 1/sigma and y = log N, the log-posterior is
    #   log(k) - (var_x + (mean_x - mu)^2) k^2 / 2 - log_tail + y (a - b y) + const,
    # where y (a - b y) - b mu_N^2 is the prior's -(y - mu_N)^2 / (2 sigma2_N n_k).
    b = 0.5 / (sigma2_n * n)
    a = 2.0 * b * mu_n
    const = -0.5 * _LOG_2PI - b * mu_n * mu_n - 0.5 * np.log(2.0 * math.pi * sigma2_n) / n
    log_n = np.log(n)
    # Truncation mass: at w_k it is exactly q, so -log_tail = y - log n_k.
    a += 1.0
    const -= log_n
    # Array operands: a Python float operand is converted again on every call.
    lanes = len(n)
    zero, half = np.zeros(lanes), np.full(lanes, 0.5)
    cap, reject = np.full(lanes, _LOG_N_CAP), np.full(lanes, -math.inf)
    ndtri = special.ndtri
    # Scratch arrays per (mu shape, log N shape), made on first use: the terms
    # of log N alone, of mu alone, and of both, and the log N cap's mask. Every
    # call writes into them positionally (a keyword out= costs more per call),
    # but np.minimum's, whose positional form is deprecated.
    scratch = {}

    def target(mu, log_n_pop, out=None):
        key = (mu.shape, log_n_pop.shape)
        buffers = scratch.get(key)
        if buffers is None:
            col = np.broadcast_shapes(key[1], (lanes,))
            row = np.broadcast_shapes(key[0], (lanes,))
            full = np.broadcast_shapes(col, row)
            buffers = scratch[key] = (*map(np.empty, (col, col, row, row, full, full)),
                                      np.empty(col, dtype=bool))
        q, p, d, s, k, t, capped = buffers
        np.exp(np.subtract(log_n, log_n_pop, q), q)
        np.minimum(ndtri(q, q), zero, out=q)
        np.multiply(b, log_n_pop, p)
        np.subtract(a, p, p)
        np.multiply(p, log_n_pop, p)
        np.add(p, const, p)
        np.subtract(w_k, mu, d)
        np.subtract(mean_x, mu, s)
        np.multiply(s, s, s)
        np.add(s, var_x, s)
        np.divide(q, d, k)
        np.multiply(s, np.multiply(k, k, t), t)
        np.multiply(t, half, t)
        out = np.log(k, out)
        out -= t
        out += p
        out *= n
        np.copyto(out, reject, where=np.greater_equal(log_n_pop, cap, capped))
        return out

    return target


def _midpoints(lo: float, hi: float, cells: int) -> np.ndarray:
    return lo + (np.arange(cells) + 0.5) * ((hi - lo) / cells)


def _grid_log_n(n_k: int) -> np.ndarray:
    return _midpoints(math.log(2.0 * n_k), _LOG_N_MAX, _GRID_SHAPE[1])


def grid_columns(data) -> np.ndarray:
    """One list's grid (see grid_posterior) scored once, under the weak
    prior, and summed over u within each log N column.

    Returns a (6, columns) array. Row 0 is each column's log-scale m, the
    largest log weight w in it (the Jacobian e^u included). Rows 1 to 5 are,
    relative to e^m, the column's sums over u of e^w, d e^w and d^2 e^w
    (d = e^u), and e^w at its first and at its last u-row.

    A weight more than 600 below its column's largest is floored there, so
    only the rows near the top need scoring. Every _COARSE_STRIDE-th u-row
    of the grid is scored first. Then each block of _GRID_BLOCK columns
    scores only the rows between its outermost coarse rows within
    _BAND_MARGIN of their column's coarse top, widened by one stride each
    side; every other row takes the floor. This is exact: with
    m = mean - w_k <= 0 and v the list's variance, a column's weight is
    -(n - 1) u - (n q^2 / 2) [(|m| e^-u + 1)^2 + v e^-2u] + const, concave
    in u, so past a coarse row that lies more than _BAND_MARGIN below the
    coarse top it only falls further, below the floor. The columns are bit
    for bit those of the whole grid scored (tests/oracles.grid_columns).
    """
    n_u, n_y = _GRID_SHAPE
    u = _midpoints(*_U_RANGE, n_u)
    d = np.exp(u)
    powers = np.stack((np.ones(n_u), d, d * d))
    mu, u = data.w_k + d[:, None], u[:, None]
    y = _grid_log_n(data.n_k)
    target = make_lane_log_posterior([data], _WEAK)
    columns = np.empty((6, n_y))
    weight = np.empty((n_u, _GRID_BLOCK))
    with np.errstate(all="ignore"):
        coarse = target(mu[::_COARSE_STRIDE], y)
        coarse += u[::_COARSE_STRIDE]
        # A far coarse row lies more than the margin below the coarse top of
        # every column of its block. A top's own row is never far, and a top
        # of nan or -inf leaves no row far, so its whole block is scored.
        far = (coarse < coarse.max(axis=0) - _BAND_MARGIN).reshape(len(coarse), -1, _GRID_BLOCK)
        near = ~far.all(axis=2)
        firsts = np.maximum(near.argmax(axis=0) - 1, 0) * _COARSE_STRIDE
        lasts = np.minimum((len(near) - near[::-1].argmax(axis=0)) * _COARSE_STRIDE + 1, n_u)
        for first, lo, hi in zip(range(0, n_y, _GRID_BLOCK), firsts.tolist(), lasts.tolist()):
            block = slice(first, first + _GRID_BLOCK)
            band = weight[lo:hi]
            target(mu[lo:hi], y[block], band)
            band += u[lo:hi]
            columns[0, block] = top = band.max(axis=0)
            # A weight below e^-600 of its column's largest adds nothing a
            # double holds next to it. Flooring it there keeps exp off its
            # slow underflow path, and its products with d^2 >= e^-28 off
            # the subnormals that slow the sums.
            np.maximum(np.subtract(band, top, band), _FLOOR, out=band)
            np.exp(band, band)
            weight[:lo] = weight[hi:] = _EXP_FLOOR
            columns[1:4, block] = powers @ weight
            columns[4:, block] = weight[[0, -1]]
    return columns


def grid_posterior(data, prior):
    """Posterior mean and covariance of (d, log N), d = mu - w_k, for one
    list under `prior`, by the midpoint rule on the fixed grid over
    (u = log d, log N), scored by the model's one kernel and weighted by the
    Jacobian e^u. Returns (mean, cov, edge_mass), edge_mass holding each
    cut edge's share of the mass by its name ("u = 1", ...). Moments taken
    in d rather than mu spend no digits on w_k.

    The prior depends on log N alone, so the grid under `prior` is the
    list's weak-prior grid (data.grid_columns, scored once per list) with
    each log N column reweighted by the log ratio of the two priors.
    """
    log_scale, s0, s1, s2, first_row, last_row = data.grid_columns
    y = _grid_log_n(data.n_k)
    log_w = (log_scale + (y - _WEAK.mu_N) ** 2 / (2.0 * _WEAK.sigma2_N)
             - (y - prior.mu_N) ** 2 / (2.0 * prior.sigma2_N))
    w = np.exp(log_w - log_w.max())
    by_y = w * s0
    total = float(by_y.sum())
    mean_d, mean_y = float(w @ s1) / total, float(by_y @ y) / total
    dev_y = y - mean_y
    cross = float(w @ ((s1 - mean_d * s0) * dev_y)) / total
    cov = np.array([[float(w @ (s2 - mean_d * (2.0 * s1 - mean_d * s0))) / total, cross],
                    [cross, float(by_y @ (dev_y * dev_y)) / total]])
    edge_mass = {f"u = {_U_RANGE[0]:g}": float(w @ first_row) / total,
                 f"u = {_U_RANGE[1]:g}": float(w @ last_row) / total,
                 f"log N = {_LOG_N_MAX:g}": float(by_y[-1]) / total}
    return (mean_d, mean_y), cov, edge_mass
