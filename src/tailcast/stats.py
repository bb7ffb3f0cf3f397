"""Forecast statistics and the scoring system built on fitted posteriors.

Every statistic is a posterior expectation taken as an equal-weight average
over the pooled draws of a FitResult: exceedance rates, record-breaking
probabilities, the expected best mark of a future window, and the 1300-point
scoring tables anchored at the mark with exceedance rate 0.125. Each takes
the FitResult itself, and the horizon t_f in years where it needs one; rates
are per year of the fit's own span, fit.meta.t_m. A mile event borrows its
population N from the 1500 m: borrow_population makes that a FitResult too.
Whether an unconverged fit may be forecast from is the caller's decision.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri_exp

from .distcore import log_std_normal_cdf, std_normal_cdf, tail_mass_sigma
from .errors import TailcastError
from .ingest import EventSpec, decode_mark, encode_mark, format_raw_mark
from .sampler import FitResult

LN2 = math.log(2.0)
ANCHOR_POINTS = 1300.0
ANCHOR_RATE = 0.125
DEFAULT_POINT_GRID = tuple(range(0, 1401, 50))

# Gauss-Legendre nodes and weights on [0, 1], mapped onto each M's interval in
# _expected_max; 96 of them give m(M) to about 1e-14 for M from 0.05 to 1e200.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)
_NODES = 0.5 * (_GL_X + 1.0)
_WEIGHTS = 0.5 * _GL_W
_LOG_TAIL = math.log(1e-17)
# expected_best takes m at 16 first-kind Chebyshev points of each width-4 panel
# [4p, 4p + 4] of log M that holds a draw, and interpolates between them; that
# stays within 2.3e-14 of _expected_max for M from 0.05 to 1e200. Below 0.05,
# the end of that documented range, the panel error reaches 1e-9 to 1e-7 for M
# under e^-4, so those draws keep _expected_max.
_PANEL_WIDTH = 4.0
_CHEB_ANGLES = (2.0 * np.arange(16) + 1.0) * math.pi / 32.0
_CHEB_NODES = np.cos(_CHEB_ANGLES)
_CHEB_WEIGHTS = (-1.0) ** np.arange(16) * np.sin(_CHEB_ANGLES)
_PANEL_MIN_M = 0.05
# expected_best refuses a horizon that puts any draw's M outside this range:
# below about 1e-17 the upper limit of _expected_max is nan, and the nodes of
# a panel above e^708 overflow.
_M_RANGE = (1e-16, 1e305)
# anchor_mark: relative tolerance on the rate, and bracket extensions by one
# mean sigma before giving up.
_ANCHOR_REL_TOL = 1e-3
_ANCHOR_EXPANSIONS = 60


class AnchorNotFound(TailcastError):
    """No mark on the (extended) search bracket reaches the target rate."""


class UndefinedCorrelation(TailcastError):
    """Pearson correlation is undefined when either list has zero variance."""


class NoBorrowedPopulation(TailcastError, ValueError):
    """No borrowed population draw keeps an event's tail-mass identity in-domain."""


class HorizonOutOfRange(TailcastError, ValueError):
    """A forecast horizon puts some draw's M = t_f N / t_m where m(M) is not computed."""


class PointsOutOfRange(TailcastError):
    """A point total is worth no positive, finite mark on an event's table."""


def expected_exceedances(fit: FitResult, a: float) -> float:
    """Posterior-expected number of marks better than `a` per calendar year."""
    z = (a - fit.pooled_mu) / fit.pooled_sigma
    rates = np.exp(fit.pooled_logN) / fit.meta.t_m * std_normal_cdf(z)
    return float(np.mean(rates))


def _min_log_survival(fit: FitResult, a) -> np.ndarray:
    """log P(one future mark is worse than a), per pooled draw."""
    return log_std_normal_cdf((fit.pooled_mu - np.asarray(a)) / fit.pooled_sigma)


def record_probability(fit: FitResult, a: float, t_f: float) -> float:
    """Posterior probability that some mark within t_f years beats `a`."""
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise ValueError(f"t_f must be a nonnegative number of years, got {t_f}")
    if t_f == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # t_f N / t_m may overflow
        exponent = t_f * np.exp(fit.pooled_logN) / fit.meta.t_m
        per_draw = -np.expm1(exponent * _min_log_survival(fit, a))
    return float(np.mean(per_draw))


class ExpectedBest(NamedTuple):
    x: float
    raw: float


def _expected_max(M: np.ndarray) -> np.ndarray:
    """m(M), the expected maximum of M standard normals, for each entry of M.

    m(M) = a + integral over [a, b] of 1 - Phi(z)^M for any a below and b
    above the mass of Phi^M; a and b are set so that less than 1e-17 of it
    lies outside, and the integral is taken by Gauss-Legendre nodes on [a, b].
    """
    a = ndtri_exp(_LOG_TAIL / M)              # Phi(a)^M = 1e-17
    b = -ndtri_exp(_LOG_TAIL - np.log(M))     # M (1 - Phi(b)) = 1e-17
    z = a[:, None] + (b - a)[:, None] * _NODES
    return a + (b - a) * (-np.expm1(M[:, None] * log_std_normal_cdf(z)) @ _WEIGHTS)


@functools.cache
def _panel_values(p: int) -> np.ndarray:
    """m(M) at the 16 Chebyshev nodes of the panel [4p, 4p + 4] of log M, read-only.

    A panel's values depend on its index alone, so _expected_max runs once
    per panel per process; p ranges over -1 to 175 within _M_RANGE.
    """
    nodes = _PANEL_WIDTH * (p + 0.5 * (1.0 + _CHEB_NODES))
    values = _expected_max(np.exp(nodes))
    values.flags.writeable = False
    return values


def _panel_expected_max(M: np.ndarray) -> np.ndarray:
    """m(M) for each entry of M, by barycentric interpolation in log M.

    Each M >= _PANEL_MIN_M falls in the panel [4p, 4p + 4] of lam = log M
    with p = floor(lam / 4), and each M gets the barycentric interpolant of
    its panel's values at 16 first-kind Chebyshev points (Berrut & Trefethen,
    SIAM Rev. 46:501, 2004); an M whose lam is a node takes that node's
    value. The values come from _panel_values, so _expected_max runs once per
    panel per process, not once per occupied panel per call. Every other M
    goes through _expected_max directly.
    """
    m = np.empty_like(M)
    panel = M >= _PANEL_MIN_M
    if not panel.all():
        m[~panel] = _expected_max(M[~panel])
    lam = np.log(M[panel])
    panels, which = np.unique(np.floor(lam / _PANEL_WIDTH), return_inverse=True)
    nodes = _PANEL_WIDTH * (panels[:, None] + 0.5 * (1.0 + _CHEB_NODES))
    values = np.array([_panel_values(int(p)) for p in panels]).reshape(nodes.shape)[which]
    gap = lam[:, None] - nodes[which]
    on_node = gap == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(_CHEB_WEIGHTS, gap, out=gap)
        inner = np.einsum("ij,ij->i", terms, values) / terms.sum(axis=1)
    if on_node.any():
        row, node = np.nonzero(on_node)
        inner[row] = values[row, node]
    m[panel] = inner
    return m


def expected_best(fit: FitResult, t_f: float) -> ExpectedBest:
    """Posterior-expected best transformed mark over the next t_f years.

    For one draw the best of M = t_f*N/t_m future marks has mean
    mu - sigma*m(M), where m(M) = integral of z dPhi(z)^M is the expected
    maximum of M standard normals (David & Nagaraja, Order Statistics, 2003).
    The expectation is linear in the mixture over draws, so the result is the
    mean of that over the pooled draws. m is computed by 96 Gauss-Legendre
    nodes (_expected_max), but only at 16 Chebyshev points of each width-4
    panel of log M that holds a draw; each draw takes its panel's barycentric
    interpolant, within 2.3e-14 of the per-draw rule for M from 0.05 to
    1e200. A panel's values are computed once per process and reused by every
    later call. Draws with M < 0.05, below that range, keep the per-draw
    rule. Raises HorizonOutOfRange when t_f puts any draw's M outside
    _M_RANGE, before any panel is computed.
    """
    if not (math.isfinite(t_f) and t_f > 0.0):
        raise ValueError(f"expected_best needs a positive forecast horizon, got {t_f}")
    with np.errstate(over="ignore"):  # an M of inf is refused below
        M = t_f * np.exp(fit.pooled_logN) / fit.meta.t_m
    lo, hi = _M_RANGE
    if not (M.min() >= lo and M.max() <= hi):
        raise HorizonOutOfRange(
            f"{fit.event_id}: a horizon of t_f = {t_f:g} years puts M = t_f N / t_m "
            f"at {M.min():.3g} to {M.max():.3g}, outside [{lo:g}, {hi:g}] where the "
            "expected best is computed"
        )
    x = float(np.mean(fit.pooled_mu - fit.pooled_sigma * _panel_expected_max(M)))
    return ExpectedBest(x, decode_mark(fit.meta.event, x))


def score(a: float, event: EventSpec, a0: float) -> float:
    """Points for raw mark `a` on the table anchored at raw mark `a0`."""
    x = encode_mark(event, a)
    x0 = encode_mark(event, a0)
    return ANCHOR_POINTS * (1.0 - (x - x0) / LN2)


def mark_for_points(event: EventSpec, a0: float, points: float) -> float:
    """Raw mark worth `points` on the table anchored at raw mark `a0`.

    Raises PointsOutOfRange when that mark overflows or rounds to 0."""
    x0 = encode_mark(event, a0)
    try:
        raw = decode_mark(event, x0 + (1.0 - points / ANCHOR_POINTS) * LN2)
    except OverflowError:
        raw = math.inf
    if not 0.0 < raw < math.inf:
        raise PointsOutOfRange(f"{event.event_id}: a total of {points} points is worth no "
                               "positive, finite mark")
    return raw


def improvement(a_new: float, a_old: float, event: EventSpec) -> float:
    """Signed relative improvement of a_new over a_old; positive is better."""
    return encode_mark(event, a_old) - encode_mark(event, a_new)


def borrow_population(fit: FitResult, logN: np.ndarray) -> FitResult:
    """The fit with its log N draws replaced by a borrowed population's.

    A mile borrows its population N from the 1500 m: the first min(n, m)
    of the fit's n pooled draws are paired with the first min(n, m) of the
    m borrowed log N draws, both in chain order, so pools of equal size pair
    draw for draw and a fit that lost a chain still borrows. Sigma follows
    from each (mu, borrowed log N) by the tail-mass identity for this
    event's n_k and w_k, and the draws it leaves out of domain are dropped;
    the mpsrf and metadata stay the fit's. Raises NoBorrowedPopulation when
    no draw is kept.
    """
    size = min(fit.pooled_size, len(logN))
    mu, logN = fit.pooled_mu[:size], np.asarray(logN, dtype=float)[:size]
    keep = ~np.isnan(tail_mass_sigma(mu, logN, fit.meta.n_k, fit.meta.w_k))
    if not keep.any():
        raise NoBorrowedPopulation(
            f"{fit.event_id}: no borrowed population draw keeps the tail-mass "
            "identity in-domain"
        )
    return FitResult(mu[keep], logN[keep], fit.mpsrf, fit.meta)


def anchor_mark(fit: FitResult) -> float:
    """Transformed mark whose expected exceedance rate equals ANCHOR_RATE.

    Solved by bisection on the fit's posterior rate curve, expected_exceedances
    with exp(log N)/t_m computed once per call instead of once per step. A
    mile borrowing its 1500 m population is anchored on the fit that
    borrow_population returns.
    """
    mu, sigma = fit.pooled_mu, fit.pooled_sigma
    pop_per_year = np.exp(fit.pooled_logN) / fit.meta.t_m

    def rate(a: float) -> float:
        return float(np.mean(pop_per_year * std_normal_cdf((a - mu) / sigma)))

    def solved(value: float) -> bool:
        return abs(value - ANCHOR_RATE) <= _ANCHOR_REL_TOL * ANCHOR_RATE

    sigma_step = float(np.mean(sigma))
    lo = fit.meta.best_x - 5.0 * sigma_step
    hi = fit.meta.w_k
    r_hi = rate(hi)
    if solved(r_hi):
        return hi
    for _ in range(_ANCHOR_EXPANSIONS):
        if r_hi > ANCHOR_RATE:
            break
        hi += sigma_step
        r_hi = rate(hi)
    else:
        raise AnchorNotFound(
            f"{fit.event_id}: rate only reaches {r_hi:.6g} < {ANCHOR_RATE} "
            f"after extending the bracket to {hi:.6g}"
        )
    r_lo = rate(lo)
    for _ in range(_ANCHOR_EXPANSIONS):
        if r_lo < ANCHOR_RATE:
            break
        lo -= sigma_step
        r_lo = rate(lo)
    else:
        raise AnchorNotFound(
            f"{fit.event_id}: rate already {r_lo:.6g} >= {ANCHOR_RATE} at the "
            f"extended lower bracket {lo:.6g}"
        )
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        r_mid = rate(mid)
        if solved(r_mid):
            return mid
        if r_mid < ANCHOR_RATE:
            lo = mid
        else:
            hi = mid
    raise AnchorNotFound(f"{fit.event_id}: bisection failed to reach the target rate")


@dataclass(frozen=True)
class ScoreTable:
    """One event's scoring table: the 1300-point anchor plus a point grid."""

    event: EventSpec
    a0: float
    rows: tuple[tuple[int, float], ...]
    low_data: bool = False

    @property
    def event_id(self) -> str:
        return self.event.event_id

    @property
    def a0_raw(self) -> float:
        return decode_mark(self.event, self.a0)


def build_score_table(fit: FitResult, points: Sequence[int] = DEFAULT_POINT_GRID) -> ScoreTable:
    a0_x = anchor_mark(fit)
    event = fit.meta.event
    a0_raw = decode_mark(event, a0_x)
    rows = tuple((int(p), mark_for_points(event, a0_raw, p)) for p in sorted(set(points)))
    return ScoreTable(event=event, a0=a0_x, rows=rows, low_data=fit.meta.n_k < 20)


def render_score_tables(tables: Sequence[ScoreTable]) -> str:
    """Tab-separated table text, one event per line, marks event-native."""
    if not tables:
        raise ValueError("no score tables to render")
    grids = {tuple(p for p, _ in t.rows) for t in tables}
    if len(grids) != 1:
        raise ValueError("score tables use differing point grids")
    (grid,) = grids
    lines = ["\t".join(["event"] + [str(p) for p in grid] + ["flags"])]
    for t in tables:
        marks = [format_raw_mark(t.event, raw) for _, raw in t.rows]
        flags = "low_data" if t.low_data else ""
        lines.append("\t".join([t.event_id] + marks + [flags]))
    return "\n".join(lines) + "\n"


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length lists."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d lists")
    if len(x) < 3:
        raise ValueError(f"need at least 3 pairs, got {len(x)}")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.sqrt(np.sum(xd * xd)))
    sy = float(np.sqrt(np.sum(yd * yd)))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelation("a list with zero variance has no correlation")
    r = float(np.sum(xd * yd) / (sx * sy))
    return max(-1.0, min(1.0, r))
