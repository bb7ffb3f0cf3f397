"""Slow reference routes that the shipped numerical kernels are checked against.

`log_posterior` scores theta = (mu, log N) the long way: the tail-mass
identity in scalar form, then the truncated-normal log-density mark by mark,
summed exactly with math.fsum. It shares no code with distcore's kernel
beyond scipy's normal functions.

`grid_columns` scores one list's whole grid, every cell of it, and sums
it per log N column: the reference for distcore.grid_columns, which
scores only the band of u-rows that can rise above its floor and must
give the same columns bit for bit.

`grid_posterior` integrates one list's grid the direct way: every cell
scored under the prior itself, against one running peak over the whole
grid, with the moments taken from per-row and per-column sums. It is the
reference for distcore.grid_posterior, which scores each list once and
reweights its log N columns to the prior.

`tail_mass_quotient` and `tail_mass_domain` state the tail-mass identity
in two parts: the bare quotient, and a separate mask of the draws where it
is the model's sigma. distcore.tail_mass_sigma must be the quotient on the
mask and nan off it.

`panel_expected_max` is the joint panel rule of stats.expected_best: every
occupied panel's Chebyshev nodes go through one _expected_max call, with no
values kept between calls. stats._panel_expected_max takes each panel's
values from a per-process cache and must match it bit for bit.

`geyer_ess` is the effective sample size of one series of draws, by
Geyer's initial monotone sequence estimator: the yardstick of the
Monte-Carlo error of a fit's pooled draws.

`parse_time` is the earlier reading of a `[[H:]M:]S[.fff]` time: split on
colons, each field matched by a pattern built for its position, the total
summed after every field is checked. ingest.parse_time must give the same
value or refuse with the same message.

`build_performance_list` is the earlier record-by-record list builder: each
record kept if `DateWindow.contains` its date, the kept records sorted, and
the record taken as the best of the window's marks and of every mark dated
before the window's start, each encoded again; the list's columns are then
read off the sorted records. ingest.build_performance_list and
PerformanceList.within must give an equal list, or refuse with the same
message. `t_m` is the earlier span of a list, from its window or its dates.

`read_list_file` is the earlier line-by-line reader of a list file: a
`RawMark` per row, its date read by `date.fromisoformat` once the text is
checked to be ASCII `YYYY-MM-DD`. `load_performance_list` feeds it to the
builder above. ingest.load_performance_list, which parses columns and
builds no record, must give an equal list, or refuse with the same
exception and message.
"""
import datetime as dt
import math
import re
from pathlib import Path

import numpy as np
from scipy import special

from tailcast.distcore import (
    _GRID_BLOCK,
    _GRID_SHAPE,
    _LOG_N_MAX,
    _U_RANGE,
    _WEAK,
    _grid_log_n,
    _midpoints,
    make_lane_log_posterior,
)
from tailcast.ingest import (
    _DIRECTION_TOKENS,
    _UNIT_TOKENS,
    EmptyListError,
    EventSpec,
    MarkParseError,
    PerformanceList,
    RawMark,
    Unit,
    encode_mark,
)
from tailcast.stats import (
    _CHEB_NODES,
    _CHEB_WEIGHTS,
    _PANEL_MIN_M,
    _PANEL_WIDTH,
    _expected_max,
)

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


def tail_mass_quotient(mu, log_n_pop, n_k: int, w_k: float):
    """(w_k - mu) / Phi^-1(n_k/N) elementwise, unmasked."""
    return (w_k - mu) / special.ndtri(n_k * np.exp(-log_n_pop))


def tail_mass_domain(mu, log_n_pop, n_k: int, w_k: float):
    """Mask of the draws inside the tail-mass identity's domain: w_k < mu,
    0 < n_k/N < 0.5, log N < 700 (the bound of log_posterior), and a
    quotient that is positive and finite."""
    with np.errstate(all="ignore"):
        sigma = tail_mass_quotient(mu, log_n_pop, n_k, w_k)
    return (mu > w_k) & (log_n_pop < 700.0) & (sigma > 0.0) & (sigma < np.inf)


def panel_expected_max(M):
    """m(M) by barycentric interpolation on the width-4 panels of log M that
    hold an M >= _PANEL_MIN_M, all panels' nodes evaluated in one
    _expected_max call; _expected_max directly below _PANEL_MIN_M."""
    m = np.empty_like(M)
    panel = M >= _PANEL_MIN_M
    m[~panel] = _expected_max(M[~panel])
    lam = np.log(M[panel])
    panels, which = np.unique(np.floor(lam / _PANEL_WIDTH), return_inverse=True)
    nodes = _PANEL_WIDTH * (panels[:, None] + 0.5 * (1.0 + _CHEB_NODES))
    values = _expected_max(np.exp(nodes.ravel())).reshape(nodes.shape)[which]
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


def geyer_ess(x) -> float:
    """Effective sample size of the series x: n / tau, tau = -1 + 2 sum_m
    Gamma_m over the sums Gamma_m = rho_2m + rho_2m+1 of adjacent
    autocorrelations, taken while positive and made non-increasing (Geyer
    1992, Stat. Sci. 7:473). The autocovariance is one FFT, zero-padded
    against wrap-around."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x - x.mean(), size)
    acov = np.fft.irfft(spectrum * spectrum.conj(), size)[:n]
    pairs = (acov[:n - n % 2] / acov[0]).reshape(-1, 2).sum(axis=1)
    positive = pairs > 0.0
    m = len(pairs) if positive.all() else int(np.argmin(positive))
    tau = -1.0 + 2.0 * np.minimum.accumulate(pairs[:m]).sum()
    return n / tau


def grid_columns(data) -> np.ndarray:
    """distcore.grid_columns with every cell of the grid scored: each block
    of _GRID_BLOCK log N columns in one kernel call over all u-rows."""
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
        for first in range(0, n_y, _GRID_BLOCK):
            block = slice(first, first + _GRID_BLOCK)
            target(mu, y[block], out=weight)
            weight += u
            columns[0, block] = top = weight.max(axis=0)
            np.maximum(np.subtract(weight, top, out=weight), -600.0, out=weight)
            np.exp(weight, out=weight)
            columns[1:4, block] = powers @ weight
            columns[4:, block] = weight[[0, -1]]
    return columns


def grid_posterior(data, prior):
    """Posterior mean and covariance of (d, log N), d = mu - w_k, and each
    cut edge's share of the mass, on distcore's grid under `prior`: the
    return value of distcore.grid_posterior, computed cell by cell."""
    n_u, n_y = _GRID_SHAPE
    u = _midpoints(*_U_RANGE, n_u)
    y = _midpoints(math.log(2.0 * data.n_k), _LOG_N_MAX, n_y)
    target = make_lane_log_posterior([data], prior)
    # Mass and log N moment per u-row and mass per log N column, relative to
    # exp(peak), the largest weight so far: each block of rows rescales what
    # came before it.
    by_u, y_by_u, by_y, peak = np.zeros(n_u), np.zeros(n_u), np.zeros(n_y), -math.inf
    block_rows = 25
    weight = np.empty((block_rows, n_y))
    with np.errstate(all="ignore"):
        for first in range(0, n_u, block_rows):
            block = slice(first, first + block_rows)
            rows = u[block, None]
            target(data.w_k + np.exp(rows), y, out=weight)
            weight += rows
            top = weight.max()
            if top > peak:
                for sums in (by_u, y_by_u, by_y):
                    sums *= math.exp(peak - top)
                peak = top
            np.exp(np.subtract(weight, peak, out=weight), out=weight)
            by_u[block] = weight.sum(axis=1)
            y_by_u[block] = weight @ y
            by_y += weight.sum(axis=0)
    total = float(by_u.sum())
    d = np.exp(u)
    mean_d, mean_y = float(by_u @ d) / total, float(by_y @ y) / total
    dev_d, dev_y = d - mean_d, y - mean_y
    cross = float(dev_d @ (y_by_u - by_u * mean_y)) / total
    cov = np.array([[float(by_u @ (dev_d * dev_d)) / total, cross],
                    [cross, float(by_y @ (dev_y * dev_y)) / total]])
    edge_mass = {f"u = {_U_RANGE[0]:g}": float(by_u[0]) / total,
                 f"u = {_U_RANGE[1]:g}": float(by_u[-1]) / total,
                 f"log N = {_LOG_N_MAX:g}": float(by_y[-1]) / total}
    return (mean_d, mean_y), cov, edge_mass


def parse_time(text: str) -> float:
    raw = text.strip()
    parts = raw.split(":")
    if not raw or len(parts) > 3 or any(p == "" for p in parts):
        raise MarkParseError(f"malformed time {text!r}")
    names = ("hours", "minutes", "seconds")[3 - len(parts):]
    values = []
    for name, part in zip(names, parts):
        is_last = name == "seconds"
        pattern = r"\d+(\.\d+)?" if is_last else r"\d+"
        if not re.fullmatch(pattern, part):
            raise MarkParseError(f"invalid {name} field {part!r} in {text!r}")
        v = float(part)
        if name != names[0] and v >= 60.0:
            raise MarkParseError(f"{name} field {part!r} must be < 60 in {text!r}")
        values.append(v)
    total = 0.0
    for v in values:
        total = total * 60.0 + v
    return total


def build_performance_list(event, records, window=None) -> PerformanceList:
    kept = [r for r in records if window is None or window.contains(r.date)]
    if not kept:
        raise EmptyListError(f"{event.event_id}: no records inside the requested window")
    decorated = sorted((encode_mark(event, r.value), r.date, r.athlete or "", i)
                       for i, r in enumerate(kept))
    marks = tuple(d[0] for d in decorated)
    earlier = [] if window is None or window.start is None else [
        encode_mark(event, r.value) for r in records if r.date < window.start]
    record = min([marks[0], *earlier])
    ordered = tuple(kept[d[3]] for d in decorated)
    names = tuple(r.athlete for r in ordered)
    data = PerformanceList(event=event, marks=marks,
                           values=np.array([r.value for r in ordered], dtype=np.float64),
                           days=np.array([r.date.toordinal() for r in ordered], dtype=np.int64),
                           athletes=names if any(a is not None for a in names) else None,
                           record=record, window=window)
    # its records are these sorted ones, not the ones the shipped class
    # would build from the columns on first read
    data.__dict__["records"] = ordered
    return data


def t_m(data) -> float:
    if data.window is not None and data.window.start is not None:
        return float(data.window.end.year - data.window.start.year)
    dates = [r.date for r in data.records]
    return max((max(dates) - min(dates)).days / 365.25, 1.0)


def _iso_date(text: str) -> dt.date:
    digits = text[:4] + text[5:7] + text[8:]
    if len(text) == 10 and text[4] == text[7] == "-" and digits.isascii() and digits.isdigit():
        try:
            return dt.date.fromisoformat(text)
        except ValueError:
            pass
    raise MarkParseError(f"invalid ISO date {text!r}")


def read_list_file(path):
    path = Path(path)
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    rows = []
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MarkParseError(f"{path.name}: not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})") from None
    except OSError as exc:
        raise MarkParseError(f"{path.name}: cannot be read: {exc.strerror or exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            body = line.lstrip()[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
                header_lines[key.strip()] = lineno
            continue
        cells = line.split("\t")
        if len(cells) < 2:
            raise MarkParseError(f"{path.name}:{lineno}: expected value<TAB>date, got {line!r}")
        athlete = cells[2].strip() if len(cells) > 2 and cells[2].strip() else None
        rows.append((lineno, cells[0].strip(), cells[1].strip(), athlete))

    try:
        direction = _DIRECTION_TOKENS[header.get("direction", "").lower()]
    except KeyError:
        raise MarkParseError(f"{path.name}: header must declare direction=lower|higher")
    unit_token = header.get("unit", "").lower()
    if unit_token not in _UNIT_TOKENS:
        raise MarkParseError(f"{path.name}: header must declare unit= one of {sorted(_UNIT_TOKENS)}")
    unit, scale = _UNIT_TOKENS[unit_token]
    try:
        event = EventSpec(header.get("event", path.stem), direction, unit,
                          header.get("display_name", ""))
    except ValueError as exc:
        lineno = max(header_lines[k] for k in ("event", "unit", "direction") if k in header_lines)
        raise MarkParseError(f"{path.name}:{lineno}: {exc}") from None

    records = []
    for lineno, value_text, date_text, athlete in rows:
        try:
            if unit is Unit.SECONDS:
                value = parse_time(value_text)
            else:
                try:
                    value = float(value_text) * scale
                except ValueError:
                    raise MarkParseError(f"invalid mark value {value_text!r}") from None
            records.append(RawMark(value=value, date=_iso_date(date_text), athlete=athlete))
        except (MarkParseError, ValueError) as exc:
            raise MarkParseError(f"{path.name}:{lineno}: {exc}") from None
    return event, records


def load_performance_list(path, window=None) -> PerformanceList:
    event, records = read_list_file(path)
    try:
        return build_performance_list(event, records, window)
    except EmptyListError:
        raise EmptyListError(f"{event.event_id}: no records from {Path(path).name} inside the "
                             "requested window") from None
