"""Empirical hyperprior construction and the two-pass fitting orchestrator."""
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from tailcast import distcore
from tailcast.distcore import grid_posterior, make_lane_log_posterior
from tailcast.emprior import (
    VARIANCE_FLOOR,
    GridEdgeMass,
    HyperPrior,
    InsufficientEvents,
    Provenance,
    expected_population,
    min_subset_variance,
    pass1_estimate,
    robust_hyperprior,
    two_pass_fit,
)
from tailcast.fitfile import dumps
from tailcast.ingest import EventSpec
from tailcast.sampler import SamplerConfig, fit_event, fit_events
from tailcast.synth import sample_tail, tail_performance_list

import oracles
from conftest import fail_every_init, make_fit, point_mass_fit

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033


def test_weak_prior_constants():
    prior = HyperPrior.weakly_informative()
    assert prior.mu_N == pytest.approx(math.log(10_000.0))
    assert prior.sigma2_N == 4.0
    assert prior.provenance is Provenance.WEAKLY_INFORMATIVE
    assert prior.provenance.value == "weak"
    assert prior.contributing_events == ()


def test_hyperprior_rejects_bad_scale():
    with pytest.raises(ValueError):
        HyperPrior(mu_N=1.0, sigma2_N=0.0, provenance=Provenance.EMPIRICAL)


def _brute_min_variance(values, k):
    return min(
        float(np.var(np.asarray(combo), ddof=1))
        for combo in itertools.combinations(values, k)
    )


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=10,
    ),
    data=st.data(),
)
def test_min_subset_variance_matches_brute_force(values, data):
    k = data.draw(st.integers(min_value=2, max_value=len(values)))
    got = min_subset_variance(values, k)
    want = _brute_min_variance(values, k)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_min_subset_variance_validation():
    with pytest.raises(ValueError):
        min_subset_variance([1.0, 2.0, 3.0], 1)
    with pytest.raises(ValueError):
        min_subset_variance([1.0, 2.0, 3.0], 4)


def _named(estimates):
    """event_id -> estimate, the ids sorting in the order given."""
    return {f"ev{i:02d}": value for i, value in enumerate(estimates)}


def test_robust_hyperprior_known_values():
    prior = robust_hyperprior(_named([1.0, 2.0, 3.0, 4.0]))
    assert prior.mu_N == pytest.approx(2.5)
    # tightest 75% window of {1,2,3,4} has 3 elements, variance 1.0 either way
    assert prior.sigma2_N == pytest.approx(1.0)
    assert prior.provenance is Provenance.EMPIRICAL
    assert prior.provenance.value == "empirical"


def test_robust_hyperprior_variance_floor():
    prior = robust_hyperprior(_named([math.log(50.0)] * 6))
    assert prior.sigma2_N == VARIANCE_FLOOR
    assert prior.mu_N == pytest.approx(math.log(50.0))


def test_robust_hyperprior_ignores_extreme_outlier():
    # nineteen plausible estimates, tied at the middle pair so the median of
    # the twenty logs (outlier sits at the top) is exactly that tied value
    logs = [8.0 + 0.05 * i for i in range(19)]
    logs[10] = logs[9]
    prior = robust_hyperprior(_named(logs + [math.log(2.71e16)]))

    assert prior.mu_N == (logs[9] + logs[10]) / 2.0 == logs[9]
    window = math.ceil(0.75 * 20)
    assert prior.sigma2_N == max(min_subset_variance(logs, window), VARIANCE_FLOOR)
    assert prior.mu_N < math.log(1e6)


def test_robust_hyperprior_discards_unusable():
    estimates = {
        "a": 9.0, "b": math.nan, "c": -math.inf,
        "d": 9.9, "e": 9.5, "f": 9.2,
    }
    with pytest.warns(UserWarning):
        prior = robust_hyperprior(estimates)
    assert set(prior.contributing_events) == {"a", "d", "e", "f"}

    with pytest.warns(UserWarning), pytest.raises(InsufficientEvents):
        robust_hyperprior({"a": 9.0, "b": 9.9, "c": 10.2, "d": math.inf})


def test_robust_hyperprior_needs_four():
    with pytest.raises(InsufficientEvents):
        robust_hyperprior(_named([9.0, 9.9, 10.2]))


def test_expected_population_point_mass():
    fit = point_mass_fit(mu=2.4, sigma=0.03, logN=math.log(5000.0))
    assert expected_population(fit) == pytest.approx(5000.0)


def test_expected_population_overflow_is_inf():
    n = 100
    fit = make_fit(mu=np.full(n, 2.4), logN=np.full(n, 1000.0))
    assert expected_population(fit) == math.inf


def _corpus(n_events=4, keep=120, base_seed=200):
    lists = {}
    for i in range(n_events):
        spec = EventSpec.running(f"ev{i}")
        tail = sample_tail(base_seed + i, MU_STAR, SIGMA_STAR, 20_000, keep)
        lists[spec.event_id] = tail_performance_list(
            spec, tail, 2001, 2020, seed=base_seed + 100 + i
        )
    return lists


TINY = SamplerConfig(
    burn_in_steps=300, batches=120, batch_len=10, chains=2, pool_size=200, seed=17
)


def test_two_pass_needs_four_lists():
    lists = _corpus(n_events=3)
    with pytest.raises(InsufficientEvents):
        two_pass_fit(list(lists.values()), TINY)


def test_fit_events_fit_does_not_depend_on_co_batched_events():
    lists = _corpus(n_events=3)
    a, b, c = lists["ev0"], lists["ev1"], lists["ev2"]
    weak = HyperPrior.weakly_informative()
    abc, failures_abc = fit_events([a, b, c], weak, TINY)
    ca, failures_ca = fit_events([c, a], weak, TINY)
    alone = fit_event(a, weak, TINY)
    assert failures_abc == failures_ca == {}
    assert list(abc) == ["ev0", "ev1", "ev2"] and list(ca) == ["ev2", "ev0"]
    assert dumps(abc["ev0"]) == dumps(ca["ev0"]) == dumps(alone)
    assert dumps(abc["ev2"]) == dumps(ca["ev2"])


def test_fit_events_refuses_a_repeated_event_id():
    lists = _corpus(n_events=2)
    twin = lists["ev1"]
    with pytest.raises(ValueError, match="'ev1'"):
        fit_events([lists["ev0"], twin, twin], HyperPrior.weakly_informative(), TINY)


def test_two_pass_wires_prior_and_estimates():
    lists = _corpus()
    res = two_pass_fit(list(lists.values()), TINY)
    # Pass one is each list's grid mean of log N under the weak prior, and
    # the prior is made from those means.
    assert res.pass1_estimates == {e: pass1_estimate(d) for e, d in lists.items()}
    assert res.prior == robust_hyperprior(res.pass1_estimates)
    assert set(res.prior.contributing_events) == set(lists)
    for eid in lists:
        assert res.fits[eid].meta.prior is res.prior
    assert res.failures == {}
    # Pass two is a fit_events run with the one config, so refitting under
    # the empirical prior reproduces its fits.
    again, failures = fit_events(list(lists.values()), res.prior, TINY)
    assert failures == {}
    assert {e: dumps(f) for e, f in again.items()} == {e: dumps(f) for e, f in res.fits.items()}


def test_two_pass_prior_does_not_depend_on_the_sampler_config():
    # Pass one samples nothing, so another seed or chain budget leaves the
    # prior and the pass-one means as they are.
    lists = list(_corpus().values())
    res = two_pass_fit(lists, TINY)
    other = dataclasses.replace(TINY, seed=TINY.seed + 1, chains=3, batches=60,
                                burn_in_steps=500)
    again = two_pass_fit(lists, other)
    assert again.prior == res.prior
    assert again.pass1_estimates == res.pass1_estimates
    assert dumps(again.fits["ev0"]) != dumps(res.fits["ev0"])


def _fixture_event(i):
    """Event syn<i> of the criterion-5 recovery fixture."""
    tail = sample_tail(55 + i, MU_STAR, SIGMA_STAR, 20_000, 500)
    return tail_performance_list(EventSpec.running(f"syn{i}"), tail, 2001, 2020, seed=155 + i)


def _oracle_moments(data, prior):
    """Posterior mean and covariance of (mu - w_k, log N) over the pass-1
    domain by scipy's adaptive dblquad.

    The integrand is the model's log-posterior summed in closed form over
    the list's count, mean and sum of squares on Python floats, constants
    dropped: an independent route of the kernel's algebra. A coarse scan of
    it finds, for each u, the span of log N outside which the integrand is
    below e^-40 of its peak; dblquad integrates between those spans, widened
    by a scan cell, in (u, log N) with the Jacobian e^u as the package's
    grid does, but with adaptive Gauss-Kronrod rules instead of midpoints.
    The second moments are taken about the mean.
    """
    n, w_k = data.n_k, data.w_k
    marks = np.asarray(data.marks)
    mean = float(marks.mean())
    sum_sq = float(((marks - mean) ** 2).sum())
    y_lo = math.log(2.0 * n)

    def log_f(log_n, u):
        mu = w_k + math.exp(u)
        q = n * math.exp(-log_n)
        sigma = (w_k - mu) / float(special.ndtri(q))
        # n truncated-normal densities, each divided by the tail mass q
        data_term = (-n * math.log(sigma) - (sum_sq + n * (mean - mu) ** 2) / (2 * sigma * sigma)
                     - n * math.log(q))
        return data_term - (log_n - prior.mu_N) ** 2 / (2.0 * prior.sigma2_N) + u

    us, ys = np.linspace(-14.0, 1.0, 301), np.linspace(y_lo, 30.0, 301)[1:]
    scan = np.array([[log_f(y, u) for y in ys] for u in us])
    peak = scan.max()
    inside = scan > peak - 40.0
    rows = np.nonzero(inside.any(axis=1))[0]
    du, dy = us[1] - us[0], ys[1] - ys[0]

    def span(u):
        # the scan rows on both sides of u, and one more on each side
        near = inside[max(int((u + 14.0) / du) - 1, 0):int((u + 14.0) / du) + 3]
        cols = np.nonzero(near.any(axis=0))[0]
        if not len(cols):
            return y_lo, y_lo
        return max(ys[cols[0]] - dy, y_lo), min(ys[cols[-1]] + dy, 30.0)

    u_edges = np.linspace(max(us[rows[0]] - du, -14.0), min(us[rows[-1]] + du, 1.0), 5)

    def integral(moment):
        """The integral of moment(d, log N) times the posterior density."""
        return sum(
            integrate.dblquad(lambda y, u: moment(math.exp(u), y) * math.exp(log_f(y, u) - peak),
                              u0, u1, lambda u: span(u)[0], lambda u: span(u)[1],
                              epsabs=0.0, epsrel=1e-8)[0]
            for u0, u1 in zip(u_edges, u_edges[1:]))

    mass = integral(lambda d, y: 1.0)
    m_d, m_y = integral(lambda d, y: d) / mass, integral(lambda d, y: y) / mass
    cross = integral(lambda d, y: (d - m_d) * (y - m_y)) / mass
    cov = np.array([[integral(lambda d, y: (d - m_d) ** 2) / mass, cross],
                    [cross, integral(lambda d, y: (y - m_y) ** 2) / mass]])
    return np.array([m_d, m_y]), cov


@functools.cache
def _fixture_moments(i, prior):
    return _oracle_moments(_fixture_event(i), prior)


# About where pass 1 puts the criterion-5 fixture's empirical prior.
FIXTURE_PRIOR = HyperPrior(mu_N=10.30, sigma2_N=0.056, provenance=Provenance.EMPIRICAL)


@pytest.mark.parametrize("i", [0, 4])
def test_pass1_estimate_matches_dblquad(i):
    # Tolerance fixed before the first run.
    data = _fixture_event(i)
    oracle = _fixture_moments(i, HyperPrior.weakly_informative())[0][1]
    assert abs(pass1_estimate(data) - oracle) <= 1e-4


@pytest.mark.parametrize("prior", [HyperPrior.weakly_informative(), FIXTURE_PRIOR],
                         ids=["weak", "empirical"])
@pytest.mark.parametrize("i", [0, 4])
def test_grid_posterior_matches_dblquad(i, prior):
    # Tolerance fixed before the first run: each mean within 1e-3 of its
    # posterior sd, each covariance entry within 1e-3 of sd_i * sd_j.
    want_mean, want_cov = _fixture_moments(i, prior)
    mean, cov, _ = grid_posterior(_fixture_event(i), prior)
    sd = np.sqrt(np.diag(want_cov))
    assert np.all(np.abs(np.array(mean) - want_mean) <= 1e-3 * sd)
    assert np.all(np.abs(cov - want_cov) <= 1e-3 * np.outer(sd, sd))


def _grid_case(keep):
    """A list of `keep` marks: from a population of 20 000 up to 500 marks,
    of 200 000 above."""
    population = 20_000 if keep <= 500 else 200_000
    tail = sample_tail(70 + keep % 97, MU_STAR, SIGMA_STAR, population, keep)
    return tail_performance_list(EventSpec.running(f"n{keep}"), tail, 2001, 2020, seed=1)


# A 1e-4-variance prior one unit of log N above FIXTURE_PRIOR.
TIGHT_PRIOR = HyperPrior(mu_N=11.30, sigma2_N=1e-4, provenance=Provenance.EMPIRICAL)


@pytest.mark.parametrize("prior", [HyperPrior.weakly_informative(), FIXTURE_PRIOR, TIGHT_PRIOR],
                         ids=["weak", "empirical", "tight"])
@pytest.mark.parametrize("keep", [3, 60, 280, 500, 2000, 20_000])
def test_grid_posterior_matches_the_cell_by_cell_grid(keep, prior):
    # The columns of the weak-prior grid, reweighted to `prior`, against the
    # grid scored under `prior` itself. Tolerance fixed before the first run:
    # each mean within 1e-9 of its posterior sd, each covariance entry within
    # 1e-9 of sd_i * sd_j, each edge mass within 1e-12. Every case spans more
    # than one grid cell; a posterior inside one u-cell (100 000 marks under
    # a 1e-4 prior at log N = 16, say) has a singular covariance either way.
    data = _grid_case(keep)
    want_mean, want_cov, want_edges = oracles.grid_posterior(data, prior)
    mean, cov, edges = grid_posterior(data, prior)
    sd = np.sqrt(np.diag(want_cov))
    assert np.all(np.abs(np.array(mean) - want_mean) <= 1e-9 * sd)
    assert np.all(np.abs(cov - want_cov) <= 1e-9 * np.outer(sd, sd))
    assert edges.keys() == want_edges.keys()
    for edge, share in edges.items():
        assert share == pytest.approx(want_edges[edge], rel=1e-9, abs=1e-12), edge


def test_two_pass_scores_each_grid_once(monkeypatch):
    # Pass 1 and the pass-2 proposals read one scoring of each list's grid.
    scored = []

    def counting(data):
        scored.append(data.event.event_id)
        return columns(data)

    columns = distcore.grid_columns
    monkeypatch.setattr(distcore, "grid_columns", counting)
    lists = list(_corpus(n_events=5, base_seed=400).values())
    two_pass_fit(lists, TINY)
    assert sorted(scored) == [f"ev{i}" for i in range(5)]


def test_fit_events_fails_only_the_event_with_a_singular_grid_covariance():
    # Under a prior at log N = 8, all of whose mass lies below log 2 n_k, a
    # 20 000-mark list's grid posterior sits in the first log N column.
    prior = HyperPrior(mu_N=8.0, sigma2_N=1e-4, provenance=Provenance.EMPIRICAL)
    big = tail_performance_list(EventSpec.running("big"),
                                sample_tail(5, MU_STAR, SIGMA_STAR, 200_000, 20_000),
                                2001, 2020, seed=6)
    small = tail_performance_list(EventSpec.running("small"),
                                  sample_tail(7, MU_STAR, SIGMA_STAR, 3_000, 100),
                                  2001, 2020, seed=8)
    fits, failures = fit_events([small, big], prior, TINY)
    assert list(fits) == ["small"]
    assert list(failures) == ["big"]
    assert failures["big"].startswith("big: the grid posterior's covariance ")
    assert failures["big"].endswith(" is not positive definite")


def _wide_event():
    """A list whose mu - w_k, about 6 at its true N, lies past the grid's u = 1."""
    tail = sample_tail(31, 0.0, 3.0, 2_000, 50)
    return tail_performance_list(EventSpec.running("wide"), tail, 2001, 2020, seed=32)


def test_pass1_estimate_names_a_cut_edge_holding_mass():
    with pytest.raises(GridEdgeMass, match="wide: .* on the grid edge u = 1$"):
        pass1_estimate(_wide_event())


def test_two_pass_leaves_an_edge_event_out_of_the_prior():
    lists = _corpus()
    res = two_pass_fit([*lists.values(), _wide_event()], TINY)
    assert "wide" not in res.pass1_estimates
    assert set(res.prior.contributing_events) == set(lists)
    assert res.failures["wide"].startswith("wide: ")
    assert "on the grid edge u = 1" in res.failures["wide"].split("; pass 2: ")[0]


def test_two_pass_notes_each_pass_2_failure(monkeypatch):
    # ev1 fails pass 2 alone; wide, already out of the prior, fails it too,
    # and its note keeps the pass-1 reason first.
    lists = _corpus()
    with pytest.raises(GridEdgeMass) as edge:
        pass1_estimate(_wide_event())
    fail_every_init(monkeypatch, "ev1", "wide")
    res = two_pass_fit([*lists.values(), _wide_event()], TINY)
    assert res.failures == {
        "wide": f"{edge.value}; pass 2: wide: 2 of 2 chains failed",
        "ev1": "pass 2: ev1: 2 of 2 chains failed",
    }
    assert list(res.fits) == ["ev0", "ev2", "ev3"]
    assert set(res.prior.contributing_events) == set(lists)


def _grid_log_n_moments(data, prior):
    """Posterior mean and sd of log N on the pass-1 grid's domain (400 x 400
    midpoints), from the lane kernel scoring the whole block at once."""
    u = -14.0 + (np.arange(400) + 0.5) * (15.0 / 400)
    y_lo = math.log(2.0 * data.n_k)
    y = y_lo + (np.arange(400) + 0.5) * ((30.0 - y_lo) / 400)
    with np.errstate(all="ignore"):
        lp = make_lane_log_posterior([data], prior)((data.w_k + np.exp(u))[:, None], y)
    lp += u[:, None]
    weight = np.exp(lp - lp.max()).sum(axis=0)
    mean = float(weight @ y / weight.sum())
    return mean, math.sqrt(float(weight @ (y - mean) ** 2 / weight.sum()))


def test_two_pass_shrinks_pathological_event():
    # Five 300-mark events plus a six-mark cluster. The sd-2 weak prior
    # already keeps the six-mark event's population finite; the empirical
    # prior must still narrow its log N at least twofold and keep its E[N]
    # within 10x of the truth. Bounds fixed before the first run.
    lists = {}
    for i in range(5):
        spec = EventSpec.running(f"sane{i}")
        tail = sample_tail(200 + i, MU_STAR, SIGMA_STAR, 20_000, 300)
        lists[spec.event_id] = tail_performance_list(spec, tail, 2001, 2020, seed=300 + i)
    spec = EventSpec.running("patho")
    lists["patho"] = tail_performance_list(
        spec, sample_tail(999, MU_STAR, SIGMA_STAR, 20_000, 6), 2016, 2020, seed=998
    )

    config = SamplerConfig(
        burn_in_steps=400, batches=200, batch_len=10, chains=3, pool_size=400, seed=17
    )
    res = two_pass_fit(list(lists.values()), config)
    assert res.failures == {}

    data = lists["patho"]
    mean1, sd1 = _grid_log_n_moments(data, HyperPrior.weakly_informative())
    assert mean1 == pytest.approx(res.pass1_estimates["patho"], abs=1e-12)
    assert sd1 / _grid_log_n_moments(data, res.prior)[1] >= 2.0
    assert expected_population(res.fits["patho"]) == pytest.approx(20_000.0, rel=9.0)
