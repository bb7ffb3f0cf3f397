"""Empirical hyperprior construction and the two-pass fitting orchestrator."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcast.emprior import (
    VARIANCE_FLOOR,
    WEAK_MU_N,
    WEAK_SIGMA2_N,
    HyperPrior,
    InsufficientEvents,
    Provenance,
    event_seed,
    expected_population,
    fit_corpus,
    min_subset_variance,
    robust_hyperprior,
    two_pass_fit,
)
from tailcast.fitfile import dumps
from tailcast.ingest import EventSpec
from tailcast.sampler import SamplerConfig, fit_event
from tailcast.synth import sample_tail, tail_performance_list

from conftest import make_fit, point_mass_fit

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033


def test_weak_prior_constants():
    prior = HyperPrior.weakly_informative()
    assert prior.mu_N == WEAK_MU_N == pytest.approx(math.log(10_000.0))
    assert prior.sigma2_N == WEAK_SIGMA2_N
    assert prior.provenance is Provenance.WEAKLY_INFORMATIVE
    assert prior.provenance_name == "weak"
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
    prior = robust_hyperprior(_named([math.e, math.e**2, math.e**3, math.e**4]))
    assert prior.mu_N == pytest.approx(2.5)
    # tightest 75% window of {1,2,3,4} has 3 elements, variance 1.0 either way
    assert prior.sigma2_N == pytest.approx(1.0)
    assert prior.provenance is Provenance.EMPIRICAL
    assert prior.provenance_name == "empirical"


def test_robust_hyperprior_variance_floor():
    prior = robust_hyperprior(_named([50.0] * 6))
    assert prior.sigma2_N == VARIANCE_FLOOR
    assert prior.mu_N == pytest.approx(math.log(50.0))


def test_robust_hyperprior_ignores_extreme_outlier():
    # nineteen plausible estimates, tied at the middle pair so the median of
    # the twenty logs (outlier sits at the top) is exactly that tied value
    logs = [8.0 + 0.05 * i for i in range(19)]
    logs[10] = logs[9]
    sane = [math.exp(v) for v in logs]
    prior = robust_hyperprior(_named(sane + [2.71e16]))

    assert prior.mu_N == (logs[9] + logs[10]) / 2.0 == logs[9]
    window = math.ceil(0.75 * 20)
    assert prior.sigma2_N == max(min_subset_variance(logs, window), VARIANCE_FLOOR)
    assert prior.mu_N < math.log(1e6)


def test_robust_hyperprior_discards_unusable():
    estimates = {
        "a": 10.0, "b": math.nan, "c": -3.0,
        "d": 20.0, "e": 15.0, "f": 12.0,
    }
    with pytest.warns(UserWarning):
        prior = robust_hyperprior(estimates)
    assert set(prior.contributing_events) == {"a", "d", "e", "f"}

    with pytest.warns(UserWarning), pytest.raises(InsufficientEvents):
        robust_hyperprior({"a": 10.0, "b": 20.0, "c": 30.0, "d": math.inf})


def test_robust_hyperprior_needs_four():
    with pytest.raises(InsufficientEvents):
        robust_hyperprior(_named([10.0, 20.0, 30.0]))


def test_event_seed_properties():
    s = event_seed(0, "mens100m")
    assert s == event_seed(0, "mens100m")
    assert 0 <= s < 2**31
    assert s != event_seed(0, "mens200m")
    assert s != event_seed(5, "mens100m")


def test_expected_population_point_mass():
    fit = point_mass_fit(mu=2.4, sigma=0.03, logN=math.log(5000.0))
    assert expected_population(fit) == pytest.approx(5000.0)


def test_expected_population_overflow_is_inf():
    n = 100
    fit = make_fit(
        mu=np.full(n, 2.4), logN=np.full(n, 1000.0), sigma=np.full(n, 0.03)
    )
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
        two_pass_fit(list(lists.values()), TINY, t_m=1.0)


def test_fit_corpus_fit_does_not_depend_on_co_batched_events():
    lists = _corpus(n_events=3)
    a, b, c = lists["ev0"], lists["ev1"], lists["ev2"]
    weak = HyperPrior.weakly_informative()
    abc, failures_abc = fit_corpus([a, b, c], weak, TINY, t_m=1.0)
    ca, failures_ca = fit_corpus([c, a], weak, TINY, t_m=1.0)
    alone = fit_event(a, weak, dataclasses.replace(TINY, seed=event_seed(TINY.seed, "ev0")),
                      t_m=1.0)
    assert failures_abc == failures_ca == {}
    assert list(abc) == ["ev0", "ev1", "ev2"] and list(ca) == ["ev2", "ev0"]
    assert dumps(abc["ev0"]) == dumps(ca["ev0"]) == dumps(alone)
    assert dumps(abc["ev2"]) == dumps(ca["ev2"])


def test_fit_corpus_refuses_a_repeated_event_id():
    lists = _corpus(n_events=2)
    twin = lists["ev1"]
    with pytest.raises(ValueError, match="'ev1'"):
        fit_corpus([lists["ev0"], twin, twin], HyperPrior.weakly_informative(), TINY, t_m=1.0)


def test_two_pass_wires_prior_and_estimates():
    lists = _corpus()
    res = two_pass_fit(list(lists.values()), TINY, t_m=1.0)
    assert res.prior.provenance is Provenance.EMPIRICAL
    assert set(res.prior.contributing_events) == set(lists)
    assert set(res.pass1_estimates) == set(lists)
    for eid in lists:
        assert res.fits[eid].meta.prior is res.prior
        assert res.pass1_fits[eid].meta.prior.provenance is Provenance.WEAKLY_INFORMATIVE
    assert res.failures == {}
    # Pass two is a fit_corpus run with the one config and per-event seeds,
    # so refitting under the empirical prior reproduces its fits.
    again, failures = fit_corpus(list(lists.values()), res.prior, TINY, t_m=1.0)
    assert failures == {}
    assert {e: dumps(f) for e, f in again.items()} == {e: dumps(f) for e, f in res.fits.items()}


def test_two_pass_weak_second_prior_reproduces_pass_one():
    # A second pass run under the weak prior is fit_corpus with the same
    # config and per-event seeds as pass one, so it reproduces pass one.
    lists = _corpus()
    res = two_pass_fit(list(lists.values()), TINY, t_m=1.0)
    weak = HyperPrior.weakly_informative()
    again, failures = fit_corpus(list(lists.values()), weak, TINY, t_m=1.0)
    assert failures == {}
    for eid in lists:
        assert again[eid].meta.prior.provenance is Provenance.WEAKLY_INFORMATIVE
        assert np.array_equal(again[eid].pooled_mu, res.pass1_fits[eid].pooled_mu)
        assert np.array_equal(again[eid].pooled_logN, res.pass1_fits[eid].pooled_logN)
        assert again[eid].mpsrf == res.pass1_fits[eid].mpsrf
        assert dumps(again[eid]) == dumps(res.pass1_fits[eid])


def test_two_pass_shrinks_pathological_event():
    # five well-identified events plus one six-mark cluster that the weak
    # prior lets wander to an absurd population size; the empirical prior
    # must haul it back by orders of magnitude while moving the others far
    # less (bounds measured on this design, see rng seeds)
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
    res = two_pass_fit(list(lists.values()), config, t_m=1.0)
    assert res.failures == {}

    pass1 = res.pass1_estimates
    pass2 = {eid: expected_population(res.fits[eid]) for eid in lists}

    assert pass1["patho"] > 1e8  # ridge blow-up under the weak prior
    assert pass1["patho"] / pass2["patho"] > 1e3
    assert pass2["patho"] == pytest.approx(20_000.0, rel=9.0)  # back within 10x
    for i in range(5):
        eid = f"sane{i}"
        move = max(pass1[eid] / pass2[eid], pass2[eid] / pass1[eid])
        assert move < 4.0
