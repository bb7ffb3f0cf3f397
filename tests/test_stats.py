"""Forecast statistics: exceedance rates, record probabilities, scoring."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import log_ndtr, ndtri

from tailcast.distcore import std_normal_cdf, tail_mass_sigma
from tailcast.ingest import EventSpec
from tailcast.stats import (
    ANCHOR_RATE,
    AnchorNotFound,
    HorizonOutOfRange,
    NoBorrowedPopulation,
    PointsOutOfRange,
    UndefinedCorrelation,
    anchor_mark,
    borrow_population,
    build_score_table,
    expected_best,
    expected_exceedances,
    improvement,
    mark_for_points,
    pearson,
    record_probability,
    render_score_tables,
    score,
)
from tailcast.stats import _CHEB_NODES, _expected_max, _panel_expected_max, _panel_values

from conftest import field_event, make_fit, point_mass_fit, running_event
from oracles import panel_expected_max

MU = math.log(11.28)
SIG = 0.033
N_K = 300
N_POP = 20_000
W_K = MU + SIG * ndtri(N_K / N_POP)

# expected minimum of M i.i.d. standard normals, frozen from a quadrature
# evaluation of the order-statistic integral in a scratch session
EXPECTED_MIN = {
    10: -1.5387527308351727,
    100: -2.5075936364416838,
    1000: -3.241435769133471,
}
ONE_MINUS_INV_E_ISH = 0.632120742768355  # 1 - (1 - 1e-6)^1e6


def event_fit(**kwargs):
    defaults = dict(n_k=N_K, best_x=MU - 0.15)
    defaults.update(kwargs)
    return point_mass_fit(MU, SIG, math.log(N_POP), **defaults)


def unit_fit(M):
    # M = N / t_m future marks per year of horizon; a span of 1000 years keeps
    # one listed mark below half the population for M down to 0.05
    t_m = 1000.0
    return point_mass_fit(0.0, 1.0, math.log(M * t_m), n_k=1, t_m=t_m, best_x=-4.0)


def test_horizon_and_span_validation():
    good = point_mass_fit(MU, SIG, 9.0, n_k=N_K, t_m=2.5)
    assert 0.0 <= record_probability(good, MU, 1.0) <= 1.0
    for t_f in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_f must be a nonnegative number of years"):
            record_probability(good, MU, t_f)
    for t_f in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive forecast horizon"):
            expected_best(good, t_f)
    for t_m in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_m must be a positive number of years"):
            point_mass_fit(MU, SIG, 9.0, t_m=t_m)

    # an unconverged fit still forecasts; warning about it is the caller's job
    bad = point_mass_fit(MU, SIG, 9.0, n_k=N_K, mpsrf=2.0)
    assert 0.0 <= record_probability(bad, MU, 1.0) <= 1.0
    assert math.isfinite(expected_best(bad, 1.0).x)


def test_exceedances_point_mass_analytic():
    fit = event_fit()
    for a in (W_K - 0.05, W_K - 0.02, W_K):
        want = N_POP * std_normal_cdf((a - MU) / SIG)
        assert expected_exceedances(fit, a) == pytest.approx(want, rel=1e-12)


def test_exceedances_tail_mass_identity_at_worst_mark():
    # the sampler derives sigma from the identity, so the rate at w_k must
    # reproduce n_k/t_m to numerical precision
    fit = event_fit()
    assert expected_exceedances(fit, W_K) == pytest.approx(N_K, rel=1e-12)
    half = event_fit(t_m=2.0)
    assert expected_exceedances(half, W_K) == pytest.approx(N_K / 2.0, rel=1e-12)


def test_exceedances_limits_and_monotonicity():
    fit = event_fit()
    assert expected_exceedances(fit, MU - 40.0) == 0.0
    grid = np.linspace(MU - 0.3, W_K, 50)
    rates = [expected_exceedances(fit, a) for a in grid]
    assert all(r >= 0.0 for r in rates)
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_exceedances_match_simulated_seasons():
    # independent oracle: draw whole seasons of performances and count them
    pop, a = 500, -2.5
    fit = point_mass_fit(0.0, 1.0, math.log(pop), n_k=10, best_x=-4.0)
    rng = np.random.default_rng(91)
    seasons, chunk, total = 200_000, 2_000, 0
    for _ in range(seasons // chunk):
        draws = rng.standard_normal((chunk, pop))
        total += int(np.count_nonzero(draws < a))
    simulated = total / seasons
    assert expected_exceedances(fit, a) == pytest.approx(simulated, rel=0.05)


def test_record_probability_limits():
    fit = event_fit()
    assert record_probability(fit, MU - 40.0, 2.0) == 0.0
    assert record_probability(fit, MU, 2.0) > 1.0 - 1e-12  # population median
    grid = np.linspace(MU - 0.25, W_K, 40)
    probs = [record_probability(fit, a, 2.0) for a in grid]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(b >= a for a, b in zip(probs, probs[1:]))


def test_record_probability_union_bound():
    fit = event_fit()
    for a in np.linspace(MU - 0.3, W_K, 60):
        p = record_probability(fit, a, 2.0)
        bound = min(1.0, 2.0 * expected_exceedances(fit, a))
        assert p <= bound + 1e-12


def test_record_probability_closed_form():
    # tail mass 1e-6 per draw, one million future performances
    M = 1e6
    fit = point_mass_fit(0.0, 1.0, math.log(M), n_k=10)
    a = ndtri(1e-6)
    assert record_probability(fit, a, 1.0) == pytest.approx(ONE_MINUS_INV_E_ISH, abs=1e-6)
    assert record_probability(fit, a, 0.0) == 0.0


def test_record_probability_dense_tail_is_likely():
    # a record sitting just ahead of a crowded tail should look fragile:
    # three expected exceedances per year make a new record odds-on
    pop = 5e5
    fit = point_mass_fit(0.0, 1.0, math.log(pop), n_k=50, best_x=-4.5)
    a = ndtri(3.0 / pop)
    assert record_probability(fit, a, 1.0) > 0.5


@pytest.mark.parametrize("M", [10, 100, 1000])
def test_expected_best_point_mass_oracle(M):
    got = expected_best(unit_fit(M), 1.0)
    assert got.x == pytest.approx(EXPECTED_MIN[M], abs=1e-10)
    assert got.raw == pytest.approx(math.exp(got.x))


def test_expected_best_single_draw_recovers_mean():
    got = expected_best(unit_fit(1), 1.0)
    assert got.x == pytest.approx(0.0, abs=1e-3)


def test_expected_best_improves_with_horizon():
    one = expected_best(unit_fit(100), 1.0).x
    two = expected_best(unit_fit(100), 2.0).x
    assert two < one


def test_expected_best_needs_positive_horizon():
    with pytest.raises(ValueError):
        expected_best(unit_fit(100), 0.0)


@pytest.mark.parametrize("t_f", [1e306, 1e-300])
def test_expected_best_refuses_a_horizon_outside_the_range_of_m(t_f):
    # M = t_f N / t_m overflows to inf at 1e306 and falls below 1e-17 at
    # 1e-300, where m(M) is nan; no panel of such an M may reach the cache
    _panel_values.cache_clear()
    with pytest.raises(HorizonOutOfRange, match=re.escape(f"ev100m: a horizon of t_f = {t_f:g} ")):
        expected_best(unit_fit(100), t_f)
    assert _panel_values.cache_info().currsize == 0


@pytest.mark.parametrize("M", [0.05, 0.5, 1, 3, 1e4, 1e8, 1e20, 1e66])
def test_expected_best_matches_order_statistic_quadrature(M):
    # E[max of M standard normals] = integral of z M phi(z) Phi(z)^(M-1), by
    # adaptive quadrature on pieces that bracket the density's bulk; weak-prior
    # fits of short lists have draws with M near 1e66
    def density(z):
        log_pdf = -0.5 * z * z - 0.5 * math.log(2 * math.pi) + (M - 1.0) * float(log_ndtr(z))
        return z * M * math.exp(log_pdf)

    cuts = [-np.inf, -80.0, -20.0, -5.0, 0.0, 5.0, 20.0]
    m = sum(
        integrate.quad(density, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts, cuts[1:])
    )
    assert expected_best(unit_fit(M), 1.0).x == pytest.approx(-m, abs=1e-9)


def test_expected_best_bimodal_density_is_component_mean():
    # the expectation is linear in the mixture over draws, so two separated
    # components give the mean of their point-mass oracles; at one N and w_k
    # each component's sigma is its own (w_k - mu) / Phi^-1(n_k/N)
    n, w_k = 1000, -1.0
    component_mu = (0.0, 8.0)
    mu = np.repeat(component_mu, n // 2)
    fit = make_fit(
        mu=mu,
        logN=np.full(n, math.log(10.0)),
        n_k=1,
        w_k=w_k,
        best_x=-1.5,
    )
    oracles = [mu_c + (w_k - mu_c) / ndtri(0.1) * EXPECTED_MIN[10]
               for mu_c in component_mu]
    assert expected_best(fit, 1.0).x == pytest.approx(np.mean(oracles), abs=1e-10)


def test_expected_best_record_probability_band():
    # the expected future best sits inside the central mass of the minimum's
    # distribution, so a new record at that mark is neither sure nor unlikely
    for M in (10, 100, 1000):
        fit = unit_fit(M)
        p = record_probability(fit, expected_best(fit, 1.0).x, 1.0)
        assert 0.3 <= p <= 0.8


def dense_panel_grid():
    # 20 001 points of log M over [log 0.05, log 1e200], about 90 per panel
    M = np.exp(np.linspace(math.log(0.05), math.log(1e200), 20_001))
    return M[M >= 0.05]


def several_panel_draws():
    # M from 1e-3 to 1e40 over 25 panels, some below _PANEL_MIN_M, and two
    # draws exactly on nodes of the panel [8, 12]
    rng = np.random.default_rng(11)
    nodes = 4.0 * (2.0 + 0.5 * (1.0 + _CHEB_NODES[[3, 9]]))
    return np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(1e40), 3000)),
                           np.exp(nodes)])


def panel_draws(panel, n, rng):
    """n values of M whose log lies in the panel [4 panel, 4 panel + 4]."""
    return np.exp(rng.uniform(4.0 * panel, 4.0 * panel + 4.0, n))


def gapped_panel_draws():
    # panels 1 and 5 only: the three between them hold no draw
    rng = np.random.default_rng(12)
    return np.concatenate([panel_draws(5, 300, rng), panel_draws(1, 200, rng)])


def one_panel_draws():
    return panel_draws(2, 400, np.random.default_rng(13))


def below_range_draws():
    # every M below _PANEL_MIN_M, so no panel is occupied
    return np.exp(np.random.default_rng(14).uniform(math.log(1e-6), math.log(0.049), 300))


def node_draws():
    # every Chebyshev node of the panels [8, 12] and [16, 20], and draws between
    nodes = 4.0 * (np.array([[2.0], [4.0]]) + 0.5 * (1.0 + _CHEB_NODES))
    return np.concatenate([np.exp(nodes.ravel()), panel_draws(4, 50, np.random.default_rng(15))])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_panel_expected_max_matches_direct_rule_on_a_dense_grid():
    M = dense_panel_grid()
    assert np.max(np.abs(_panel_expected_max(M) - _expected_max(M))) <= 5e-14


@pytest.mark.parametrize("draws", [dense_panel_grid, several_panel_draws, gapped_panel_draws,
                                   one_panel_draws, below_range_draws, node_draws],
                         ids=["dense-grid", "several-panels", "panels-1-and-5", "one-panel",
                              "all-below-range", "on-nodes"])
def test_panel_expected_max_matches_the_joint_rule_bit_for_bit(draws):
    M = draws()
    np.testing.assert_array_equal(bits(_panel_expected_max(M)), bits(panel_expected_max(M)))


def test_only_occupied_panels_are_computed():
    _panel_values.cache_clear()
    _panel_expected_max(gapped_panel_draws())
    assert _panel_values.cache_info().currsize == 2


def test_panel_values_do_not_depend_on_what_filled_the_cache():
    M = several_panel_draws()
    _panel_values.cache_clear()
    cold = bits(_panel_expected_max(M))
    warm = bits(_panel_expected_max(M))
    _panel_values.cache_clear()
    _panel_expected_max(np.exp(np.linspace(math.log(0.05), math.log(1e20), 7)))
    other_first = bits(_panel_expected_max(M))
    np.testing.assert_array_equal(cold, warm)
    np.testing.assert_array_equal(cold, other_first)


def test_panel_values_are_read_only():
    values = _panel_values(3)
    assert values.shape == (16,)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.0
    assert _panel_values(3) is values


def test_panel_expected_max_keeps_the_direct_rule_below_range():
    M = np.exp(np.linspace(math.log(1e-6), math.log(0.05), 500))
    M = M[M < 0.05]
    np.testing.assert_array_equal(_panel_expected_max(M), _expected_max(M))


def test_panel_expected_max_on_a_node_is_the_node_value():
    # the panel [12, 16] of log M: a draw exactly on a node must not divide 0/0
    nodes = 4.0 * (3.0 + 0.5 * (1.0 + _CHEB_NODES))
    M = np.exp(nodes)
    assert np.array_equal(np.log(M), nodes)
    got = _panel_expected_max(M)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got, _expected_max(M))


def test_expected_best_panels_match_per_draw_rule_over_a_wide_posterior():
    # pooled log N from about 4 to 155 over 38 panels: the shape of a
    # weak-prior fit of a short list
    rng = np.random.default_rng(5)
    n = 4000
    logN = np.concatenate([[4.0, 155.0], rng.uniform(4.0, 155.0, n - 2)])
    mu = rng.normal(MU, 0.01, n)
    fit = make_fit(mu=mu, logN=logN, n_k=10, w_k=MU - 0.1, best_x=MU - 0.2)
    per_draw = np.mean(mu - fit.pooled_sigma * _expected_max(np.exp(logN)))
    assert expected_best(fit, 1.0).x == pytest.approx(per_draw, abs=1e-12)


def test_score_anchor_and_reference_pairs():
    running = running_event()
    assert score(9.58, running, a0=9.58) == 1300.0
    # published sample table pairs, reconstructed to the displayed precision
    assert score(10.10, running, a0=9.58) == pytest.approx(1200.0, abs=1.0)
    marathon = EventSpec.running("marathon")
    a_new = 2 * 3600 + 9 * 60 + 18.50
    a_old = 2 * 3600 + 2 * 60 + 35.66
    assert score(a_new, marathon, a0=a_old) == pytest.approx(1200.0, abs=1.0)


def test_score_hundred_point_ratio():
    running = running_event()
    a0 = 9.58
    ratio = 2.0 ** (100.0 / 1300.0)
    m1200 = mark_for_points(running, a0, 1200.0)
    m1300 = mark_for_points(running, a0, 1300.0)
    assert m1200 / m1300 == pytest.approx(ratio, rel=1e-12)
    assert m1300 == pytest.approx(a0, rel=1e-12)
    assert score(mark_for_points(running, a0, 850.0), running, a0) == pytest.approx(850.0)


def test_score_field_direction():
    field = field_event()
    assert score(895.0, field, a0=895.0) == 1300.0
    assert score(890.0, field, a0=895.0) < 1300.0  # shorter jump scores less
    assert score(900.0, field, a0=895.0) > 1300.0


def test_score_rejects_nonpositive():
    with pytest.raises(ValueError):
        score(0.0, running_event(), a0=9.58)
    with pytest.raises(ValueError):
        mark_for_points(running_event(), -1.0, 1200.0)


@pytest.mark.parametrize("event, points", [
    (running_event(), -2_000_000), (running_event(), 2_000_000), (running_event(), 10**400),
    (field_event(), 2_000_000), (field_event(), -2_000_000),
], ids=["time-overflows", "time-rounds-to-0", "total-past-float", "distance-overflows",
        "distance-rounds-to-0"])
def test_a_point_total_worth_no_mark_is_refused(event, points):
    with pytest.raises(PointsOutOfRange, match=f"^{event.event_id}: a total of {points} points"):
        mark_for_points(event, 895.0, points)
    assert 0.0 < mark_for_points(event, 895.0, 50_000) < math.inf


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=1.0, max_value=1e5),
    b=st.floats(min_value=1.0, max_value=1e5),
)
def test_score_monotone_per_direction(a, b):
    if a == b:
        return
    fast, slow = min(a, b), max(a, b)
    run_fast = score(fast, running_event(), a0=100.0)
    run_slow = score(slow, running_event(), a0=100.0)
    field_fast = score(fast, field_event(), a0=100.0)
    field_slow = score(slow, field_event(), a0=100.0)
    assert run_fast >= run_slow
    assert field_fast <= field_slow
    # marks a few ulps apart can quantize to the same log ratio; strictness
    # is only meaningful once the marks differ measurably
    if (slow - fast) / slow > 1e-12:
        assert run_fast > run_slow
        assert field_fast < field_slow


def test_improvement_values():
    running = running_event()
    field = field_event()
    assert improvement(9.58, 9.58, running) == 0.0
    assert improvement(9.58, 9.69, running) == pytest.approx(math.log(9.69 / 9.58), rel=1e-12)
    assert improvement(9.58, 9.69, running) == pytest.approx(0.011416, abs=1e-6)
    assert improvement(895.0, 890.0, field) == pytest.approx(0.005602, abs=1e-6)
    assert improvement(9.69, 9.58, running) == pytest.approx(
        -improvement(9.58, 9.69, running), rel=1e-12
    )
    with pytest.raises(ValueError):
        improvement(0.0, 9.58, running)


def test_anchor_mark_point_mass_analytic():
    fit = event_fit()
    got = anchor_mark(fit)
    want = MU + SIG * ndtri(ANCHOR_RATE / N_POP)
    assert got == pytest.approx(want, abs=1e-4)
    residual = expected_exceedances(fit, got)
    assert abs(residual - ANCHOR_RATE) <= 1e-3 * ANCHOR_RATE


def test_anchor_mark_extends_its_lower_bracket():
    # The search starts its lower bracket at best_x - 5 sigma-bar. A best mark
    # placed past w_k puts that start above the anchor, where the rate is
    # still at least the target, so the bracket must step down to it.
    fit = event_fit(best_x=MU + 0.05)
    start = fit.meta.best_x - 5.0 * float(np.mean(fit.pooled_sigma))
    assert expected_exceedances(fit, start) >= ANCHOR_RATE
    got = anchor_mark(fit)
    assert got < start
    assert got == pytest.approx(MU + SIG * ndtri(ANCHOR_RATE / N_POP), abs=1e-4)
    assert abs(expected_exceedances(fit, got) - ANCHOR_RATE) <= 1e-3 * ANCHOR_RATE


def test_anchor_mark_boundary_target():
    # over this span the worst mark's exceedance rate, N_K / t_m, is the target
    fit = event_fit(t_m=N_K / ANCHOR_RATE)
    assert anchor_mark(fit) == W_K


def test_anchor_mark_unreachable_target():
    # over this span no mark's rate exceeds a tenth of the target
    fit = event_fit(t_m=10.0 * N_POP / ANCHOR_RATE)
    with pytest.raises(AnchorNotFound):
        anchor_mark(fit)


def test_borrow_population_recomputes_identity():
    fit = event_fit()
    borrowed = np.full(fit.pooled_size, math.log(4.0 * N_POP))
    got = borrow_population(fit, borrowed)
    assert got.pooled_size == fit.pooled_size
    assert (got.meta, got.mpsrf) == (fit.meta, fit.mpsrf)
    np.testing.assert_array_equal(got.pooled_logN, borrowed)
    z = ndtri(N_K / (4.0 * N_POP))
    assert got.pooled_sigma == pytest.approx((W_K - MU) / z, rel=1e-12)

    with pytest.raises(NoBorrowedPopulation):
        # borrowed population below n_k pushes the tail mass out of domain
        borrow_population(fit, np.full(fit.pooled_size, math.log(N_K / 2)))


@pytest.mark.parametrize("own, partner", [(1000, 900), (900, 1000)])
def test_borrow_population_pairs_the_first_draws_of_unequal_pools(own, partner):
    # A fit that lost one of ten chains pools 900 draws, not 1000: either side
    # pairs its first min(n, m) draws, in chain order, with the other's.
    rng = np.random.default_rng(own)
    mu = MU + 0.01 * rng.standard_normal(own)
    fit = make_fit(mu=mu, logN=np.full(own, math.log(N_POP)), n_k=N_K, w_k=W_K)
    borrowed = math.log(4.0 * N_POP) + 0.1 * rng.standard_normal(partner)
    got = borrow_population(fit, borrowed)
    assert got.pooled_size == 900
    np.testing.assert_array_equal(got.pooled_mu, mu[:900])
    np.testing.assert_array_equal(got.pooled_logN, borrowed[:900])
    assert (got.meta, got.mpsrf) == (fit.meta, fit.mpsrf)


def test_borrow_population_keeps_the_bits_of_the_masked_identity():
    # a borrowed N below 2 n_k puts n_k/N at 0.5 or more, out of the domain
    rng = np.random.default_rng(29)
    n = 1000
    mu = rng.normal(MU, 0.01, n)
    fit = make_fit(mu=mu, logN=rng.normal(math.log(N_POP), 0.1, n), n_k=N_K, w_k=W_K)
    borrowed = rng.uniform(math.log(N_K), math.log(4.0 * N_POP), n)
    sigma = tail_mass_sigma(mu, borrowed, N_K, W_K)
    keep = ~np.isnan(sigma)
    assert 0 < keep.sum() < n
    got = borrow_population(fit, borrowed)
    for name, want in (("pooled_mu", mu), ("pooled_logN", borrowed), ("pooled_sigma", sigma)):
        assert np.array_equal(getattr(got, name).view(np.uint64), want[keep].view(np.uint64))
    with pytest.raises(NoBorrowedPopulation):
        borrow_population(fit, np.minimum(borrowed, math.log(2.0 * N_K)))


def test_anchor_substitution_direction():
    # borrowing a larger population (the 1500 m pool for the mile) weakens
    # the anchor: the same observed tail spread over more athletes makes
    # extreme marks rarer, so the 0.125-rate mark sits closer to w_k
    fit = event_fit()
    plain = anchor_mark(fit)
    borrowed = anchor_mark(
        borrow_population(fit, np.full(fit.pooled_size, math.log(4.0 * N_POP)))
    )
    assert borrowed > plain


def test_build_score_table():
    fit = event_fit()
    table = build_score_table(fit, points=(500, 1300, 1000, 500))
    assert [p for p, _ in table.rows] == [500, 1000, 1300]
    assert table.low_data is False
    row_1300 = dict(table.rows)[1300]
    assert row_1300 == pytest.approx(table.a0_raw, rel=1e-12)
    rate = expected_exceedances(fit, table.a0)
    assert rate == pytest.approx(ANCHOR_RATE, rel=1e-3)

    sparse = event_fit(n_k=12)
    assert build_score_table(sparse, points=(1300,)).low_data is True


def test_render_score_tables():
    fit = event_fit()
    table = build_score_table(fit, points=(1200, 1300))
    sparse = build_score_table(event_fit(n_k=12), points=(1200, 1300))
    text = render_score_tables([table, sparse])
    lines = text.strip().split("\n")
    assert lines[0] == "event\t1200\t1300\tflags"
    assert len(lines) == 3
    cells = lines[1].split("\t")
    assert cells[0] == table.event_id
    assert cells[-1] == ""
    # marks render event-native: a running mark prints as a time
    assert float(cells[2]) == pytest.approx(table.a0_raw, abs=0.005)
    assert lines[2].split("\t")[-1] == "low_data"

    with pytest.raises(ValueError):
        render_score_tables([])
    other = build_score_table(fit, points=(1000, 1300))
    with pytest.raises(ValueError):
        render_score_tables([table, other])


def test_pearson_reference_values(rng):
    xs = [1.0, 2.0, 4.0, 8.0]
    assert pearson(xs, [2 * v + 1 for v in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-v for v in xs]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    a = rng.normal(size=40)
    b = rng.normal(size=40) + 0.5 * a
    assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], rel=1e-12)

    with pytest.raises(UndefinedCorrelation):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_statistics_stable_under_pool_size(rng):
    n_big = 4000
    mu = rng.normal(MU, 0.01, n_big)
    logN = rng.normal(math.log(N_POP), 0.15, n_big)
    fits = {
        n: make_fit(mu[:n], logN[:n], n_k=N_K, w_k=W_K, best_x=MU - 0.15)
        for n in (1000, n_big)
    }
    probe = W_K - 0.05

    def rel_gap(fn):
        small, big = (fn(fits[n]) for n in (1000, n_big))
        return abs(small - big) / abs(big)

    assert rel_gap(lambda f: expected_exceedances(f, probe)) < 0.02
    assert rel_gap(lambda f: record_probability(f, probe, 1.0)) < 0.02
    assert rel_gap(lambda f: expected_best(f, 1.0).x) < 0.02
    assert rel_gap(anchor_mark) < 0.02
