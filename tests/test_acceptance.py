"""Acceptance suite: one test per shipped behavioural guarantee.

Each test prints a single `ACCEPTANCE <n> <label>: PASS|FAIL` line and then
asserts both the check and its time budget. Expected values come from
published reference data, closed forms, and independent simulations, never
from the implementation under test.
"""
import itertools
import math
import time

import numpy as np
import pytest
from numpy.random import default_rng
from scipy import integrate, special, stats as scipy_stats

from conftest import point_mass_fit
from oracles import geyer_ess, truncnorm_logpdf
from tailcast.backtest import BacktestSpec, run_backtest
from tailcast.cli import main as cli_main
from tailcast.distcore import grid_posterior, tail_mass_sigma
from tailcast.emprior import (
    expected_population,
    min_subset_variance,
    robust_hyperprior,
    two_pass_fit,
)
from tailcast.ingest import EventSpec, parse_time
from tailcast.sampler import SamplerConfig, run_chain, tune_burn_in
from tailcast.stats import expected_best, record_probability, score
from tailcast.synth import sample_tail, tail_performance_list, write_corpus

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033


def _finish(num: str, label: str, ok: bool, elapsed: float, budget: float) -> None:
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{label} failed its tolerance"
    assert within, f"{label} exceeded {budget}s ({elapsed:.2f}s)"


# Published reference sample of the scoring scale: for each running event the
# displayed marks worth 800..1400 points in 100-point steps. The 1300-point
# column doubles as the event's anchor mark.
SCORE_POINTS = (800, 900, 1000, 1100, 1200, 1300, 1400)
REFERENCE_SCORES = {
    "mens100m": ("12.50", "11.85", "11.24", "10.66", "10.10", "9.58", "9.08"),
    "mens200m": ("25.12", "23.82", "22.58", "21.41", "20.30", "19.24", "18.24"),
    "mens400m": ("56.85", "53.89", "51.10", "48.44", "45.93", "43.54", "41.28"),
    "mens800m": ("2:11.64", "2:04.81", "1:58.33", "1:52.18", "1:46.36", "1:40.84", "1:35.60"),
    "mens1500m": ("4:30.89", "4:16.82", "4:03.49", "3:50.84", "3:38.86", "3:27.49", "3:16.72"),
    "mens3000m": ("9:35.72", "9:05.83", "8:37.48", "8:10.62", "7:45.14", "7:20.99", "6:58.09"),
    "mens5000m": ("16:26.21", "15:35", "14:46.45", "14:00.43", "13:16.79", "12:35.42", "11:56.20"),
    "mens10000m": ("33:54.31", "32:08.69", "30:28.54", "28:53.60", "27:23.59", "25:58.25", "24:37.34"),
    "mensHalfMarathon": ("1:15:34.51", "1:11:39.07", "1:07:55.85", "1:04:24.22", "1:01:03.58", "57:53.36", "54:53.01"),
    "mensMarathon": ("2:40:02.90", "2:31:44.29", "2:23:51.58", "2:16:23.40", "2:09:18.50", "2:02:35.66", "1:56:13.74"),
    "womens100m": ("13.80", "13.09", "12.41", "11.76", "11.15", "10.57", "10.02"),
    "womens200m": ("28.29", "26.82", "25.43", "24.11", "22.86", "21.67", "20.54"),
    "womens400m": ("1:03.38", "1:00.09", "56.97", "54.01", "51.21", "48.55", "46.03"),
    "womens800m": ("2:29.47", "2:21.71", "2:14.35", "2:07.37", "2:00.76", "1:54.49", "1:48.55"),
    "womens1500m": ("5:08.60", "4:52.57", "4:37.38", "4:22.98", "4:09.32", "3:56.38", "3:44.11"),
    "womens3000m": ("10:56.41", "10:22.33", "9:50.01", "9:19.38", "8:50.34", "8:22.80", "7:56.69"),
    "womens5000m": ("18:13.36", "17:16.59", "16:22.77", "15:31.74", "14:43.36", "13:57.49", "13:14.01"),
    "womens10000m": ("38:35.22", "36:35.01", "34:41.04", "32:52.98", "31:10.54", "29:33.42", "28:01.34"),
    "womensHalfMarathon": ("1:25:54.31", "1:21:26.69", "1:17:12.96", "1:13:12.40", "1:09:24.34", "1:05:48.11", "1:02:23.12"),
    "womensMarathon": ("3:01:13.87", "2:51:49.27", "2:42:53.98", "2:34:26.49", "2:26:25.36", "2:18:49.20", "2:11:36.73"),
}


def test_criterion_01_scoring_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for event_id, row in REFERENCE_SCORES.items():
        event = EventSpec.running(event_id)
        marks = [parse_time(text) for text in row]
        a0 = marks[SCORE_POINTS.index(1300)]
        for points, mark in zip(SCORE_POINTS, marks):
            worst = max(worst, abs(score(mark, event, a0) - points))
    _finish("1", "scoring table reproduction", worst <= 2.0,
            time.perf_counter() - t0, 1.0)


def test_criterion_02_tail_mass_identity():
    t0 = time.perf_counter()
    rng = default_rng(2024)
    rows = []
    for _ in range(10_000):
        mu = rng.uniform(-5.0, 12.0)
        population = 10.0 ** rng.uniform(2.0, 8.0)
        n_k = max(1, int(rng.uniform(1e-3, 0.49) * population))
        w_k = mu - rng.uniform(1e-3, 8.0)
        sigma = float(tail_mass_sigma(mu, math.log(population), n_k, w_k))
        rows.append((mu, sigma, population, n_k, w_k))
    mu, sigma, population, n_k, w_k = np.array(rows).T
    recovered = scipy_stats.norm.cdf(w_k, loc=mu, scale=sigma) * population
    worst = float(np.max(np.abs(recovered - n_k) / n_k))
    _finish("2", "tail-mass identity round trip", worst <= 1e-6,
            time.perf_counter() - t0, 5.0)


def test_criterion_03_truncated_density_normalization():
    t0 = time.perf_counter()
    rng = default_rng(33)
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(-10.0, 10.0)
        sigma = 10.0 ** rng.uniform(-2.0, 0.7)
        c = mu + rng.uniform(-2.5, 3.0) * sigma
        total, _ = integrate.quad(
            lambda x: math.exp(truncnorm_logpdf(x, mu, sigma, c)),
            mu - 40.0 * sigma, c, epsabs=1e-12, limit=200,
        )
        worst = max(worst, abs(total - 1.0))
    _finish("3", "truncated density normalizes", worst <= 1e-8,
            time.perf_counter() - t0, 10.0)


def test_criterion_04_sampler_calibration():
    t0 = time.perf_counter()
    mean = np.array([0.7, -0.4])
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    precision = np.linalg.inv(cov)

    def target(state):
        d = np.asarray(state) - mean
        return float(-0.5 * d @ precision @ d)

    config = SamplerConfig(burn_in_steps=1000, batches=4000, batch_len=10,
                           chains=4, seed=404)
    corners = ((2.0, 2.0), (-2.0, 2.0), (2.0, -2.0), (-2.0, -2.0))
    chains = []
    for i, corner in enumerate(corners):
        rng = default_rng(404 + i)
        init = (mean[0] + corner[0], mean[1] + corner[1])
        tuned = tune_burn_in(target, config, init, (1.0, 0.0, 1.0), rng)
        chains.append(run_chain(target, config, tuned, rng, chain_id=i))

    rates_ok = all(0.2 <= c.accept_rate <= 0.4 for c in chains)
    draws = np.column_stack(
        (np.concatenate([c.mu for c in chains]),
         np.concatenate([c.logN for c in chains]))
    )
    mean_err = np.max(np.abs(draws.mean(axis=0) - mean))
    cov_err = np.max(np.abs(np.cov(draws.T, ddof=1) - cov))
    ks = max(
        scipy_stats.kstest(draws[:, j], "norm", args=(mean[j], 1.0)).statistic
        for j in range(2)
    )
    ok = rates_ok and mean_err <= 0.1 and cov_err <= 0.15 and ks <= 0.05
    _finish("4", "2-d Gaussian sampler calibration", ok,
            time.perf_counter() - t0, 30.0)


@pytest.fixture(scope="module")
def recovery_lists():
    lists = []
    for i in range(8):
        spec = EventSpec.running(f"syn{i}")
        tail = sample_tail(55 + i, MU_STAR, SIGMA_STAR, 20_000, 500)
        lists.append(tail_performance_list(spec, tail, 2001, 2020, seed=155 + i))
    return lists


@pytest.fixture(scope="module")
def recovery_fits(recovery_lists):
    t0 = time.perf_counter()
    result = two_pass_fit(recovery_lists, SamplerConfig(seed=7))
    assert len(result.fits) == 8 and not result.failures
    return result, time.perf_counter() - t0


def test_criterion_05a_recovery_covers_mu(recovery_fits):
    result, elapsed = recovery_fits
    t0 = time.perf_counter()
    ok = all(
        abs(float(fit.pooled_mu.mean()) - MU_STAR)
        <= 3.0 * float(fit.pooled_mu.std(ddof=1))
        for fit in result.fits.values()
    )
    _finish("5a", "synthetic recovery: mu within 3 posterior SDs", ok,
            elapsed + time.perf_counter() - t0, 600.0)


def test_criterion_05b_recovery_population_scale(recovery_fits):
    result, elapsed = recovery_fits
    t0 = time.perf_counter()
    ok = all(
        2_000.0 <= expected_population(fit) <= 200_000.0
        for fit in result.fits.values()
    )
    _finish("5b", "synthetic recovery: E[N] within factor 10", ok,
            elapsed + time.perf_counter() - t0, 600.0)


def test_criterion_05c_recovery_convergence(recovery_fits):
    # Each event's chains propose along the Cholesky factor of its grid
    # posterior's covariance, so they mix along the flat population
    # direction too: at seeds 7, 8 and 9 all 8 events reach mpsrf <= 1.011.
    result, elapsed = recovery_fits
    t0 = time.perf_counter()
    converged = sum(1 for fit in result.fits.values() if fit.mpsrf < 1.1)
    print(f"converged {converged}/8 (mpsrf: "
          + ", ".join(f"{fit.mpsrf:.3f}" for fit in result.fits.values()) + ")")
    _finish("5c", "synthetic recovery: mpsrf < 1.1 for 7 of 8", converged >= 7,
            elapsed + time.perf_counter() - t0, 600.0)


def test_criterion_05d_recovery_monte_carlo_error(recovery_lists, recovery_fits):
    # The pooled draws against each event's exact grid posterior, for
    # d = mu - w_k and log N: the pooled mean within 4 Monte-Carlo standard
    # errors (grid sd / sqrt(ESS)), the pooled sd within 10% of the grid's,
    # and an ESS of 500 or more, ESS by Geyer's estimator over the pooled
    # draws in chain order.
    result, elapsed = recovery_fits
    t0 = time.perf_counter()
    rows = []  # (ESS, z, sd ratio) per event and coordinate
    for data in recovery_lists:
        fit = result.fits[data.event.event_id]
        (mean_d, mean_y), cov, _ = grid_posterior(data, result.prior)
        for draws, mean, var in ((fit.pooled_mu - data.w_k, mean_d, cov[0, 0]),
                                 (fit.pooled_logN, mean_y, cov[1, 1])):
            ess = geyer_ess(draws)
            rows.append((ess, (float(draws.mean()) - mean) / math.sqrt(var / ess),
                         float(draws.std(ddof=1)) / math.sqrt(var)))
    ess, z, ratio = np.array(rows).T
    print(f"ESS {ess.min():.0f}..{ess.max():.0f}, |z| <= {np.abs(z).max():.2f}, "
          f"sd ratio {ratio.min():.3f}..{ratio.max():.3f}")
    ok = bool((ess >= 500.0).all() and (np.abs(z) <= 4.0).all()
              and ((0.9 <= ratio) & (ratio <= 1.1)).all())
    _finish("5d", "synthetic recovery: pooled draws within their Monte-Carlo error", ok,
            elapsed + time.perf_counter() - t0, 600.0)


def test_criterion_06_expected_best_matches_simulation():
    t0 = time.perf_counter()
    rng = default_rng(606)
    reps = 1_000_000
    worst = 0.0
    for m in (10, 100, 1000):
        predicted = expected_best(point_mass_fit(0.0, 1.0, math.log(m), n_k=1), 1.0).x
        total = 0.0
        block = 2000
        for _ in range(reps // block):
            total += rng.standard_normal((block, m)).min(axis=1).sum()
        worst = max(worst, abs(predicted - total / reps))
    _finish("6", "expected best vs Monte-Carlo minimum", worst <= 0.01,
            time.perf_counter() - t0, 120.0)


def test_criterion_07_record_probability_closed_form():
    t0 = time.perf_counter()
    threshold = special.ndtri(1e-6)
    p = record_probability(point_mass_fit(0.0, 1.0, math.log(1e6)), threshold, 1.0)
    _finish("7", "record probability 1 - 1/e closed form", abs(p - 0.63212) <= 1e-4,
            time.perf_counter() - t0, 1.0)


def test_criterion_08_min_variance_window_vs_exhaustive():
    t0 = time.perf_counter()
    rng = default_rng(808)

    def sample_var(values):
        center = sum(values) / len(values)
        return sum((v - center) ** 2 for v in values) / (len(values) - 1)

    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(2, m + 1))
        values = rng.uniform(-50.0, 50.0, size=m).tolist()
        got = min_subset_variance(values, k)
        want = min(sample_var(c) for c in itertools.combinations(values, k))
        ok = ok and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    # robustness of the hyperprior to one wildly diverged population estimate
    estimates = [math.exp(8.0 + 0.05 * i) for i in range(19)] + [2.71e16]
    logs = sorted(math.log(e) for e in estimates)
    prior = robust_hyperprior({f"ev{i:02d}": math.log(e) for i, e in enumerate(estimates)})
    ok = ok and prior.mu_N == pytest.approx((logs[9] + logs[10]) / 2.0, abs=1e-12)
    ok = ok and prior.sigma2_N == min_subset_variance(logs, 15)
    ok = ok and prior.sigma2_N < 1.0
    _finish("8", "windowed min-variance vs exhaustive", ok,
            time.perf_counter() - t0, 10.0)


def test_criterion_09_backtest_self_consistency():
    t0 = time.perf_counter()
    spans = (4, 6, 8, 12, 16, 20)
    wins = 0
    correlations = []
    for run in range(20):
        lists = []
        for span in spans:
            spec = EventSpec.running(f"run{span:02d}")
            tail = sample_tail(1000 * run + span, MU_STAR, SIGMA_STAR, 20_000, 280)
            lists.append(
                tail_performance_list(spec, tail, 2020 - span, 2021,
                                      seed=1_000_000 + 1000 * run + span)
            )
        config = SamplerConfig(burn_in_steps=1000, batches=150, batch_len=10,
                               chains=2, pool_size=300, seed=900 + run)
        report = run_backtest(
            lists,
            BacktestSpec(cutoff_year=2020, windows=(2,), reference_ranks=(100,)),
            config,
        )
        cell = report.cell("exceedances", 2, 100)
        r = cell.pearson_r if cell.valid else float("nan")
        correlations.append(r)
        if cell.valid and r > 0.6:
            wins += 1
    print("per-run r: " + ", ".join(f"{r:.3f}" for r in correlations))
    _finish("9", "backtest exceedance correlation in 18 of 20 runs", wins >= 18,
            time.perf_counter() - t0, 900.0)


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    lists = []
    for i, event_id in enumerate(["m0100", "m0400", "m0800", "w1500m"]):
        spec = EventSpec.running(event_id)
        tail = sample_tail(600 + i, MU_STAR, SIGMA_STAR, 20_000, 130)
        lists.append(tail_performance_list(spec, tail, 2006, 2020, seed=650 + i))
    write_corpus(data_dir, lists)

    for name in ("one", "two"):
        out = tmp_path / name
        args = ["--data", str(data_dir), "--out", str(out), "--seed", "5",
                "--chains", "2", "--batches", "80", "--burn-in", "1000",
                "--pool-size", "160"]
        assert cli_main(["fit", *args]) == 0
        assert cli_main(["tables", *args]) == 0
        assert cli_main(["forecast", *args, "--tf", "2"]) == 0

    names = ["manifest.json", "tables.tsv", "forecast.tsv"] + [
        f"fits/{p.name}" for p in sorted((tmp_path / "one" / "fits").glob("*.fit"))
    ]
    ok = len(names) == 7 and all(
        (tmp_path / "one" / n).read_bytes() == (tmp_path / "two" / n).read_bytes()
        for n in names
    )
    _finish("10", "fit+tables+forecast byte-identical", ok,
            time.perf_counter() - t0, 300.0)
