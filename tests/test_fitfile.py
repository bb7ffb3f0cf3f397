"""Round-trip and validation tests for the tailcast-fit/2 text format.

The metadata line is written from and read back into the FitMetadata,
EventSpec, HyperPrior and SamplerConfig dataclasses by reflection; the
round trips below pin that every field of them survives.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from tailcast.emprior import HyperPrior, Provenance
from tailcast.fitfile import (
    FORMAT_LINE,
    FitFileError,
    atomic_write_text,
    dumps,
    load_fit,
    loads,
    save_fit,
)
from tailcast.ingest import Direction, EventSpec, Unit
from tailcast.sampler import PosteriorChain, SamplerConfig

from conftest import make_fit


def sample_fit(mpsrf=1.02, notes=()):
    rng = np.random.default_rng(42)
    n = 200
    prior = HyperPrior(
        mu_N=9.2,
        sigma2_N=0.6,
        provenance=Provenance.EMPIRICAL,
        contributing_events=("a", "b", "c", "d"),
    )
    return make_fit(
        mu=rng.normal(2.4, 0.01, n),
        logN=rng.normal(9.9, 0.3, n),
        sigma=rng.uniform(0.02, 0.05, n),
        t_m=2.5,
        n_k=150,
        w_k=2.46,
        mpsrf=mpsrf,
        prior=prior,
        notes=notes,
    )


def test_round_trip_bytes_identical():
    fit = sample_fit()
    text = dumps(fit)
    assert text.startswith(FORMAT_LINE + "\n")
    assert dumps(loads(text)) == text


def test_round_trip_preserves_fields():
    fit = sample_fit(notes=("chain 3 retuned",))
    back = loads(dumps(fit))

    assert back.meta.event == fit.meta.event
    assert back.meta.t_m == fit.meta.t_m
    assert back.meta.n_k == fit.meta.n_k
    assert back.meta.w_k == fit.meta.w_k
    assert back.meta.c_k == fit.meta.c_k
    assert back.meta.best_x == fit.meta.best_x
    assert back.meta.prior == fit.meta.prior
    assert back.meta.config == fit.meta.config
    assert back.meta.notes == fit.meta.notes
    assert back.mpsrf == fit.mpsrf
    assert back.converged == fit.converged
    assert len(back.chains) == len(fit.chains)
    for ours, theirs in zip(fit.chains, back.chains):
        assert ours.chain_id == theirs.chain_id
        assert np.array_equal(ours.mu, theirs.mu)
        assert np.array_equal(ours.logN, theirs.logN)
        assert np.array_equal(ours.sigma, theirs.sigma)
        assert ours.accept_rate == theirs.accept_rate
        assert ours.step_scale == theirs.step_scale
    assert np.array_equal(back.pooled_mu, fit.pooled_mu)
    assert np.array_equal(back.pooled_logN, fit.pooled_logN)
    assert np.array_equal(back.pooled_sigma, fit.pooled_sigma)


def test_round_trip_every_metadata_field():
    # every field off its default, so a field the format drops cannot hide
    config = SamplerConfig(burn_in_steps=700, accept_lo=0.15, accept_hi=0.45, batches=90,
                           batch_len=7, chains=4, step_scale=0.03, max_retunes=9,
                           seed=123, pool_size=60)
    prior = HyperPrior(mu_N=8.5, sigma2_N=1.7, provenance=Provenance.EMPIRICAL,
                       contributing_events=("m0100", "m0200"))
    event = EventSpec("wHJ", Direction.HIGHER_IS_BETTER, Unit.CENTIMETERS,
                      display_name="Women's high jump")
    for obj in (config, prior, event):
        assert all(getattr(obj, f.name) != f.default for f in dataclasses.fields(obj)), obj
    fit = sample_fit()
    meta = dataclasses.replace(fit.meta, event=event, prior=prior, config=config, c_k=2.5,
                               failed_chains=(2, 3), notes=("chain 2: failed",))
    fit = dataclasses.replace(fit, event_id=event.event_id, meta=meta)
    text = dumps(fit)
    back = loads(text)
    assert back.meta == fit.meta
    assert dumps(back) == text


def _edit_meta(edit):
    """A sample fit file whose metadata payload went through edit(payload)."""
    lines = dumps(sample_fit()).splitlines()
    payload = json.loads(lines[1][len("#meta "):])
    edit(payload)
    lines[1] = "#meta " + json.dumps(payload)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", [
    lambda payload: payload.pop("mpsrf"),
    lambda payload: payload.pop("converged"),
    lambda payload: payload["chains"][0].pop("chain_id"),
    lambda payload: payload["config"].update(no_such_setting=1.0),
], ids=["no-mpsrf", "no-converged", "no-chain_id", "unknown-config-field"])
def test_loads_rejects_bad_meta_keys(edit):
    with pytest.raises(FitFileError, match="missing or malformed"):
        loads(_edit_meta(edit))


def test_infinite_mpsrf_survives():
    fit = sample_fit(mpsrf=math.inf)
    back = loads(dumps(fit))
    assert back.mpsrf == math.inf
    assert back.converged is False


def test_save_and_load(tmp_path):
    fit = sample_fit()
    path = tmp_path / "ev.fit"
    save_fit(fit, path)
    assert dumps(load_fit(path)) == dumps(fit)
    assert not list(tmp_path.glob("*.tmp*"))


def test_atomic_write_overwrites(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]


def test_loads_rejects_wrong_format_line():
    with pytest.raises(FitFileError):
        loads("#something-else/9\n")


def test_loads_rejects_format_1():
    lines = dumps(sample_fit()).splitlines()
    lines[0] = "#tailcast-fit/1"
    with pytest.raises(FitFileError, match="refit .* with `tailcast fit`"):
        loads("\n".join(lines) + "\n")


def test_loads_rejects_truncated():
    with pytest.raises(FitFileError):
        loads(FORMAT_LINE + "\n")


def test_loads_rejects_bad_meta_json():
    text = FORMAT_LINE + "\n#meta {not json\n#columns chain_id\n"
    with pytest.raises(FitFileError):
        loads(text)


def test_loads_rejects_wrong_columns():
    fit = sample_fit()
    text = dumps(fit).replace("draw_index", "step")
    with pytest.raises(FitFileError):
        loads(text)


def test_loads_rejects_short_row():
    fit = sample_fit()
    lines = dumps(fit).splitlines()
    lines[3] = "\t".join(lines[3].split("\t")[:3])
    with pytest.raises(FitFileError):
        loads("\n".join(lines) + "\n")


def test_loads_rejects_gap_in_draw_indices():
    fit = sample_fit()
    lines = dumps(fit).splitlines()
    del lines[4]  # removes one draw from the middle of chain 0
    with pytest.raises(FitFileError):
        loads("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, text", [
    (0, "0.5"),   # fractional chain_id
    (1, "1.5"),   # fractional draw_index
    (2, "fast"),  # not a number
    (0, "#"),     # a stray comment marker
])
def test_loads_rejects_malformed_draw_line(column, text):
    lines = dumps(sample_fit()).splitlines()
    fields = lines[4].split("\t")
    fields[column] = text
    lines[4] = "\t".join(fields)
    with pytest.raises(FitFileError):
        loads("\n".join(lines) + "\n")


def test_loads_rejects_header_only():
    header = dumps(sample_fit()).splitlines()[:3]
    with pytest.raises(FitFileError, match="no posterior draws"):
        loads("\n".join(header) + "\n\n")


def test_loads_groups_interleaved_chains_in_file_order():
    fit = sample_fit()
    lines = dumps(fit).splitlines()
    body = lines[3:]
    half = len(body) // 2
    interleaved = [row for pair in zip(body[:half], body[half:]) for row in pair]
    assert dumps(loads("\n".join(lines[:3] + interleaved) + "\n")) == dumps(fit)


def test_dumps_requires_sigma():
    fit = sample_fit()
    bare = PosteriorChain(
        chain_id=0,
        mu=fit.chains[0].mu,
        logN=fit.chains[0].logN,
        accept_rate=0.3,
        step_scale=0.1,
        sigma=None,
    )
    broken = dataclasses.replace(fit, chains=(bare,) + fit.chains[1:])
    with pytest.raises(FitFileError):
        dumps(broken)
