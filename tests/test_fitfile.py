"""Round-trip and validation tests for the tailcast-fit/10 text format.

The metadata line is written from and read back into the FitMetadata,
EventSpec, HyperPrior and SamplerConfig dataclasses by reflection; the
round trips below pin that every field of them survives. `loads` and
`load_fit` share one bytes parser, so the tests through either reach it.
"""
import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcast import distcore, sampler
from tailcast.distcore import tail_mass_sigma
from tailcast.emprior import HyperPrior, Provenance
from tailcast.errors import TailcastError
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
from tailcast.sampler import FitResult, SamplerConfig

from conftest import make_fit


W_K, N_K = 2.46, 150  # sample_fit's worst mark and list size


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
        mu=rng.normal(2.52, 0.01, n),
        sigma=rng.uniform(0.02, 0.05, n),
        t_m=2.5,
        n_k=N_K,
        w_k=W_K,
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
    assert back.meta.best_x == fit.meta.best_x
    assert back.meta.record_x == fit.meta.record_x
    assert back.meta.prior == fit.meta.prior
    assert back.meta.config == fit.meta.config
    assert back.meta.notes == fit.meta.notes
    assert back.meta.chains == fit.meta.chains
    assert back.mpsrf == fit.mpsrf
    assert back.converged == fit.converged
    assert np.array_equal(back.pooled_mu, fit.pooled_mu)
    assert np.array_equal(back.pooled_logN, fit.pooled_logN)
    assert np.array_equal(back.pooled_sigma, fit.pooled_sigma)


def test_round_trip_every_metadata_field():
    # every field off its default, so a field the format drops cannot hide
    config = SamplerConfig(burn_in_steps=700, batches=90, batch_len=7, chains=4,
                           seed=123, pool_size=60)
    prior = HyperPrior(mu_N=8.5, sigma2_N=1.7, provenance=Provenance.EMPIRICAL,
                       contributing_events=("m0100", "m0200"))
    event = EventSpec("wHJ", Direction.HIGHER_IS_BETTER, Unit.CENTIMETERS,
                      display_name="Women's high jump")
    for obj in (config, prior, event):
        assert all(getattr(obj, f.name) != f.default for f in dataclasses.fields(obj)), obj
    fit = sample_fit()
    meta = dataclasses.replace(fit.meta, event=event, prior=prior, config=config,
                               record_x=fit.meta.best_x - 0.01, failed_chains=(2, 3),
                               notes=("chain 2: failed",))
    # two sampled chains of 90 draws pool to 60
    fit = FitResult(fit.pooled_mu[:60], fit.pooled_logN[:60], fit.mpsrf, meta)
    assert fit.event_id == event.event_id
    assert fit.pooled_size == 60
    text = dumps(fit)
    back = loads(text)
    assert back.meta == fit.meta
    assert np.array_equal(back.pooled_mu, fit.pooled_mu)
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
    lambda payload: payload["chains"][0].pop("chain_id"),
    lambda payload: payload["config"].update(no_such_setting=1.0),
    *(lambda payload, t_m=t_m: payload.update(t_m=t_m)
      for t_m in (0.0, -2.0, math.nan, math.inf)),
    # a running event's time is exp(x): past the largest float at 1e308, 0.0 at -1e308
    *(lambda payload, field=field, x=x: payload.update({field: x})
      for field, x in (("best_x", 1e308), ("record_x", 1e308), ("record_x", -1e308))),
], ids=["no-mpsrf", "no-chain_id", "unknown-config-field",
        "t_m-zero", "t_m-negative", "t_m-nan", "t_m-infinite",
        "best_x-1e308", "record_x-1e308", "record_x-minus-1e308"])
def test_loads_rejects_bad_meta_keys(edit):
    with pytest.raises(FitFileError, match="missing or malformed"):
        loads(_edit_meta(edit))


def _scalars(value, path=()):
    """(path, value) of every scalar in a JSON payload, list items included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _scalars(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _scalars(item, (*path, i))
    else:
        yield path, value


def _wrong_types(value):
    """JSON values of another type than `value`: a string or a number of the
    wrong kind, a bool and a null; for a float, also the non-finite numbers
    that Python's json module reads."""
    if isinstance(value, str):
        return [3, 2.5, True, None]
    if isinstance(value, int):
        return [str(value), float(value), True, None]
    # a float field takes any finite number
    return [str(value), True, None, math.nan, math.inf, -math.inf]


def _fill_lists(payload):
    """sample_fit's metadata with an item in each list, for a corruption to reach."""
    payload["failed_chains"] = [5]
    payload["notes"] = ["chain 3 retuned"]


def _corruptions():
    lines = _edit_meta(_fill_lists).splitlines()
    payload = json.loads(lines[1][len("#meta "):])
    for path, value in _scalars(payload):
        for wrong in _wrong_types(value):
            yield pytest.param(path, wrong, id=".".join(map(str, path)) + "=" + json.dumps(wrong))


def test_loads_reads_the_payload_every_corruption_starts_from():
    fit = loads(_edit_meta(_fill_lists))
    assert (fit.meta.failed_chains, fit.meta.notes) == ((5,), ("chain 3 retuned",))


@pytest.mark.parametrize("path, wrong", list(_corruptions()))
def test_loads_type_checks_every_scalar(path, wrong):
    def edit(payload):
        _fill_lists(payload)
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = wrong

    with pytest.raises(FitFileError, match="^metadata "):
        loads(_edit_meta(edit))


def test_loads_refuses_a_span_too_large_for_a_float():
    # a JSON integer has no size limit, and the span check cannot compare it
    with pytest.raises(FitFileError, match="missing or malformed: .*too large"):
        loads(_edit_meta(lambda payload: payload.update(t_m=10**400)))


@pytest.mark.parametrize("field, literal", [
    ("record_x", "1" + "0" * 400),
    ("n_k", "1" + "0" * 400),
    ("record_x", "-1" + "0" * 400),
    ("record_x", str(int(sys.float_info.max) + 1)),
    ("record_x", "1" + "0" * 5000),
], ids=["float-field", "int-field", "negative", "just-above-the-largest-float",
        "past-int-digit-limit"])
def test_loads_refuses_an_integer_too_large_for_a_float(field, literal):
    # json reads an integer of any size, and int() refuses more than 4300
    # digits with a ValueError; the refusal must not echo the digits
    text = _edit_meta(lambda payload: payload.update({field: 424242}))
    assert text.count(": 424242") == 1
    with pytest.raises(FitFileError) as refused:
        loads(text.replace(": 424242", ": " + literal))
    message = str(refused.value)
    assert message.startswith("metadata is missing or malformed: ")
    assert "too large for a float" in message
    assert "0" * 20 not in message


def test_loads_reads_the_largest_float_written_as_an_integer():
    # in t_m, which takes any positive float: a mark this large decodes to no
    # finite time, and FitMetadata refuses it
    largest = int(sys.float_info.max)
    text = _edit_meta(lambda payload: payload.update(t_m=424242))
    fit = loads(text.replace(": 424242", f": {largest}"))
    assert fit.meta.t_m == largest


def test_a_fit_of_the_largest_seed_round_trips():
    # SamplerConfig refuses a larger seed, so every fit's file reads back
    fit = sample_fit()
    config = dataclasses.replace(fit.meta.config, seed=int(sys.float_info.max))
    fit = dataclasses.replace(fit, meta=dataclasses.replace(fit.meta, config=config))
    text = dumps(fit)
    assert dumps(loads(text)) == text


def test_loads_refuses_a_number_that_overflows_to_infinity():
    text = _edit_meta(lambda payload: payload.update(record_x=123.0))
    assert text.count('"record_x": 123.0') == 1
    with pytest.raises(FitFileError, match="malformed: 1e400 is not a finite number$"):
        loads(text.replace('"record_x": 123.0', '"record_x": 1e400'))


def test_dumps_refuses_a_non_finite_number():
    # a file that loads would refuse is not written
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps(make_fit(np.full(10, 2.52), np.full(10, 9.0), best_x=math.nan))


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


def test_load_fit_and_loads_agree(tmp_path):
    path = tmp_path / "ev.fit"
    save_fit(sample_fit(), path)
    from_path, from_text = load_fit(path), loads(path.read_text())
    assert dumps(from_path) == dumps(from_text) == path.read_text()
    for name in ("pooled_mu", "pooled_logN"):
        a, b = getattr(from_path, name), getattr(from_text, name)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_load_fit_refuses_a_non_ascii_draws_byte_as_not_hex(tmp_path):
    path = tmp_path / "ev.fit"
    save_fit(sample_fit(), path)
    data = path.read_bytes()
    at = data.rindex(b"\n", 0, -1) + 5  # inside the draws line
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(FitFileError, match="not hex") as err:
        load_fit(path)
    assert str(path) in str(err.value)
    assert "cannot read" not in str(err.value)


@pytest.mark.parametrize("content, message", [
    (b"#tailcast-fit/2\n", "first line must be"),
    (b'#tailcast-fit/10\n#meta {"event": "\xff"}\n#draws 1 mu logN\n00\n', "cannot read"),
    (None, "cannot read"),
], ids=["old-format", "not-utf8", "missing"])
def test_load_fit_names_the_file(tmp_path, content, message):
    path = tmp_path / "ev.fit"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(FitFileError, match=message) as err:
        load_fit(path)
    assert str(path) in str(err.value)


def test_atomic_write_overwrites(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("blocked_by", ["a-directory", "a-file-parent"])
def test_atomic_write_names_a_path_it_cannot_write(tmp_path, blocked_by):
    # the write fails as an error naming the path, and leaves no temp file
    if blocked_by == "a-directory":
        path = tmp_path / "out.txt"
        path.mkdir()
    else:
        (tmp_path / "parent").write_text("")
        path = tmp_path / "parent" / "out.txt"
    with pytest.raises(TailcastError, match=f"^cannot write {path}: "):
        atomic_write_text(path, "text")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        atomic_write_text(path, "text")
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode


def test_loads_rejects_wrong_format_line():
    with pytest.raises(FitFileError):
        loads("#something-else/9\n")


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_loads_rejects_old_format(version):
    lines = dumps(sample_fit()).splitlines()
    lines[0] = f"#tailcast-fit/{version}"
    with pytest.raises(FitFileError, match="refit .* with `tailcast fit`"):
        loads("\n".join(lines) + "\n")


def test_loads_rejects_truncated():
    with pytest.raises(FitFileError):
        loads(FORMAT_LINE + "\n")


def test_loads_rejects_bad_meta_json():
    text = FORMAT_LINE + "\n#meta {not json\n#draws 1 mu logN\n" + "00" * 16 + "\n"
    with pytest.raises(FitFileError, match="not valid JSON"):
        loads(text)


def test_loads_rejects_wrong_columns():
    text = dumps(sample_fit()).replace(" mu logN\n", " logN mu\n")
    with pytest.raises(FitFileError, match="third line"):
        loads(text)


@pytest.mark.parametrize("field, text", [
    (0, "0.5"),   # not the #draws keyword
    (1, "1.5"),   # fractional draw count
    (1, "0"),     # no draws
    (2, "fast"),  # not a draw column
    (0, "#"),     # a stray comment marker
])
def test_loads_rejects_malformed_draw_line(field, text):
    lines = dumps(sample_fit()).splitlines()
    fields = lines[2].split(" ")
    fields[field] = text
    lines[2] = " ".join(fields)
    with pytest.raises(FitFileError, match="third line"):
        loads("\n".join(lines) + "\n")


def _reencode(lines, edit):
    """lines with the draws block decoded, passed through edit(bytes), encoded again."""
    raw = edit(bytes.fromhex(lines[3]))
    return lines[:3] + [raw.hex()]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + lines[3:], "third line"),
    (lambda lines: lines[:3] + ["g" + lines[3][1:]], "not hex"),
    (lambda lines: lines[:3] + [lines[3][:-1]], "not hex"),
    (lambda lines: lines[:3] + [lines[3] + " "], "not hex"),
    (lambda lines: lines[:3] + ["é" + lines[3][1:]], "not hex"),
    (lambda lines: lines[:3] + ["\ud800" + lines[3][1:]], "not hex"),
    (lambda lines: _reencode(lines, lambda raw: raw[:-8]), "bytes"),
    (lambda lines: [*lines[:2], lines[2].replace("200", "199"), lines[3]], "bytes"),
    (lambda lines: lines + ["00"], "single line"),
], ids=["no-draws-header", "not-hex", "truncated", "trailing-space", "not-ascii",
        "lone-surrogate", "one-draw-short", "header-disagrees", "extra-line"])
def test_loads_rejects_bad_draws_block(edit, message):
    lines = dumps(sample_fit()).splitlines()
    assert lines[2] == "#draws 200 mu logN"
    with pytest.raises(FitFileError, match=message):
        loads("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("chain_ids", [[0, 0], [0, "1"], [0, 1.0], [0, True]],
                         ids=["duplicate", "string", "float", "bool"])
def test_loads_rejects_bad_chain_ids(chain_ids):
    def edit(payload):
        for chain, chain_id in zip(payload["chains"], chain_ids):
            chain["chain_id"] = chain_id

    with pytest.raises(FitFileError, match="distinct integers"):
        loads(_edit_meta(edit))


def test_loads_rejects_header_only():
    header = dumps(sample_fit()).splitlines()[:3]
    with pytest.raises(FitFileError, match="no posterior draws"):
        loads("\n".join(header) + "\n\n")


@pytest.mark.parametrize("edit, pooled", [
    (lambda payload: payload["config"].update(pool_size=150), 150),
    (lambda payload: payload["config"].update(batches=50), 100),
    (lambda payload: payload["config"].update(batches=150) or payload["chains"].pop(), 150),
], ids=["smaller-pool", "fewer-batches", "fewer-chains"])
def test_loads_rejects_a_draw_count_the_metadata_does_not_pool(edit, pooled):
    # sample_fit pools all 200 draws of two chains of 1000 draws into 200
    with pytest.raises(FitFileError, match=f"holds 200 pooled draws; .* pool to {pooled}$"):
        loads(_edit_meta(edit))


def test_loads_keeps_chains_in_meta_order():
    fit = sample_fit()
    chains = tuple(dataclasses.replace(chain, chain_id=chain_id)
                   for chain, chain_id in zip(fit.meta.chains, (7, 2)))
    fit = dataclasses.replace(fit, meta=dataclasses.replace(fit.meta, chains=chains))
    back = loads(dumps(fit))
    assert [chain.chain_id for chain in back.meta.chains] == [7, 2]
    assert back.meta.chains == chains
    assert np.array_equal(back.pooled_mu, fit.pooled_mu)
    assert np.array_equal(back.pooled_logN, fit.pooled_logN)


def _edit_draws(edits):
    """A sample fit file with draws[row, i] = value for each edit, row 0
    being the pooled mu and row 1 the pooled log N."""
    lines = dumps(sample_fit()).splitlines()

    def edit(raw):
        block = np.frombuffer(raw, dtype="<f8").reshape(2, -1).copy()
        for row, i, value in edits:
            block[row, i] = value
        return block.tobytes()

    return "\n".join(_reencode(lines, edit)) + "\n"


@pytest.mark.parametrize("edits, draw", [
    ([(0, 107, math.nan)], 107),
    ([(1, 103, math.inf)], 103),
    ([(0, 5, W_K)], 5),
    ([(1, 109, math.log(2 * N_K) - 1e-9)], 109),
    ([(1, 9, 800.0)], 9),
    ([(1, 11, 720.0)], 11),
    ([(0, 104, 1e300), (1, 104, math.log(2 * N_K) + 1e-9)], 104),
    ([(0, 100, math.nan), (0, 99, 0.0)], 99),
], ids=["nan-mu", "infinite-logN", "mu-at-w_k", "half-the-population", "share-underflows",
        "beyond-the-kernel", "sigma-overflows", "first-chain-named"])
def test_loads_rejects_draws_outside_the_model(edits, draw):
    # sigma is derived from (mu, log N), so such a draw would pool a sigma
    # that is nan, infinite, zero or negative; the first such draw is named
    with pytest.raises(FitFileError,
                       match=f"pooled draw {draw} .* is outside the tail-mass identity's domain"):
        loads(_edit_draws(edits))


def test_a_load_evaluates_the_identity_once(monkeypatch):
    text = dumps(sample_fit())
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_mass_sigma(*args)

    monkeypatch.setattr(distcore, "tail_mass_sigma", counted)
    monkeypatch.setattr(sampler, "tail_mass_sigma", counted)
    loads(text)
    assert len(calls) == 1


def test_loads_takes_draws_just_inside_the_model():
    text = _edit_draws([(0, 5, np.nextafter(W_K, math.inf)),
                        (1, 109, math.log(2 * N_K) + 1e-9)])
    fit = loads(text)
    assert np.all(np.isfinite(fit.pooled_sigma)) and np.all(fit.pooled_sigma > 0.0)


# Draws inside the model for make_fit's defaults (w_k = 0, n_k = 100): mu > 0
# and 100 exp(-log N) in (0, 0.5) with log N below 700, bit patterns at the
# edges included. mu runs from the least normal double to 1e100, where
# sigma = (w_k - mu) / Phi^-1(n_k/N) neither rounds to 0 nor overflows;
# loads refuses a draw whose sigma does (share-underflows, sigma-overflows
# above).
LAST_LOGN = float(np.nextafter(700.0, 0.0))
IN_DOMAIN_MU = st.one_of(
    st.sampled_from([2.2250738585072014e-308, 1.0, 1e100]),
    st.floats(min_value=2.2250738585072014e-308, max_value=1e100))
IN_DOMAIN_LOGN = st.one_of(
    st.sampled_from([math.log(200.0) + 1e-12, LAST_LOGN]),
    st.floats(min_value=math.log(200.0) + 1e-12, max_value=LAST_LOGN))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(IN_DOMAIN_MU, min_size=2 * n, max_size=2 * n),
    st.lists(IN_DOMAIN_LOGN, min_size=2 * n, max_size=2 * n))))
def test_round_trip_keeps_every_float64_bit(tmp_path_factory, draws):
    mu, logN = (np.array(d, dtype=np.float64) for d in draws)
    fit = make_fit(mu=mu, logN=logN, best_x=0.0)
    text = dumps(fit)
    path = tmp_path_factory.getbasetemp() / "round-trip.fit"
    save_fit(fit, path)
    for back in (loads(text), load_fit(path)):
        assert dumps(back) == text
        for name in ("pooled_mu", "pooled_logN"):
            a, b = getattr(fit, name), getattr(back, name)
            assert b.dtype == np.float64 and b.flags.writeable
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.array_equal(back.pooled_sigma.view(np.uint64),
                              fit.pooled_sigma.view(np.uint64))
