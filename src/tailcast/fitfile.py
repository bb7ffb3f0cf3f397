"""Persistence for fitted posteriors: the tailcast-fit/10 text format.

A fit file is self-describing and deterministic. Line 1 names the format,
line 2 is `#meta ` and a JSON metadata object, line 3 is the draws header
`#draws <pooled draws> mu logN`, and line 4 is the lowercase hex of a
little-endian float64 array of shape (2, pooled draws): the pooled mu,
then the pooled log N, in chain order; 33 KB at the default pool of 1000.
The file holds what forecasts read. The chains are not kept: nothing
reads them, and their diagnostics belong at fit time. Each pooled draw's
sigma follows from its (mu, log N) by the tail-mass identity when the fit
is rebuilt, so loading refuses a draw outside the identity's domain, and
a draw count other than the pool of the metadata's sampled chains. The
metadata is `dataclasses.asdict(FitMetadata)`, enums as their values,
each sampled chain's id, acceptance rate and step scale among it, plus
mpsrf; it is read back by reflecting on the same dataclasses, once per
type: each type's reviver is planned on first use and cached, so a new
metadata field needs no change here. The plan checks each value's JSON
type: a float field takes a number, an int field an integer, a str field
a string, a tuple field a list, and none a bool; mpsrf takes a number or
the "inf" that `dumps` writes; no number may be non-finite, on reading or
writing, and no integer too large for a float is read. Re-saving a loaded
fit reproduces the file byte for byte.

`load_fit` and `loads` share one parser over bytes: one split cuts off the
three header lines, only they are decoded as text, and the draws line goes
to the hex codec as bytes. The identity is evaluated once per load, by
`FitResult`, and a draw whose sigma it leaves nan is refused. Files of the
older formats /1 to /9 are not read: /1 and /2 held the draws as text
tables, /3's metadata held a truncation-point field that /4 dropped, /4's
held the convergence flag and the sampler's acceptance band and retune
budget, /5's lacked the event's record (`record_x`), /6 also stored a
sigma for every draw, which the identity already fixes, /7's sampler
settings held a starting proposal scale that is now a constant, /8 held
the draws in base64, a third smaller than hex and about three times slower
to decode, and /9 held every chain's retained draws instead of the pool:
321 KB at the defaults.
"""
from __future__ import annotations

import binascii
import dataclasses
import enum
import functools
import json
import math
import os
import re
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np

from .errors import TailcastError
from .sampler import FitMetadata, FitResult

FORMAT_LINE = "#tailcast-fit/10"
_FORMAT_BYTES = FORMAT_LINE.encode("ascii")
_DRAWS_HEADER = re.compile(r"#draws ([1-9][0-9]*) mu logN")
_DRAWS_DTYPE = "<f8"  # explicit byte order, so the bytes match on every platform


class FitFileError(TailcastError):
    """The file is not a readable tailcast-fit/10 document."""


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The file gets the mode a plain open() would give it under the current
    umask, not mkstemp's 0600. A write the system refuses (the path is a
    directory, the disk is full) leaves no temp file and raises
    TailcastError naming the path.
    """
    path = Path(path)
    umask = os.umask(0)  # os.umask reads the mask only by setting it; put it back
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise TailcastError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def dumps(fit: FitResult) -> str:
    payload = dataclasses.asdict(fit.meta)
    payload["mpsrf"] = fit.mpsrf if math.isfinite(fit.mpsrf) else "inf"
    meta = json.dumps(payload, sort_keys=True, allow_nan=False, default=lambda e: e.value)
    draws = np.array((fit.pooled_mu, fit.pooled_logN), dtype=_DRAWS_DTYPE).tobytes().hex()
    return f"{FORMAT_LINE}\n#meta {meta}\n#draws {fit.pooled_size} mu logN\n{draws}\n"


def save_fit(fit: FitResult, path: Path) -> None:
    atomic_write_text(Path(path), dumps(fit))


def _as_is(value):
    return value


# The JSON types each scalar field takes: a float field takes an integer
# too, and no field a bool, which Python counts as an int.
_SCALARS = {float: (int, float), int: (int,), str: (str,)}


class _WrongType(TypeError):
    """A metadata value of the wrong JSON type; each dataclass prefixes its field."""


def _checked(value, kinds: tuple[type, ...], name: str):
    if type(value) not in kinds:
        raise _WrongType(f"expected {name}, got {value!r}")
    return value


@functools.cache
def _reviver(hint):
    """The function that rebuilds a value of type `hint` from its
    dataclasses.asdict/JSON form, checking its JSON types, planned once per
    type by reflecting on it."""
    if dataclasses.is_dataclass(hint):
        fields = {key: _reviver(h) for key, h in typing.get_type_hints(hint).items()}

        def revive(value):
            kwargs = {}
            for key, v in value.items():
                try:
                    kwargs[key] = fields.get(key, _as_is)(v)
                except _WrongType as exc:
                    raise _WrongType(f"{key}: {exc}") from None
            return hint(**kwargs)
        return revive
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    if typing.get_origin(hint) is tuple:  # tuple[X, ...], a JSON list
        item = _reviver(typing.get_args(hint)[0])
        return lambda value: tuple(map(item, _checked(value, (list,), "list")))
    if hint in _SCALARS:
        return lambda value: _checked(value, _SCALARS[hint], hint.__name__)
    return _as_is


def _finite(text: str) -> float:
    """A JSON number, refused unless finite: json reads NaN, Infinity and 1e400."""
    value = float(text)
    if not math.isfinite(value):
        raise FitFileError(f"metadata is missing or malformed: {text} is not a finite number")
    return value


# A JSON integer has no size limit. One longer than the largest float's 309
# digits is refused before int() reads it (int() refuses more than 4300 with
# a ValueError), and a shorter one by its value.
_FLOAT_DIGITS = len(str(int(sys.float_info.max)))


def _whole(text: str) -> int:
    """A JSON integer, refused unless a float can hold it."""
    digits = len(text.lstrip("-"))
    if digits <= _FLOAT_DIGITS:
        value = int(text)
        if abs(value) <= sys.float_info.max:
            return value
    raise FitFileError(f"metadata is missing or malformed: an integer of {digits} digits "
                       "is too large for a float")


_META_JSON = json.JSONDecoder(parse_float=_finite, parse_int=_whole, parse_constant=_finite)


def _parse_meta(line: str):
    """(FitMetadata, mpsrf)."""
    if not line.startswith("#meta "):
        raise FitFileError("second line must be the #meta JSON object")
    try:
        payload = _META_JSON.decode(line[len("#meta "):])
    except json.JSONDecodeError as exc:
        raise FitFileError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FitFileError("metadata must be a JSON object")
    try:
        mpsrf = payload.pop("mpsrf")  # dumps writes a non-finite one as "inf"
        if mpsrf != "inf" and type(mpsrf) not in (int, float):
            raise TypeError(f"mpsrf: expected float or 'inf', got {mpsrf!r}")
        mpsrf = float(mpsrf)
        ids = [chain["chain_id"] for chain in payload["chains"]]
        if not all(type(i) is int for i in ids) or len(set(ids)) != len(ids):
            raise FitFileError(f"metadata chain ids must be distinct integers, got {ids}")
        meta = _reviver(FitMetadata)(payload)
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise FitFileError(f"metadata is missing or malformed: {exc}") from exc
    return meta, mpsrf


def _parse(data: bytes) -> FitResult:
    """Read a fit file's bytes. Only the three header lines are decoded as
    text; the draws line goes to a2b_hex as bytes."""
    lines = data.split(b"\n", 3)
    if lines[0] != _FORMAT_BYTES:
        raise FitFileError(f"first line must be {FORMAT_LINE!r}; "
                           "refit files of an older format with `tailcast fit`")
    if len(lines) < 3 or lines[2:] == [b""]:
        raise FitFileError("file ends before the draws header")
    try:
        meta_line, draws_line = lines[1].decode("utf-8"), lines[2].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FitFileError(f"cannot read the header as UTF-8: {exc}") from exc
    meta, mpsrf = _parse_meta(meta_line)
    header = _DRAWS_HEADER.fullmatch(draws_line)
    if header is None:
        raise FitFileError("third line must be '#draws <pooled draws> mu logN' "
                           "with a positive whole number of draws")
    rest = lines[3] if len(lines) == 4 else b""
    body = rest.removesuffix(b"\n")  # the newline that ends the file starts no line
    if not body or b"\n" in body:
        if not rest.strip(b"\n"):
            raise FitFileError("file contains no posterior draws")
        raise FitFileError("the draws block must be a single line of hex")
    try:
        raw = binascii.a2b_hex(body)
    except binascii.Error as exc:
        raise FitFileError(f"draws block is not hex: {exc}") from exc
    n = int(header[1])
    if len(raw) != 2 * n * 8:
        raise FitFileError(f"draws block holds {len(raw)} bytes; {n} draws of (mu, log N) "
                           f"need {2 * n * 8}")
    config = meta.config
    pooled = min(config.pool_size, len(meta.chains) * config.batches)
    if n != pooled:
        raise FitFileError(f"the file holds {n} pooled draws; {len(meta.chains)} sampled "
                           f"chains of {config.batches} draws pool to {pooled}")
    # astype copies the read-only frombuffer view into a writable native array
    mu, logN = np.frombuffer(raw, dtype=_DRAWS_DTYPE).astype(np.float64).reshape(2, n)
    fit = FitResult(mu, logN, mpsrf, meta)
    outside = np.isnan(fit.pooled_sigma)
    if outside.any():
        i = int(outside.argmax())
        raise FitFileError(
            f"pooled draw {i} (mu = {float(mu[i])!r}, log N = {float(logN[i])!r}) is "
            f"outside the tail-mass identity's domain: w_k = {meta.w_k!r} < mu, "
            f"0 < n_k/N < 0.5 for n_k = {meta.n_k}, and a positive, finite sigma")
    return fit


def loads(text: str) -> FitResult:
    # surrogatepass lets a lone surrogate reach the parser, which refuses it
    # like any undecodable byte
    return _parse(text.encode("utf-8", "surrogatepass"))


def load_fit(path: Path) -> FitResult:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FitFileError(f"cannot read {path}: {exc}") from exc
    try:
        return _parse(data)
    except FitFileError as exc:
        raise FitFileError(f"{path}: {exc}") from exc
