"""Persistence for fitted posteriors: the tailcast-fit/9 text format.

A fit file is self-describing and deterministic. Line 1 names the format,
line 2 is `#meta ` and a JSON metadata object, line 3 is the draws header
`#draws <draws per chain> mu logN`, and line 4 is the lowercase hex of a
little-endian float64 array of shape (chains, 2, draws per chain), the
chains in the order of the metadata's `chains` list. The file holds only
what the sampler samples: each pooled draw's sigma follows from its
(mu, log N) by the tail-mass identity when the fit is rebuilt, so loading
refuses draws outside the identity's domain. The metadata is
`dataclasses.asdict(FitMetadata)`, enums as their values, plus each chain's
id, acceptance rate and step scale, and mpsrf; it is read back by reflecting
on the same dataclasses, so a new metadata field needs no change here.
Re-saving a loaded fit reproduces the file byte for byte.

`load_fit` and `loads` share one parser over bytes: only the three header
lines are decoded as text, and the draws line goes to the hex codec as a
view of the file's bytes. Files of the older formats /1 to /8 are not
read: /1 and /2 held the draws as text tables, /3's metadata held a
truncation-point field that /4 dropped, /4's held the convergence flag and
the sampler's acceptance band and retune budget, /5's lacked the event's
record (`record_x`), /6 also stored a sigma for every draw, which the
identity already fixes, /7's sampler settings held a starting proposal
scale that is now a constant, and /8 held the draws in base64, a third
smaller than hex and about three times slower to decode.
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
import tempfile
import typing
from pathlib import Path

import numpy as np

from .distcore import tail_mass_domain
from .errors import TailcastError
from .sampler import FitMetadata, FitResult, PosteriorChain

FORMAT_LINE = "#tailcast-fit/9"
_FORMAT_BYTES = FORMAT_LINE.encode("ascii")
_DRAWS_HEADER = re.compile(r"#draws ([1-9][0-9]*) mu logN")
_DRAWS_DTYPE = "<f8"  # explicit byte order, so the bytes match on every platform


class FitFileError(TailcastError):
    """The file is not a readable tailcast-fit/9 document."""


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The file gets the mode a plain open() would give it under the current
    umask, not mkstemp's 0600.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    umask = os.umask(0)  # os.umask reads the mask only by setting it; put it back
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_payload(fit: FitResult) -> dict:
    payload = dataclasses.asdict(fit.meta)
    payload["chains"] = [
        {"chain_id": c.chain_id, "accept_rate": c.accept_rate, "step_scale": c.step_scale}
        for c in fit.chains
    ]
    payload["mpsrf"] = fit.mpsrf if math.isfinite(fit.mpsrf) else "inf"
    return payload


def dumps(fit: FitResult) -> str:
    block = np.array([(c.mu, c.logN) for c in fit.chains], dtype=_DRAWS_DTYPE)
    meta = json.dumps(_meta_payload(fit), sort_keys=True, default=lambda e: e.value)
    draws = block.tobytes().hex()
    return f"{FORMAT_LINE}\n#meta {meta}\n#draws {block.shape[2]} mu logN\n{draws}\n"


def save_fit(fit: FitResult, path: Path) -> None:
    atomic_write_text(Path(path), dumps(fit))


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _revive(hint, value):
    """Rebuild a value of type `hint` from its dataclasses.asdict/JSON form."""
    if dataclasses.is_dataclass(hint):
        hints = _field_types(hint)
        return hint(**{key: _revive(hints.get(key), v) for key, v in value.items()})
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(value)
    if typing.get_origin(hint) is tuple:
        return tuple(value)
    return value


def _parse_meta(line: str):
    """(FitMetadata, [(chain_id, accept_rate, step_scale)], mpsrf)."""
    if not line.startswith("#meta "):
        raise FitFileError("second line must be the #meta JSON object")
    try:
        payload = json.loads(line[len("#meta "):])
    except json.JSONDecodeError as exc:
        raise FitFileError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FitFileError("metadata must be a JSON object")
    try:
        chains = [(c["chain_id"], c["accept_rate"], c["step_scale"])
                  for c in payload.pop("chains")]
        mpsrf = float(payload.pop("mpsrf"))
        meta = _revive(FitMetadata, payload)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise FitFileError(f"metadata is missing or malformed: {exc}") from exc
    ids = [chain_id for chain_id, _, _ in chains]
    if not all(type(i) is int for i in ids) or len(set(ids)) != len(ids):
        raise FitFileError(f"metadata chain ids must be distinct integers, got {ids}")
    return meta, chains, mpsrf


def _check_domain(block: np.ndarray, meta: FitMetadata, chain_ids) -> None:
    """Refuse a chain with a draw outside the tail-mass identity's domain.

    sigma rises with mu and falls with log N, so every draw of a chain is in
    the domain when the corners (least mu, most log N) and (most mu, least
    log N) of its range are; a nan makes both corners nan.
    """
    lo, hi = block.min(axis=2), block.max(axis=2)  # (chains, [mu, log N])
    corner_mu = np.stack([lo[:, 0], hi[:, 0]], axis=1)
    corner_logN = np.stack([hi[:, 1], lo[:, 1]], axis=1)
    inside = tail_mass_domain(corner_mu, corner_logN, meta.n_k, meta.w_k).all(axis=1)
    if not inside.all():
        raise FitFileError(
            f"chain {chain_ids[inside.argmin()]} has a draw outside the tail-mass "
            f"identity's domain: w_k = {meta.w_k!r} < mu, 0 < n_k/N < 0.5 for "
            f"n_k = {meta.n_k}, and a positive, finite sigma")


def _parse(data: bytes) -> FitResult:
    """Read a fit file's bytes. The draws line is found with bytes.find and
    handed to a2b_hex as a memoryview: it is never decoded, split or copied."""
    end0 = data.find(b"\n")
    if (data[:end0] if end0 >= 0 else data) != _FORMAT_BYTES:
        raise FitFileError(f"first line must be {FORMAT_LINE!r}; "
                           "refit files of an older format with `tailcast fit`")
    end1 = data.find(b"\n", end0 + 1)
    if end1 < 0 or end1 + 1 == len(data):
        raise FitFileError("file ends before the draws header")
    end2 = data.find(b"\n", end1 + 1)
    if end2 < 0:
        end2 = len(data)
    try:
        meta_line = data[end0 + 1:end1].decode("utf-8")
        draws_line = data[end1 + 1:end2].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FitFileError(f"cannot read the header as UTF-8: {exc}") from exc
    meta, chain_info, mpsrf = _parse_meta(meta_line)
    header = _DRAWS_HEADER.fullmatch(draws_line)
    if header is None:
        raise FitFileError("third line must be '#draws <draws per chain> mu logN' "
                           "with a positive whole number of draws")
    start = end2 + 1
    end = len(data) - data.endswith(b"\n")  # the newline that ends the file starts no line
    if start >= end or data.find(b"\n", start, end) >= 0:
        if not data[start:].strip(b"\n"):
            raise FitFileError("file contains no posterior draws")
        raise FitFileError("the draws block must be a single line of hex")
    try:
        raw = binascii.a2b_hex(memoryview(data)[start:end])
    except binascii.Error as exc:
        raise FitFileError(f"draws block is not hex: {exc}") from exc
    shape = (len(chain_info), 2, int(header[1]))
    if len(raw) != math.prod(shape) * 8:
        raise FitFileError(f"draws block holds {len(raw)} bytes; {shape[0]} chains of "
                           f"{shape[2]} draws need {math.prod(shape) * 8}")

    # astype copies the read-only frombuffer view into a writable native array
    block = np.frombuffer(raw, dtype=_DRAWS_DTYPE).astype(np.float64).reshape(shape)
    _check_domain(block, meta, [chain_id for chain_id, _, _ in chain_info])
    chains = tuple(
        PosteriorChain(chain_id=chain_id, mu=mu, logN=logN, accept_rate=accept_rate,
                       step_scale=step_scale)
        for (chain_id, accept_rate, step_scale), (mu, logN) in zip(chain_info, block)
    )
    return FitResult(chains, mpsrf, meta)


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
