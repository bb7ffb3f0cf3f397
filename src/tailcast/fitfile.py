"""Persistence for fitted posteriors: the tailcast-fit/2 text format.

A fit file is self-describing and deterministic. Line 1 names the format,
line 2 carries a JSON metadata object, line 3 names the draw columns, and
every following line is one tab-separated posterior draw. The metadata is
`dataclasses.asdict(FitMetadata)`, enums as their values, plus each chain's
acceptance rate and step scale, mpsrf and converged; it is read back by
reflecting on the same dataclasses, so a new metadata field needs no change
here. Re-saving a loaded fit reproduces the file byte for byte.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import os
import tempfile
import typing
from pathlib import Path

import numpy as np

from .emprior import HyperPrior
from .errors import TailcastError
from .ingest import EventSpec
from .sampler import FitMetadata, FitResult, PosteriorChain, _pool_draws

FORMAT_LINE = "#tailcast-fit/2"
COLUMNS = ("chain_id", "draw_index", "mu", "logN", "sigma")
# FitMetadata's annotations name these by string only: sampler imports them
# just for type checking, so get_type_hints is told where they live.
_META_TYPES = {"EventSpec": EventSpec, "HyperPrior": HyperPrior}


class FitFileError(TailcastError):
    """The file is not a readable tailcast-fit/2 document."""


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
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
    payload["converged"] = fit.converged
    return payload


def dumps(fit: FitResult) -> str:
    meta = json.dumps(_meta_payload(fit), sort_keys=True, default=lambda e: e.value)
    lines = [FORMAT_LINE, "#meta " + meta]
    lines.append("#columns " + "\t".join(COLUMNS))
    for chain in fit.chains:
        sigma = chain.sigma
        if sigma is None:
            raise FitFileError(f"chain {chain.chain_id} has no sigma draws to save")
        for i in range(len(chain)):
            lines.append(
                f"{chain.chain_id}\t{i}\t{float(chain.mu[i])!r}"
                f"\t{float(chain.logN[i])!r}\t{float(sigma[i])!r}"
            )
    return "\n".join(lines) + "\n"


def save_fit(fit: FitResult, path: Path) -> None:
    atomic_write_text(Path(path), dumps(fit))


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls, localns=_META_TYPES)


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
    """(FitMetadata, {chain_id: (accept_rate, step_scale)}, mpsrf, converged)."""
    if not line.startswith("#meta "):
        raise FitFileError("second line must be the #meta JSON object")
    try:
        payload = json.loads(line[len("#meta "):])
    except json.JSONDecodeError as exc:
        raise FitFileError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FitFileError("metadata must be a JSON object")
    try:
        chains = {c["chain_id"]: (c["accept_rate"], c["step_scale"])
                  for c in payload.pop("chains")}
        mpsrf = float(payload.pop("mpsrf"))
        converged = bool(payload.pop("converged"))
        meta = _revive(FitMetadata, payload)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise FitFileError(f"metadata is missing or malformed: {exc}") from exc
    return meta, chains, mpsrf, converged


def loads(text: str) -> FitResult:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise FitFileError(f"first line must be {FORMAT_LINE!r}; "
                           "refit files of an older format with `tailcast fit`")
    if len(lines) < 3:
        raise FitFileError("file ends before the column header")
    meta, chain_info, mpsrf, converged = _parse_meta(lines[1])
    if lines[2] != "#columns " + "\t".join(COLUMNS):
        raise FitFileError("unexpected column header")

    rows = lines[3:]
    if not any(rows):
        raise FitFileError("file contains no posterior draws")
    try:
        table = np.loadtxt(rows, delimiter="\t", comments=None, ndmin=2)
    except ValueError as exc:
        raise FitFileError(f"draw lines: {exc}") from exc
    if table.shape[1] != len(COLUMNS):
        raise FitFileError(f"draw lines: expected {len(COLUMNS)} columns, got {table.shape[1]}")
    ids = table[:, :2]
    if not np.all(np.isfinite(ids) & (ids == np.floor(ids))):
        raise FitFileError("draw lines: chain_id and draw_index must be integers")

    # a stable sort keeps each chain's draws in file order
    table = table[np.argsort(table[:, 0], kind="stable")]
    chain_ids, starts = np.unique(table[:, 0], return_index=True)
    chains = []
    for chain_id, draws in zip(map(int, chain_ids), np.split(table, starts[1:])):
        if not np.array_equal(draws[:, 1], np.arange(len(draws))):
            raise FitFileError(f"chain {chain_id}: draw indices are not 0..{len(draws) - 1}")
        accept_rate, step_scale = chain_info.get(chain_id, (math.nan, math.nan))
        chains.append(PosteriorChain(
            chain_id=chain_id,
            mu=draws[:, 2],
            logN=draws[:, 3],
            accept_rate=accept_rate,
            step_scale=step_scale,
            sigma=draws[:, 4],
        ))

    pooled_mu, pooled_logN, pooled_sigma = _pool_draws(chains, meta.config.pool_size)
    return FitResult(
        event_id=meta.event.event_id,
        chains=tuple(chains),
        pooled_mu=pooled_mu,
        pooled_logN=pooled_logN,
        pooled_sigma=pooled_sigma,
        mpsrf=mpsrf,
        converged=converged,
        meta=meta,
    )


def load_fit(path: Path) -> FitResult:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FitFileError(f"cannot read {path}: {exc}") from exc
    return loads(text)
