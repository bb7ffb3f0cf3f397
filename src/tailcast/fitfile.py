"""Persistence for fitted posteriors: the tailcast-fit/1 text format.

A fit file is self-describing and deterministic. Line 1 names the format,
line 2 carries a JSON metadata object, line 3 names the draw columns, and
every following line is one tab-separated posterior draw. Re-saving a
loaded fit reproduces the file byte for byte.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .emprior import HyperPrior, Provenance
from .errors import TailcastError
from .ingest import Direction, EventSpec, Unit
from .sampler import (
    FitMetadata,
    FitResult,
    PosteriorChain,
    SamplerConfig,
    _pool_draws,
)

FORMAT_LINE = "#tailcast-fit/1"
COLUMNS = ("chain_id", "draw_index", "mu", "logN", "sigma")


class FitFileError(TailcastError):
    """The file is not a readable tailcast-fit/1 document."""


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
    meta = fit.meta
    return {
        "event": {
            "event_id": meta.event.event_id,
            "direction": meta.event.direction.value,
            "unit": meta.event.unit.value,
            "display_name": meta.event.display_name,
        },
        "t_m": meta.t_m,
        "n_k": meta.n_k,
        "w_k": meta.w_k,
        "c_k": meta.c_k,
        "best_x": meta.best_x,
        "prior": {
            "mu_N": meta.prior.mu_N,
            "sigma2_N": meta.prior.sigma2_N,
            "provenance": meta.prior.provenance.value,
            "contributing_events": list(meta.prior.contributing_events),
        },
        "config": {
            "burn_in_steps": meta.config.burn_in_steps,
            "accept_lo": meta.config.accept_lo,
            "accept_hi": meta.config.accept_hi,
            "batches": meta.config.batches,
            "batch_len": meta.config.batch_len,
            "chains": meta.config.chains,
            "step_scale": meta.config.step_scale,
            "max_retunes": meta.config.max_retunes,
            "seed": meta.config.seed,
            "scale_ratio": list(meta.config.scale_ratio),
            "pool_size": meta.config.pool_size,
        },
        "chains": [
            {
                "chain_id": chain.chain_id,
                "accept_rate": chain.accept_rate,
                "step_scale": chain.step_scale,
            }
            for chain in fit.chains
        ],
        "mpsrf": fit.mpsrf if math.isfinite(fit.mpsrf) else "inf",
        "converged": fit.converged,
        "failed_chains": list(meta.failed_chains),
        "notes": list(meta.notes),
    }


def dumps(fit: FitResult) -> str:
    lines = [FORMAT_LINE, "#meta " + json.dumps(_meta_payload(fit), sort_keys=True)]
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


def _parse_meta(line: str) -> dict:
    if not line.startswith("#meta "):
        raise FitFileError("second line must be the #meta JSON object")
    try:
        payload = json.loads(line[len("#meta "):])
    except json.JSONDecodeError as exc:
        raise FitFileError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FitFileError("metadata must be a JSON object")
    return payload


def _rebuild_meta(payload: dict) -> FitMetadata:
    try:
        ev = payload["event"]
        event = EventSpec(
            event_id=ev["event_id"],
            direction=Direction(ev["direction"]),
            unit=Unit(ev["unit"]),
            display_name=ev.get("display_name", ""),
        )
        pr = payload["prior"]
        prior = HyperPrior(
            mu_N=pr["mu_N"],
            sigma2_N=pr["sigma2_N"],
            provenance=Provenance(pr["provenance"]),
            contributing_events=tuple(pr["contributing_events"]),
        )
        cf = payload["config"]
        config = SamplerConfig(
            burn_in_steps=cf["burn_in_steps"],
            accept_lo=cf["accept_lo"],
            accept_hi=cf["accept_hi"],
            batches=cf["batches"],
            batch_len=cf["batch_len"],
            chains=cf["chains"],
            step_scale=cf["step_scale"],
            max_retunes=cf["max_retunes"],
            seed=cf["seed"],
            scale_ratio=tuple(cf["scale_ratio"]),
            pool_size=cf["pool_size"],
        )
        return FitMetadata(
            event=event,
            t_m=payload["t_m"],
            n_k=payload["n_k"],
            w_k=payload["w_k"],
            c_k=payload["c_k"],
            best_x=payload["best_x"],
            prior=prior,
            config=config,
            failed_chains=tuple(payload["failed_chains"]),
            notes=tuple(payload["notes"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FitFileError(f"metadata is missing or malformed: {exc}") from exc


def loads(text: str) -> FitResult:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_LINE:
        raise FitFileError(f"first line must be {FORMAT_LINE!r}")
    if len(lines) < 3:
        raise FitFileError("file ends before the column header")
    payload = _parse_meta(lines[1])
    if lines[2] != "#columns " + "\t".join(COLUMNS):
        raise FitFileError("unexpected column header")
    meta = _rebuild_meta(payload)

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
    chain_info = {c["chain_id"]: c for c in payload.get("chains", [])}
    chains = []
    for chain_id, draws in zip(map(int, chain_ids), np.split(table, starts[1:])):
        if not np.array_equal(draws[:, 1], np.arange(len(draws))):
            raise FitFileError(f"chain {chain_id}: draw indices are not 0..{len(draws) - 1}")
        info = chain_info.get(chain_id, {})
        chains.append(PosteriorChain(
            chain_id=chain_id,
            mu=draws[:, 2],
            logN=draws[:, 3],
            accept_rate=info.get("accept_rate", math.nan),
            step_scale=info.get("step_scale", math.nan),
            sigma=draws[:, 4],
        ))

    mpsrf = payload["mpsrf"]
    mpsrf = math.inf if mpsrf == "inf" else float(mpsrf)
    pooled_mu, pooled_logN, pooled_sigma = _pool_draws(chains, meta.config.pool_size)
    return FitResult(
        event_id=meta.event.event_id,
        chains=tuple(chains),
        pooled_mu=pooled_mu,
        pooled_logN=pooled_logN,
        pooled_sigma=pooled_sigma,
        mpsrf=mpsrf,
        converged=bool(payload["converged"]),
        meta=meta,
    )


def load_fit(path: Path) -> FitResult:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FitFileError(f"cannot read {path}: {exc}") from exc
    return loads(text)
