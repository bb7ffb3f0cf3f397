"""Synthetic corpora drawn from the model itself.

Used by the test suite and the benchmark: performance lists whose true
population parameters are known, each the best `keep` of `population`
normal draws, dated uniformly over a span of years.
"""
from __future__ import annotations

from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ingest import (
    EventSpec,
    PerformanceList,
    decode_mark,
    write_list_file,
)


def sample_tail(seed, mu: float, sigma: float, population: int, keep: int) -> np.ndarray:
    """The `keep` best transformed marks among `population` normal draws, sorted."""
    if not 1 <= keep <= population:
        raise ValueError(f"keep must be in [1, {population}], got {keep}")
    rng = np.random.default_rng(seed)
    draws = rng.normal(mu, sigma, population)
    draws.sort()
    return draws[:keep].copy()


def tail_performance_list(event: EventSpec, tail: Sequence[float],
                          first_year: int, last_year: int, seed) -> PerformanceList:
    """Wrap a tail of transformed marks into a dated PerformanceList.

    Dates are uniform over the calendar span; they carry no signal beyond
    fixing the list's t_m, the data span of a list with no window: a list
    of one calendar year (first_year == last_year) spans 1.0.
    """
    rng = np.random.default_rng(seed)
    start = date(first_year, 1, 1).toordinal()
    span_days = date(last_year + 1, 1, 1).toordinal() - start
    offsets = rng.integers(0, span_days, len(tail))
    return PerformanceList.from_columns(event, [decode_mark(event, float(x)) for x in tail],
                                        (start + offsets).tolist())


def write_corpus(out_dir: Path, lists: Iterable[PerformanceList]) -> list[Path]:
    """Write one data file per event; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for data in lists:
        path = out_dir / f"{data.event.event_id}.tsv"
        write_list_file(path, data.event, data.iter_records())
        paths.append(path)
    return paths
