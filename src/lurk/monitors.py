"""Monitor ingestion: daily series to annual means with a completeness rule.

A site keeps its annual mean only when at least 75% of the calendar days
carry a valid measurement; sites at exactly the threshold are retained.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from ._util import fmt_float

DEFAULT_MIN_COMPLETENESS = 0.75


@dataclass(frozen=True)
class MonitorTable:
    """Monitoring sites with coordinates, group labels, and annual means."""

    site_ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    province: tuple[str, ...]
    city: tuple[str, ...]
    annual_mean: np.ndarray
    n_valid_days: np.ndarray
    n_calendar_days: np.ndarray

    def __post_init__(self):
        n = len(self.site_ids)
        if len(set(self.site_ids)) != n:
            raise InvalidArgumentError("site_ids must be unique")
        for name in ("x", "y", "annual_mean"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise InvalidArgumentError(f"{name} must have one entry per site")
            if name in ("x", "y") and not np.all(np.isfinite(arr)):
                raise InvalidArgumentError("site coordinates must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("n_valid_days", "n_calendar_days"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.site_ids)

    @property
    def coords(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def groups(self, key: str) -> tuple[str, ...]:
        if key == "province":
            return self.province
        if key == "city":
            return self.city
        raise InvalidArgumentError(f"unknown group key {key!r} (use 'province' or 'city')")

    def subset(self, indices) -> "MonitorTable":
        idx = np.asarray(indices)
        return MonitorTable(
            site_ids=tuple(self.site_ids[i] for i in idx),
            x=self.x[idx],
            y=self.y[idx],
            province=tuple(self.province[i] for i in idx),
            city=tuple(self.city[i] for i in idx),
            annual_mean=self.annual_mean[idx],
            n_valid_days=self.n_valid_days[idx],
            n_calendar_days=self.n_calendar_days[idx],
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["site_id", "x", "y", "province", "city",
                        "annual_mean", "n_valid_days", "n_calendar_days"])
            for i, sid in enumerate(self.site_ids):
                w.writerow([
                    sid, fmt_float(self.x[i]), fmt_float(self.y[i]),
                    self.province[i], self.city[i], fmt_float(self.annual_mean[i]),
                    int(self.n_valid_days[i]), int(self.n_calendar_days[i]),
                ])

    @classmethod
    def from_csv(cls, path) -> "MonitorTable":
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        return cls(
            site_ids=tuple(r["site_id"] for r in rows),
            x=np.array([float(r["x"]) for r in rows]),
            y=np.array([float(r["y"]) for r in rows]),
            province=tuple(r["province"] for r in rows),
            city=tuple(r["city"] for r in rows),
            annual_mean=np.array([float(r["annual_mean"]) for r in rows]),
            n_valid_days=np.array([int(r["n_valid_days"]) for r in rows]),
            n_calendar_days=np.array([int(r["n_calendar_days"]) for r in rows]),
        )


@dataclass(frozen=True)
class AnnualizeResult:
    table: MonitorTable
    excluded: tuple[tuple[str, int, float], ...]  # (site_id, n_valid, completeness)


def annualize(records, site_meta: dict, year: int,
              min_completeness: float = DEFAULT_MIN_COMPLETENESS,
              calendar_days: int | None = None) -> AnnualizeResult:
    """Collapse daily records to per-site annual means.

    `records` yields (site_id, date, value) with value None for missing
    days. `site_meta` maps site_id -> (x, y, province, city). Sites with
    completeness below `min_completeness` are excluded and reported.
    `calendar_days` overrides the completeness denominator (defaults to
    the calendar length of `year`).
    """
    n_days = calendar_days if calendar_days is not None else (366 if calendar.isleap(year) else 365)
    by_site: dict[str, dict[dt.date, float]] = {}
    for site_id, date, value in records:
        if isinstance(date, str):
            date = dt.date.fromisoformat(date)
        if date.year != year:
            raise InvalidArgumentError(f"record ({site_id}, {date}) is outside year {year}")
        days = by_site.setdefault(site_id, {})
        if date in days:
            raise InvalidArgumentError(f"duplicate record for site {site_id} on {date}")
        if value is None:
            days[date] = np.nan
            continue
        value = float(value)
        if value < 0:
            raise InvalidArgumentError(
                f"negative value {value} for site {site_id} on {date}"
            )
        days[date] = value

    # Sum in canonical (date) order so record order never changes the mean.
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for site_id, days in by_site.items():
        vals = np.array([days[d] for d in sorted(days)], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        counts[site_id] = len(vals)
        sums[site_id] = float(vals.sum())

    included: list[str] = []
    excluded: list[tuple[str, int, float]] = []
    for site_id in sorted(counts):
        completeness = counts[site_id] / n_days
        if completeness >= min_completeness:
            included.append(site_id)
        else:
            excluded.append((site_id, counts[site_id], completeness))

    missing_meta = [s for s in included if s not in site_meta]
    if missing_meta:
        raise InvalidArgumentError(f"sites missing from site metadata: {missing_meta[:5]}")

    table = MonitorTable(
        site_ids=tuple(included),
        x=np.array([site_meta[s][0] for s in included], dtype=np.float64),
        y=np.array([site_meta[s][1] for s in included], dtype=np.float64),
        province=tuple(site_meta[s][2] for s in included),
        city=tuple(site_meta[s][3] for s in included),
        annual_mean=np.array([sums[s] / counts[s] for s in included]),
        n_valid_days=np.array([counts[s] for s in included], dtype=np.int64),
        n_calendar_days=np.full(len(included), n_days, dtype=np.int64),
    )
    return AnnualizeResult(table=table, excluded=tuple(excluded))


def read_daily_csv(path):
    """Yield (site_id, iso-date, value-or-None) from a daily CSV."""
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            raw = row["value"].strip()
            value = float(raw) if raw != "" else None
            yield row["site_id"], row["date"], value


def read_sites_csv(path) -> dict:
    """Read site metadata CSV into {site_id: (x, y, province, city)}."""
    meta = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            meta[row["site_id"]] = (
                float(row["x"]), float(row["y"]), row["province"], row["city"],
            )
    return meta
