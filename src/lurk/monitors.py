"""Monitor ingestion: daily series to annual means with a completeness rule.

A site keeps its annual mean only when at least 75% of the calendar days
carry a valid measurement; sites at exactly the threshold are retained.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError
from ._util import read_table, write_table

DEFAULT_MIN_COMPLETENESS = 0.75
DAILY_COLUMNS = ("site_id", "date", "value")


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
        # Contiguous: BLAS sums a strided column (a view into a table read
        # from CSV) in another order, which moves the last bits of a fit.
        for name in ("x", "y", "annual_mean"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise InvalidArgumentError(f"{name} must have one entry per site")
            if name in ("x", "y") and not np.all(np.isfinite(arr)):
                raise InvalidArgumentError("site coordinates must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("n_valid_days", "n_calendar_days"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
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
        columns = (getattr(self, f.name) for f in fields(self))
        return MonitorTable(*(tuple(c[i] for i in idx) if isinstance(c, tuple) else c[idx]
                              for c in columns))

    def to_csv(self, path) -> None:
        names = [f.name for f in fields(self)]  # the header calls site_ids site_id
        write_table(path, ["site_id", *names[1:]], [getattr(self, n) for n in names])

    @classmethod
    def from_csv(cls, path) -> "MonitorTable":
        text, names, values = read_table(path, ("site_id", "province", "city"))
        return cls(site_ids=text.pop("site_id"), **text, **dict(zip(names, values.T)))


@dataclass(frozen=True)
class AnnualizeResult:
    table: MonitorTable
    excluded: tuple[tuple[str, int, float], ...]  # (site_id, n_valid, completeness)


def annualize(records, site_meta: dict, year: int) -> AnnualizeResult:
    """Collapse daily records to per-site annual means.

    `records` yields (site_id, date, value) with value None for missing
    days and date a "YYYY-MM-DD" string or a datetime.date. `site_meta`
    maps site_id -> (x, y, province, city). Sites with completeness below
    `DEFAULT_MIN_COMPLETENESS` of the days of `year` are excluded and
    reported. Checks run in a fixed order (invalid date, outside `year`,
    duplicate, negative), each naming the first offending record.
    """
    n_days = 366 if calendar.isleap(year) else 365
    records = list(records)
    site_ids, site = np.unique([r[0] for r in records], return_inverse=True)
    dates = [r[1] for r in records]
    for date in dict.fromkeys(dates):  # `read_daily_csv`'s rule, each date once, in order
        try:
            _check_date(date.isoformat() if isinstance(date, dt.date) else date)
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"record ({records[dates.index(date)][0]}, {date!r}) "
                                       "has no valid YYYY-MM-DD date") from None
    day = np.array(dates, dtype="datetime64[D]")
    value = np.array([r[2] for r in records], dtype=np.float64)  # None -> NaN
    # By site, then date; the sort is stable, so a repeat sorts after the
    # record it repeats.
    order = np.lexsort((day, site))
    repeat = np.zeros(len(records), dtype=bool)
    repeat[order[1:]] = (np.diff(site[order]) == 0) & (np.diff(day[order]) == np.timedelta64(0))
    for bad, message in (
            (day.astype("datetime64[Y]").astype(np.int64) + 1970 != year,
             "record ({site}, {day}) is outside year {year}"),
            (repeat, "duplicate record for site {site} on {day}"),
            (value < 0, "negative value {value} for site {site} on {day}")):
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidArgumentError(message.format(
                site=records[i][0], day=day[i], value=value[i], year=year))

    # One np.sum per site over its non-missing values in date order, so
    # record order never changes the mean.
    order = order[~np.isnan(value[order])]
    counts = np.bincount(site[order], minlength=len(site_ids))
    ends = np.cumsum(counts).tolist()
    sums = np.array([value[order[lo:hi]].sum() for lo, hi in zip([0] + ends[:-1], ends)])
    completeness = counts / n_days
    keep = completeness >= DEFAULT_MIN_COMPLETENESS
    included = site_ids[keep].tolist()
    excluded = tuple(zip(site_ids[~keep].tolist(), counts[~keep].tolist(),
                         completeness[~keep].tolist()))

    missing_meta = [s for s in included if s not in site_meta]
    if missing_meta:
        raise InvalidArgumentError(f"sites missing from site metadata: {missing_meta[:5]}")

    table = MonitorTable(
        site_ids=tuple(included),
        x=np.array([site_meta[s][0] for s in included], dtype=np.float64),
        y=np.array([site_meta[s][1] for s in included], dtype=np.float64),
        province=tuple(site_meta[s][2] for s in included),
        city=tuple(site_meta[s][3] for s in included),
        annual_mean=sums[keep] / counts[keep],
        n_valid_days=counts[keep],
        n_calendar_days=np.full(len(included), n_days, dtype=np.int64),
    )
    return AnnualizeResult(table=table, excluded=excluded)


def read_daily_csv(path):
    """Yield (site_id, iso-date, value-or-None) from a daily CSV with
    site_id, date and value columns, in file order; a blank or
    whitespace-only value is None. The whole file is checked first: a
    missing column, or a malformed record (a short row, a date that is not
    YYYY-MM-DD, a value that is not a finite number, such as nan, inf or 1e400),
    raises InvalidArgumentError naming the file and, for a record, its line.

    The file is parsed by columns: the csv module's rows are split into
    site, date and value lists, each distinct date is checked once and
    the values are converted by one `map(float, ...)`."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        missing = [c for c in DAILY_COLUMNS if c not in header]
        if missing:
            raise InvalidArgumentError(f"{path}: missing columns {missing}")
        i, j, k = map(header.index, DAILY_COLUMNS)
        sites, days, values = [], [], []
        try:
            # Rows are not kept: a list of row lists makes the cyclic
            # garbage collector rescan them as it grows. Each distinct site
            # id and date is kept as one string object.
            shared: dict = {}
            for row in filter(None, reader):
                site, day, value = row[i], row[j], row[k]
                sites.append(shared.setdefault(site, site))
                days.append(shared.setdefault(day, day))
                values.append(value)
            for day in set(days):
                _check_date(day)
            numbers = _numbers(values)
        except (IndexError, ValueError):
            raise _first_malformed(path) from None
    yield from zip(sites, days, numbers)


def _check_date(text: str) -> None:
    """ValueError unless `text` is a YYYY-MM-DD date (`fromisoformat` also
    takes 20150102 and 2015-W01-5 on Python 3.11 and later)."""
    if dt.date.fromisoformat(text).isoformat() != text:
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")


def _numbers(values) -> list:
    """float() of each value, None for a blank one; ValueError for a value
    that is not a finite number (nan, an infinity, or one that overflows)."""
    try:
        numbers = list(map(float, values))
    except ValueError:
        numbers = [float(v) if v.strip() else None for v in values]
    if not all(map(math.isfinite, filter(None, numbers))):  # filter drops None (and 0.0)
        raise ValueError("a value is not finite")
    return numbers


def _first_malformed(path) -> InvalidArgumentError:
    """The error naming the first malformed record of daily CSV `path`
    and its line, found by reading the file again row by row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        i, j, k = map(next(reader).index, DAILY_COLUMNS)
        for row in filter(None, reader):
            try:
                site, day, value = row[i], row[j], row[k]
                _check_date(day)
                _numbers([value])
            except (IndexError, ValueError):
                return InvalidArgumentError(
                    f"{path}: line {reader.line_num}: malformed record {row!r}")
    raise AssertionError(f"{path}: no malformed record")


def read_sites_csv(path) -> dict:
    """Read site metadata CSV into {site_id: (x, y, province, city)}. A missing
    column, a repeated site_id, a short or long row, or an x or y that is not a
    finite number raises InvalidArgumentError naming the file, line and site."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in ("site_id", "x", "y", "province", "city")
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidArgumentError(f"{path}: missing columns {missing}")
        meta, width = {}, len(reader.fieldnames)
        for row in reader:
            sid = row["site_id"]
            where = f"{path}: line {reader.line_num}: site {sid!r}"
            if sid in meta:
                raise InvalidArgumentError(f"{where} repeats an earlier row")
            if None in row or None in row.values():  # a long row's rest is row[None]
                raise InvalidArgumentError(f"{where}: the row does not have {width} fields")
            try:
                x, y = float(row["x"]), float(row["y"])
            except ValueError:
                x = y = np.nan
            if not np.isfinite([x, y]).all():
                raise InvalidArgumentError(
                    f"{where}: x and y must be finite numbers, got {row['x']!r}, {row['y']!r}")
            meta[sid] = (x, y, row["province"], row["city"])
    return meta
