import datetime as dt
import re

import numpy as np
import pytest

import oracles

from lurk.errors import InvalidArgumentError
from lurk.monitors import (
    MonitorTable,
    annualize,
    read_daily_csv,
    read_sites_csv,
)

META = {
    "a": (0.0, 0.0, "p1", "c1"),
    "b": (10.0, 10.0, "p1", "c2"),
    "c": (20.0, 20.0, "p2", "c3"),
}


def records_for(site, n_days, value=10.0, year=2015):
    start = dt.date(year, 1, 1)
    return [(site, start + dt.timedelta(days=d), value) for d in range(n_days)]


def test_site_with_300_of_365_days_included():
    result = annualize(records_for("a", 300), META, 2015)
    assert result.table.site_ids == ("a",)
    assert result.table.n_valid_days[0] == 300
    assert not result.excluded


def test_site_with_250_of_365_days_excluded():
    result = annualize(records_for("a", 250), META, 2015)
    assert result.table.site_ids == ()
    assert result.excluded[0][0] == "a"
    assert result.excluded[0][2] == pytest.approx(250 / 365)


def test_exact_threshold_retained():
    # exactly 25% missing stays in
    n = round(365 * 0.75)  # 274 days -> 274/365 = 0.7507 >= 0.75
    result = annualize(records_for("a", n), META, 2015)
    assert result.table.site_ids == ("a",)


def test_four_day_window_mean():
    recs = [
        ("a", dt.date(2015, 1, 1), 10.0),
        ("a", dt.date(2015, 1, 2), 20.0),
        ("a", dt.date(2015, 1, 3), 30.0),
        ("a", dt.date(2015, 1, 4), None),
    ]
    result = annualize(recs, META, 2015, calendar_days=4)
    assert result.table.annual_mean[0] == pytest.approx(20.0)
    assert result.table.n_valid_days[0] == 3


def test_duplicate_record_rejected():
    recs = records_for("a", 2) + [("a", dt.date(2015, 1, 1), 5.0)]
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        annualize(recs, META, 2015)


def test_negative_value_rejected():
    recs = [("a", dt.date(2015, 3, 1), -1.0)]
    with pytest.raises(InvalidArgumentError, match="negative value -1.0 for site a"):
        annualize(recs, META, 2015)


def test_date_outside_year_rejected():
    recs = [("a", dt.date(2014, 12, 31), 4.0)]
    with pytest.raises(InvalidArgumentError, match="outside year 2015"):
        annualize(recs, META, 2015)


def test_order_invariance():
    rng = np.random.default_rng(4)
    recs = []
    for site in ("a", "b", "c"):
        for d in range(300):
            recs.append((site, dt.date(2015, 1, 1) + dt.timedelta(days=d),
                         float(rng.uniform(0, 80))))
    shuffled = list(recs)
    rng.shuffle(shuffled)
    r1 = annualize(recs, META, 2015)
    r2 = annualize(shuffled, META, 2015)
    assert r1.table.site_ids == r2.table.site_ids
    assert np.array_equal(r1.table.annual_mean, r2.table.annual_mean)


def test_exclusion_is_exactly_the_completeness_rule():
    rng = np.random.default_rng(8)
    recs = []
    kept_days = {}
    for i in range(12):
        site = f"s{i}"
        META_ALL[site] = (float(i), float(i), "p", "c")
        n = int(rng.integers(200, 366))
        kept_days[site] = n
        recs.extend(records_for(site, n))
    result = annualize(recs, META_ALL, 2015)
    included = set(result.table.site_ids)
    for site, n in kept_days.items():
        assert (site in included) == (n / 365 >= 0.75)


META_ALL = {}


def test_leap_year_denominator():
    result = annualize(records_for("a", 280, year=2016), META, 2016)
    # 280/366 = 0.765 >= 0.75
    assert result.table.site_ids == ("a",)
    assert result.table.n_calendar_days[0] == 366


def test_monitor_table_csv_round_trip(tmp_path):
    recs = records_for("a", 365, 12.5) + records_for("b", 365, 30.0)
    table = annualize(recs, META, 2015).table
    path = tmp_path / "monitors.csv"
    table.to_csv(path)
    back = MonitorTable.from_csv(path)
    assert back.site_ids == table.site_ids
    assert np.array_equal(back.annual_mean, table.annual_mean)
    assert back.province == table.province


@pytest.mark.filterwarnings("error")
def test_monitor_table_from_csv_closes_its_file(tmp_path):
    # A file left for the garbage collector to close raises ResourceWarning.
    path = tmp_path / "monitors.csv"
    annualize(records_for("a", 365), META, 2015).table.to_csv(path)
    assert MonitorTable.from_csv(path).site_ids == ("a",)


def test_daily_and_sites_csv_readers(tmp_path):
    daily = tmp_path / "daily.csv"
    daily.write_text("site_id,date,value\na,2015-01-01,4.5\na,2015-01-02,\n")
    recs = list(read_daily_csv(daily))
    assert recs[0] == ("a", "2015-01-01", 4.5)
    assert recs[1][2] is None
    sites = tmp_path / "sites.csv"
    sites.write_text("site_id,x,y,province,city\na,1.0,2.0,p,c\n")
    assert read_sites_csv(sites) == {"a": (1.0, 2.0, "p", "c")}


@pytest.mark.parametrize("text, named", [
    # a repeated site would silently replace the earlier row
    ("site_id,x,y,province,city\na,0,0,p,c\nb,1,1,p,c\na,500,500,p,c\n",
     "line 4: site 'a' repeats"),
    ("site_id,x,province,city\na,0,p,c\n", "missing columns ['y']"),
    ("site_id,x,y,province,city\na,0,0,p,c\nb,east,0,p,c\n", "line 3: site 'b'"),
    ("site_id,x,y,province,city\na,0,0,p\n", "line 2: site 'a'"),
    # annualize once failed with a bare "site coordinates must be finite"
    ("site_id,x,y,province,city\na,0,0,p,c\nb,1,nan,p,c\n", "line 3: site 'b'"),
    ("site_id,x,y,province,city\na,-inf,0,p,c\n", "line 2: site 'a'"),
])
def test_malformed_sites_csv_rejected(tmp_path, text, named):
    path = tmp_path / "sites.csv"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError, match=re.escape(named)) as err:
        read_sites_csv(path)
    assert str(path) in str(err.value)


def test_subset_and_groups():
    recs = records_for("a", 365, 1.0) + records_for("b", 365, 2.0) + \
        records_for("c", 365, 3.0)
    table = annualize(recs, META, 2015).table
    sub = table.subset([0, 2])
    assert sub.site_ids == ("a", "c")
    assert sub.groups("province") == ("p1", "p2")
    with pytest.raises(InvalidArgumentError):
        table.groups("country")


@pytest.mark.parametrize("seed", range(8))
def test_annual_means_match_dict_oracle(seed):
    rng = np.random.default_rng(seed)
    year = (2015, 2016)[seed % 2]
    n_year = 366 if year == 2016 else 365
    calendar_days = int(rng.integers(300, 400)) if seed % 4 == 3 else None
    meta, recs = {}, []
    for k in range(int(rng.integers(3, 15))):
        site = f"z{rng.integers(0, 10**6):06d}"
        meta[site] = (float(k), float(k), "p", "c")
        days = rng.choice(n_year, size=int(rng.integers(200, n_year + 1)), replace=False)
        for d in days:
            date = dt.date(year, 1, 1) + dt.timedelta(days=int(d))
            value = None if rng.uniform() < 0.1 else float(rng.lognormal(3.0, 1.5))
            recs.append((site, date.isoformat() if rng.uniform() < 0.5 else date, value))
    rng.shuffle(recs)
    result = annualize(recs, meta, year, calendar_days=calendar_days)
    kept, excluded = oracles.dict_annualize(recs, year, calendar_days=calendar_days)
    assert result.table.site_ids == tuple(kept)
    assert np.array_equal(result.table.annual_mean, [m for m, _ in kept.values()])
    assert result.table.n_valid_days.tolist() == [n for _, n in kept.values()]
    assert list(result.excluded) == excluded


def test_checks_run_in_fixed_order_naming_first_record():
    recs = [
        ("a", dt.date(2015, 1, 1), -2.0),
        ("b", dt.date(2015, 1, 2), -3.0),
        ("a", dt.date(2015, 1, 3), 1.0),
        ("a", dt.date(2015, 1, 3), 1.0),
        ("b", dt.date(2015, 1, 2), 1.0),
        ("c", dt.date(2014, 6, 1), 1.0),
        ("c", dt.date(2016, 6, 1), 1.0),
    ]
    with pytest.raises(InvalidArgumentError, match=r"record \(c, 2014-06-01\) is outside"):
        annualize(recs, META, 2015)
    with pytest.raises(InvalidArgumentError, match="duplicate record for site a on 2015-01-03"):
        annualize(recs[:5], META, 2015)
    with pytest.raises(InvalidArgumentError, match="negative value -2.0 for site a on 2015-01-01"):
        annualize(recs[:3], META, 2015)


@pytest.mark.parametrize("line, message", [
    ("a,2015-01-02,abc", r"daily\.csv: line 3: malformed record \['a', '2015-01-02', 'abc'\]"),
    ("a,2015-13-01,4.0", r"daily\.csv: line 3: malformed record \['a', '2015-13-01', '4\.0'\]"),
    ("a,2015-01-02", r"daily\.csv: line 3: malformed record \['a', '2015-01-02'\]"),
])
def test_read_daily_csv_names_malformed_record(tmp_path, line, message):
    daily = tmp_path / "daily.csv"
    daily.write_text(f"site_id,date,value\na,2015-01-01,4.5\n{line}\na,2015-01-03,\n")
    with pytest.raises(InvalidArgumentError, match=message):
        list(read_daily_csv(daily))


def test_annualize_rejects_invalid_date():
    with pytest.raises(InvalidArgumentError, match="invalid date: Day out of range .*2015-02-30"):
        annualize([("a", "2015-01-01", 1.0), ("a", "2015-02-30", 1.0)], META, 2015)
    with pytest.raises(InvalidArgumentError, match=r"record \(a, ''\) has no date"):
        annualize([("a", "2015-01-01", 1.0), ("a", "", 1.0)], META, 2015)
