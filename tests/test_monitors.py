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


def test_missing_days_count_against_completeness_not_the_mean():
    # every day of 2015 has a record; a None day is missing. Site a keeps
    # 274 valid days (kept), site b 273 (excluded, 273/365 < 0.75)
    recs = []
    for site, n_valid in (("a", 274), ("b", 273)):
        for d, (_, day, _) in enumerate(records_for(site, 365)):
            recs.append((site, day, (10.0, 30.0)[d % 2] if d < n_valid else None))
    result = annualize(recs, META, 2015)
    assert result.table.site_ids == ("a",)
    assert result.table.annual_mean[0] == pytest.approx(20.0)
    assert result.table.n_valid_days[0] == 274
    assert result.table.n_calendar_days[0] == 365
    assert result.excluded == (("b", 273, 273 / 365),)


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
    # an unquoted comma once split a province and dropped the city unseen
    ("site_id,x,y,province,city\ns1,1.0,2.0,Hebei, North,cityA\n",
     "line 2: site 's1': the row does not have 5 fields"),
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
    result = annualize(recs, meta, year)
    kept, excluded = oracles.dict_annualize(recs, year)
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
    # ISO 8601 forms that are not YYYY-MM-DD (Python 3.11's fromisoformat takes them)
    *((f"a,{d},4.0", rf"daily\.csv: line 3: malformed record \['a', '{d}', '4\.0'\]")
      for d in ("20150102", "2015-W01-5")),
    # a value that is not a finite number is malformed too, not missing
    *((f"a,2015-01-02,{v}", rf"daily\.csv: line 3: malformed record \['a', '2015-01-02', '{v}'\]")
      for v in ("inf", "-inf", "1e400", "nan", " NaN ")),
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


def outcome(call):
    """The value of `call()`, or the type and message of what it raised."""
    try:
        return "ok", call()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


DAILY_HEADER = "site_id,date,value\n"
# A long file, so that a malformed record at its end is found by the re-read.
LONG_DAILY = DAILY_HEADER + "".join(
    f"s{i % 97},2015-{1 + i % 12:02d}-{1 + i % 28:02d},{i * 0.37!r}\n" for i in range(40_000))


@pytest.mark.parametrize("text", [
    DAILY_HEADER + "a,2015-01-01,4.5\na,2015-01-02,\nb,2015-01-01,0.1\n",
    DAILY_HEADER + "a,2015-01-01,4.5\r\nb,2015-01-02,3\r\n",  # CRLF
    DAILY_HEADER + "a,2015-01-01,4.5\rb,2015-01-02,3\r",  # CR
    DAILY_HEADER + '"a,1",2015-01-01,4.5\n"b ""x""",2015-01-02,1\nc,2015-01-03,2\n',
    DAILY_HEADER + "\na,2015-01-01,4.5\n\n\nb,2015-01-02,2\n\n",  # blank lines
    DAILY_HEADER + "a,2015-01-01,  \na,2015-01-02,\t\na,2015-01-03, 7 \n",
    DAILY_HEADER + "a,2015-01-01,4.5\na,2015-01-02\na,2015-01-03,1\n",  # short row
    DAILY_HEADER + "a,2015-01-01,4.5,extra\na,2015-01-02,3\n",  # long row
    "site_id,date,value,flag\na,2015-01-01,4.5,x\nb,2015-01-02,3,\n",
    "value,flag,date,site_id\n4.5,,2015-01-01,a\n,,2015-01-02,b\n",
    "value,date,site_id\n4.5,2015-01-01\n",  # short row missing only the site id
    DAILY_HEADER + "a,2015-01-01,4.5\na,2015-01-02,abc\n",  # non-numeric value
    DAILY_HEADER + "a,2015-01-01,1e400\na,2015-01-02,-inf\nb,2015-01-03,nan\n",
    DAILY_HEADER + "a,2015-13-01,4\n",
    DAILY_HEADER + "a,2015-01-01,4\na,20150102,4\n",  # basic format
    DAILY_HEADER + "a,2015-01-01,4\na,2015-W01-5,4\n",  # week date
    LONG_DAILY + "a,20150102,4\n",
    DAILY_HEADER + "a,2015-01-01\nb,2015-13-01,4\n",  # the first malformed record wins
    DAILY_HEADER + "a,2015-13-01,4\nb,2015-01-01\n",
    DAILY_HEADER + '"a\nb",2015-01-01,x\n',  # the line count includes the quoted newline
    DAILY_HEADER + " \n",  # a whitespace-only line is a short row
    DAILY_HEADER,
    "site_id,date,value",
    LONG_DAILY,
    LONG_DAILY + "a,2015-01-01,\n\na,2015-01-02,  \n",
    LONG_DAILY + "a,2015-01-01\n",
    LONG_DAILY + "a,2015-01-01,4,5\n",
    LONG_DAILY + "a,2015-02-30,4\n",
    LONG_DAILY.replace("\n", "\r\n"),
])
def test_read_daily_csv_matches_per_line_oracle(tmp_path, text):
    daily = tmp_path / "daily.csv"
    daily.write_bytes(text.encode())
    got = outcome(lambda: list(read_daily_csv(daily)))
    assert repr(got) == repr(outcome(lambda: list(oracles.per_line_read_daily_csv(daily))))


@pytest.mark.parametrize("header, missing", [
    ("site_id,date", ["value"]),
    ("date,value", ["site_id"]),
    ("site,day,value", ["site_id", "date"]),
    ("", ["site_id", "date", "value"]),
])
def test_read_daily_csv_names_a_missing_column(tmp_path, header, missing):
    daily = tmp_path / "daily.csv"
    daily.write_text(f"{header}\ns1,2015-01-01\n")
    with pytest.raises(InvalidArgumentError,
                       match=re.escape(f"daily.csv: missing columns {missing}")):
        list(read_daily_csv(daily))
