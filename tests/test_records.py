"""The one ownership rule of the arrays a record holds (`_util.owned_array`):
the record owns each array it is given. An array that owns its memory is
held as given and made read-only, so a later write by its maker raises; a
view is copied, so whatever owns its memory stays writable and cannot
change the record; a JSON list becomes an array."""

import pickle

import numpy as np
import pytest

from lurk import geodata
from lurk.covariates import CovariateMatrix
from lurk.errors import InvalidArgumentError
from lurk.kriging import KrigingModel, VariogramModel
from lurk.lur import LinearModel, PlsModel
from lurk.monitors import MonitorTable


def monitors(annual_mean=(1.0, 2.0, 4.0), n_valid_days=(365,) * 3, n_calendar_days=(365,) * 3):
    return MonitorTable(("a", "b", "c"), [0.0, 1.0, 2.0], [0.0, 0.0, 1.0], ("p",) * 3,
                        ("c",) * 3, annual_mean, n_valid_days, n_calendar_days)


# record -> (the field checked, a valid value of it, the record built around a value)
RECORDS = {
    "MonitorTable": ("annual_mean", np.array([1.0, 2.0, 4.0]), monitors),
    "CovariateMatrix": ("values", np.arange(6.0).reshape(3, 2),
                        lambda v: CovariateMatrix(("a", "b", "c"), ("u", "v"), v)),
    "RasterGrid": ("values", np.arange(6.0).reshape(2, 3),
                   lambda v: geodata.RasterGrid(0.0, 0.0, 1.0, 3, 2, v)),
    "CategoricalGrid": ("values", np.array([[1, 2, 1], [2, 2, 1]], np.int32),
                        lambda v: geodata.CategoricalGrid(0.0, 0.0, 1.0, 3, 2, v, (1, 2))),
    "FeatureLayer": ("xy", np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]),
                     lambda v: geodata.FeatureLayer(geodata.POINTS, v, [0, 1, 2, 3],
                                                    ["a", "b", "c"])),
    "LinearModel": ("residuals", np.array([0.5, -1.0, 0.5]),
                    lambda v: LinearModel(("u",), 1.0, [2.0], [1.0], 0.5, 0.25, v, [0.1], 3)),
    "PlsModel": ("rotations", np.array([[0.6], [0.8]]),
                 lambda v: PlsModel(("u", "v"), [0.0, 1.0], [1.0, 2.0], 3.0, [1.5], v, 1)),
    "KrigingModel": ("y", np.array([1.0, 2.0, 4.0]),
                     lambda v: KrigingModel(VariogramModel(0.1, 1.0, 10.0),
                                            [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]],
                                            [[0.0], [1.0], [3.0]], v)),
}


def held(name, value):
    field, _, build = RECORDS[name]
    return getattr(build(value), field)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_owns_the_array_it_is_given(name):
    given = RECORDS[name][1].copy()
    arr = held(name, given)
    assert not arr.flags.writeable and np.shares_memory(arr, given)
    with pytest.raises(ValueError, match="read-only"):
        given[0] = given[1]


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_copies_a_view(name):
    value = RECORDS[name][1]
    base = np.stack([value, value])
    arr = held(name, base[1])
    assert not arr.flags.writeable and not np.shares_memory(arr, base)
    base[1] = base[1][::-1]  # the owner writes; the record keeps its values
    assert np.array_equal(arr, value)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_holds_a_json_list_as_an_array(name):
    value = RECORDS[name][1]
    arr = held(name, value.tolist())
    assert isinstance(arr, np.ndarray) and arr.dtype == value.dtype
    assert np.array_equal(arr, value) and not arr.flags.writeable


@pytest.mark.parametrize("name", ["RasterGrid", "CategoricalGrid", "FeatureLayer"])
def test_grids_and_layers_stay_read_only_through_a_pickle_round_trip(name):
    field, value, build = RECORDS[name]
    back = pickle.loads(pickle.dumps(build(value.copy()), pickle.HIGHEST_PROTOCOL))
    arrays = [v for v in vars(back).values() if isinstance(v, np.ndarray)]
    assert np.array_equal(getattr(back, field), value)
    assert arrays and not any(a.flags.writeable for a in arrays)


def polylines():
    return geodata.FeatureLayer(geodata.POLYLINES, [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]],
                                [0, 3], ["a"])


# record -> an array it derives from what it is given, and the record
DERIVED = [
    ("zero_variance", lambda: CovariateMatrix(("a", "b", "c"), ("u", "v"),
                                              [[1.0, 0.0], [1.0, 2.0], [1.0, 3.0]])),
    ("seg_a", polylines),
    ("seg_b", polylines),
]


@pytest.mark.parametrize("field,build", DERIVED, ids=[field for field, _ in DERIVED])
def test_a_derived_array_is_read_only_where_it_is_built(field, build):
    """A record's derived arrays are read-only in the process that builds
    it, as after a pickle round trip: flipping a `zero_variance` flag would
    change what stepwise and PLS read."""
    arr = getattr(build(), field)
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[-1]


@pytest.mark.parametrize("field,value", [
    ("annual_mean", (1.0, np.nan, 4.0)),
    ("annual_mean", (1.0, np.inf, 4.0)),
    ("n_valid_days", (365, 365)),
    ("n_valid_days", np.array([np.nan, 365.0, 365.0])),  # not cast to a count
    ("n_calendar_days", (365,) * 4),
])
def test_a_monitor_table_names_a_field_that_is_not_one_finite_value_per_site(field, value):
    with pytest.raises(InvalidArgumentError, match=f"^{field} must"):
        monitors(**{field: value})
