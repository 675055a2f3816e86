import json
import math

import numpy as np
import pytest

from lurk.errors import InvalidArgumentError
from lurk.lur import StepwiseConfig
from lurk.pipeline import PipelineConfig
from lurk.recipes import FittedModel, ModelRecipe, fit_recipe
from lurk.synth import SyntheticScenario, generate_synthetic


def test_recipe_round_trip_keeps_stepwise_thresholds():
    recipe = ModelRecipe(
        selection="stepwise", kriging=True, exclude=("satellite",),
        stepwise=StepwiseConfig(vif_max=3.0, p_max=0.01, min_adj_r2_gain=0.02),
        max_components=4, variogram_bins=12, variogram_max_lag=250_000.0,
    )
    assert ModelRecipe.from_dict(recipe.to_dict()) == recipe
    assert ModelRecipe.from_dict(json.loads(json.dumps(recipe.to_dict()))) == recipe


def test_recipe_missing_keys_take_defaults():
    assert ModelRecipe.from_dict({}) == ModelRecipe()
    assert ModelRecipe.from_dict({"stepwise": {"p_max": 0.01}}).stepwise == \
        StepwiseConfig(p_max=0.01)


@pytest.mark.parametrize("recipe,key", [
    ({"selection": "stepwise", "krigging": True}, "krigging"),
    ({"stepwise": {"criterion": "aic"}}, "criterion"),
    ({"stepwise": {"p_max": 0.01, "direction": "backward"}}, "direction"),
])
def test_unknown_recipe_keys_rejected(tmp_path, recipe, key):
    assert_recipe_rejected(tmp_path, recipe, key)


@pytest.mark.parametrize("recipe,key", [
    ({"kriging": "false"}, "kriging"),
    ({"kriging": 1}, "kriging"),
    ({"exclude": "coord_x"}, "exclude"),
    ({"exclude": ["coord_x", 3]}, "exclude"),
    ({"max_components": 7.9}, "max_components"),
    ({"max_components": True}, "max_components"),
    ({"variogram_bins": 0}, "variogram_bins"),
    ({"variogram_max_lag": "far"}, "variogram_max_lag"),
    ({"variogram_max_lag": -5.0}, "variogram_max_lag"),
    ({"variogram_max_lag": math.inf}, "variogram_max_lag"),
    ({"stepwise": {"p_max": "0.01"}}, "p_max"),
    ({"stepwise": {"vif_max": math.nan}}, "vif_max"),
    ({"stepwise": {"min_adj_r2_gain": False}}, "min_adj_r2_gain"),
])
def test_mistyped_recipe_values_rejected(tmp_path, recipe, key):
    # coercing them would turn kriging on for "false" and exclude the
    # columns c, o, r, d, _ and x for "coord_x"
    assert_recipe_rejected(tmp_path, recipe, key)


def assert_recipe_rejected(tmp_path, recipe, key):
    """Both ways a recipe comes in, the dict and the config file, raise
    InvalidArgumentError naming `key`."""
    with pytest.raises(InvalidArgumentError, match=key):
        ModelRecipe.from_dict(recipe)
    config = {"pollutant": "no2", "year": 2015,
              "monitors": {"daily": "daily.csv", "sites": "sites.csv"},
              "covariates": "covariates.json", "recipe": recipe}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(InvalidArgumentError, match=key):
        PipelineConfig.from_json(path)


@pytest.fixture(scope="module")
def mini_data():
    return generate_synthetic(SyntheticScenario(seed=4, n_sites=60, n_clusters=6))


@pytest.mark.parametrize("selection,kriging", [("stepwise", True), ("pls", True),
                                               ("mean", False)])
def test_fitted_model_json_round_trip_predicts_identically(mini_data, selection, kriging):
    data = mini_data
    fitted = fit_recipe(ModelRecipe(selection=selection, kriging=kriging),
                        data.sites, data.matrix)
    back = FittedModel.from_dict(json.loads(json.dumps(fitted.to_dict())))
    assert back.to_dict() == fitted.to_dict()
    assert (back.pls is None) == (selection != "pls")
    coords = data.sites.coords + 750.0  # off the training sites
    mean, var = fitted.predict(data.matrix, coords, with_variance=True)
    back_mean, back_var = back.predict(data.matrix, coords, with_variance=True)
    assert np.array_equal(back_mean, mean)
    if kriging:
        assert np.array_equal(back_var, var)
    else:
        assert var is None and back_var is None


def test_non_finite_variogram_in_model_json_rejected(mini_data, tmp_path):
    # json.loads reads NaN; unchecked, it fails later, as a singular
    # kriging system naming neither the variogram nor the value
    fitted = fit_recipe(ModelRecipe(selection="stepwise", kriging=True),
                        mini_data.sites, mini_data.matrix)
    d = fitted.to_dict()
    d["kriging"]["variogram"]["range_m"] = math.nan
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InvalidArgumentError,
                       match="variogram range_m must be a finite number, got nan"):
        FittedModel.from_dict(json.loads(path.read_text()))
