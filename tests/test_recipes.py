import json

import pytest

from lurk.errors import InvalidArgumentError
from lurk.lur import StepwiseConfig
from lurk.pipeline import PipelineConfig
from lurk.recipes import ModelRecipe


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
    with pytest.raises(InvalidArgumentError, match=key):
        ModelRecipe.from_dict(recipe)
    config = {"pollutant": "no2", "year": 2015,
              "monitors": {"daily": "daily.csv", "sites": "sites.csv"},
              "covariates": "covariates.json", "recipe": recipe}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(InvalidArgumentError, match=key):
        PipelineConfig.from_json(path)
