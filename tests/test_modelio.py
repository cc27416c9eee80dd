from fractions import Fraction

import pytest

from bellsim import modelio
from bellsim.core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SamplerSpace,
)
from bellsim.errors import BellsimError, ParseError
from bellsim.scenarios import build_scenario, scenario_names


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_round_trips_bit_exactly(name, tmp_path):
    model = build_scenario(name).model
    path = tmp_path / f"{name}.model"
    modelio.save(model, path)
    loaded = modelio.load(path)
    assert loaded == model
    assert modelio.dumps(loaded) == modelio.dumps(model)


def test_fractional_probabilities_survive():
    text = modelio.dumps(build_scenario("lf").model)
    assert "1/6" in text
    assert modelio.loads(text).source.probs[0] == Fraction(1, 6)


def test_angles_survive_with_full_precision():
    model = build_scenario("quantum").model
    loaded = modelio.loads(modelio.dumps(model))
    assert loaded.angles_a == model.angles_a
    assert loaded.angles_b == model.angles_b


def test_string_labels_round_trip():
    settings = ("left", "right")
    source = DiscreteDistribution.uniform([("u", "u"), ("v", "v")])
    inst = {s: DiscreteDistribution.point("i0") for s in settings}
    resp = {s: ResponseTable({(l, "i0"): 1 for l in ("u", "v")}) for s in settings}
    model = ExperimentModel.product_model(
        ModelVariant.LHVM, settings, settings, source, inst, dict(inst),
        resp, dict(resp), name="string-labels")
    assert modelio.loads(modelio.dumps(model)) == model


def test_unterminated_block_names_problem():
    with pytest.raises(ParseError, match="unterminated"):
        modelio.loads("variant lhvm\nsettings A 1 2\nsettings B 1 2\nbegin source\n1 1 1")


def test_bad_variant_has_line_number():
    with pytest.raises(ParseError) as excinfo:
        modelio.loads("version 1\nvariant nonsense\n")
    assert excinfo.value.line_number == 2


def test_bad_probability_reported():
    text = "variant m1\nsettings A 1 2\nsettings B 1 2\nbegin source\n1 1 nope\nend\n"
    with pytest.raises(ParseError, match="probability"):
        modelio.loads(text)


def test_missing_settings_rejected():
    with pytest.raises(ParseError, match="settings"):
        modelio.loads("variant lhvm\n")


def test_sampler_models_not_serialisable():
    sampler = SamplerSpace(lambda g, n: [(0, 0)] * n)
    inst = {s: DiscreteDistribution.point(0) for s in (1, 2)}
    resp = {s: ResponseTable({(0, 0): 1}) for s in (1, 2)}
    model = ExperimentModel.product_model(
        ModelVariant.M1, (1, 2), (1, 2), sampler, inst, dict(inst), resp, dict(resp))
    with pytest.raises(BellsimError, match="sampler"):
        modelio.dumps(model)


def test_int_lookalike_string_label_refused():
    settings = ("1", 2)
    source = DiscreteDistribution.uniform([(0, 0)])
    inst = {s: DiscreteDistribution.point(0) for s in settings}
    resp = {s: ResponseTable({(0, 0): 1}) for s in settings}
    model = ExperimentModel.product_model(
        ModelVariant.LHVM, settings, settings, source, inst, dict(inst), resp, dict(resp))
    with pytest.raises(BellsimError, match="round-trip"):
        modelio.dumps(model)


def test_non_ascii_byte_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "lf.model"
    text = modelio.dumps(build_scenario("lf").model).encode("ascii")
    path.write_bytes(text.replace(b"\n", b"\n\xc3\xa9", 1))   # at the start of line 2
    with pytest.raises(ParseError) as excinfo:
        modelio.load(path)
    assert excinfo.value.line_number == 2 and excinfo.value.path == str(path)
