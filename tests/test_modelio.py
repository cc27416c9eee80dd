from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

from test_tables import table_models


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
    with pytest.raises(BellsimError, match="label '1' would not read back from a model file"):
        modelio.dumps(model)


@pytest.mark.parametrize("name, label", [("q\u00e9", "u"), ("q", "\u00e9")])
def test_non_ascii_name_or_label_is_refused(name, label, tmp_path):
    model = ExperimentModel.quantum_model((label, "v"), ("u", "v"), {label: 0.0, "v": 1.0},
                                          {"u": 0.0, "v": 1.0}, name=name)
    refused = name if label == "u" else label
    message = f"^label {refused!r} would not read back from a model file$"
    with pytest.raises(BellsimError, match=message):
        modelio.dumps(model)
    with pytest.raises(BellsimError, match=message):
        modelio.save(model, tmp_path / "m.model")
    assert not (tmp_path / "m.model").exists()


def test_numpy_int_labels_and_atoms_round_trip():
    one, two = np.int64(1), np.int64(2)
    source = DiscreteDistribution.uniform([(one, two), (two, one)])
    inst = {s: DiscreteDistribution.point(np.int8(0)) for s in (one, two)}
    resp = {s: ResponseTable({(l1, 0): 1 for l1 in (one, two)}) for s in (one, two)}
    model = ExperimentModel.product_model(
        ModelVariant.LHVM, (one, two), (one, two), source, inst, dict(inst), resp, dict(resp))
    loaded = modelio.loads(modelio.dumps(model))
    assert loaded == model
    assert loaded.settings_a == (1, 2) and type(loaded.settings_a[0]) is int


def test_non_ascii_byte_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "lf.model"
    text = modelio.dumps(build_scenario("lf").model).encode("ascii")
    path.write_bytes(text.replace(b"\n", b"\n\xc3\xa9", 1))   # at the start of line 2
    with pytest.raises(ParseError) as excinfo:
        modelio.load(path)
    assert excinfo.value.line_number == 2 and excinfo.value.path == str(path)


def _model_text(name):
    return modelio.dumps(build_scenario(name).model)


def _line_of(text, line):
    return text.splitlines().index(line) + 1


# (scenario, line added at the end, heading in the message, the first copy's line)
REPEATS = {
    "version": ("lf", "version 1", "version", "version 1"),
    "variant": ("lf", "variant m1", "variant", "variant lhvm"),
    "name": ("lf", "name other", "name", "name lf"),
    "settings-a": ("lf", "settings A 1 -1 7", "settings A", "settings A 1 -1"),
    "settings-b": ("lf", "settings B 1 -1", "settings B", "settings B 1 -1"),
    "source": ("lf", "begin source\n1 1 1\nend", "source", "begin source"),
    "instruments": ("lf", "begin instruments B 1\n0 1\nend", "instruments B 1",
                    "begin instruments B 1"),
    "joint-instruments": ("m3-demo", "begin joint-instruments 1 01\n0 0 1\nend",
                          "joint-instruments 1 1", "begin joint-instruments 1 1"),
    "responses": ("lf", "begin responses A 01\n1 0 1\nend", "responses A 1",
                  "begin responses A 1"),
    "angles": ("quantum", "begin angles B\n1 0.5\nend", "angles B", "begin angles B"),
}


@pytest.mark.parametrize("kind", list(REPEATS))
def test_repeated_section_is_a_parse_error_naming_the_repeat(kind):
    scenario, extra, heading, first = REPEATS[kind]
    text = _model_text(scenario)
    line = len(text.splitlines()) + 1
    with pytest.raises(ParseError) as excinfo:
        modelio.loads(text + extra + "\n", path="r.model")
    assert str(excinfo.value) == (f"r.model:{line}: repeated {heading!r}, "
                                  f"first on line {_line_of(text, first)}")


def test_repeated_source_placed_first_is_not_dropped():
    text = _model_text("lf")
    with pytest.raises(ParseError) as excinfo:
        modelio.loads("begin source\n1 1 1\nend\n" + text)
    assert str(excinfo.value) == (f"{_line_of(text, 'begin source') + 3}: "
                                  "repeated 'source', first on line 1")


def _string_labels(model, prefix="s"):
    """The same table model with every setting and atom label the string
    ``prefix`` followed by the old label."""
    def f(v):
        return tuple(map(f, v)) if isinstance(v, tuple) else f"{prefix}{v}"

    def dist(d):
        return DiscreteDistribution([f(a) for a in d.atoms], d.probs)

    def tables(responses):
        return {f(s): ResponseTable({f(k): o for k, o in r.mapping.items()})
                for s, r in responses.items()}

    settings_a, settings_b = map(f, model.settings_a), map(f, model.settings_b)
    if model.variant is ModelVariant.M3:
        return ExperimentModel.correlated_instruments_model(
            settings_a, settings_b, dist(model.source),
            {f(sp): dist(j) for sp, j in model.instruments_joint.items()},
            tables(model.responses_a), tables(model.responses_b), name=model.name)
    return ExperimentModel.product_model(
        model.variant, settings_a, settings_b, dist(model.source),
        {f(s): dist(d) for s, d in model.instruments_a.items()},
        {f(s): dist(d) for s, d in model.instruments_b.items()},
        tables(model.responses_a), tables(model.responses_b), name=model.name)


@pytest.mark.parametrize("variant", [ModelVariant.M1, ModelVariant.M2, ModelVariant.M3],
                         ids=lambda v: v.value)
@given(data=st.data(), prefix=st.sampled_from((None, "s", "s#", "#")))
def test_random_table_models_round_trip(variant, data, prefix):
    model = data.draw(table_models(variant))
    if prefix is not None:
        model = _string_labels(model, prefix)
    assert_refused_or_round_trips(model, refused=prefix is not None and "#" in prefix)


def assert_refused_or_round_trips(model, refused):
    """``dumps`` refuses the model if ``refused``; otherwise ``loads`` gives
    it back equal."""
    if refused:
        with pytest.raises(BellsimError, match="would not read back from a model file"):
            modelio.dumps(model)
    else:
        assert modelio.loads(modelio.dumps(model)) == model


def _unencodable(label):
    """A string label that holds '#' or reads as an int."""
    if not isinstance(label, str):
        return False
    try:
        int(label)
    except ValueError:
        return "#" in label
    return True


def test_label_with_inner_hash_is_refused():
    # "settings A a#b c" would read back as "settings A a".
    settings = ("a#b", "c")
    model = ExperimentModel.quantum_model(settings, ("u", "v"), dict.fromkeys(settings, 0.0),
                                          {"u": 0.0, "v": 1.0})
    with pytest.raises(BellsimError, match="label 'a#b' would not read back from a model file"):
        modelio.dumps(model)
    with pytest.raises(BellsimError, match="label 'q#1' would not read back from a model file"):
        modelio.dumps(ExperimentModel.quantum_model(("u", "v"), ("u", "v"), {"u": 0, "v": 1},
                                                    {"u": 0, "v": 1}, name="q#1"))


angles = st.floats(allow_nan=False, allow_infinity=False)
labels = st.one_of(st.integers(-99, 99), st.text("uvw-1#", min_size=1, max_size=3))


@given(settings=st.lists(labels, min_size=1, max_size=3, unique=True), data=st.data())
def test_random_quantum_models_round_trip(settings, data):
    angles_a = {s: data.draw(angles) for s in settings}
    angles_b = {s: data.draw(angles) for s in reversed(settings)}
    name = data.draw(st.sampled_from(("", "q", "q-2", "q#2")))
    model = ExperimentModel.quantum_model(settings, settings[::-1], angles_a, angles_b,
                                          name=name)
    assert_refused_or_round_trips(model, any(map(_unencodable, [*settings, name])))
