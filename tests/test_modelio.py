import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim import modelio
from bellsim.core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SamplerSpace,
    _PARTS,
    _VARIANT_FIELDS,
    validate_model,
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
    model = ExperimentModel(ModelVariant.LHVM, settings, settings, source=source,
                            instruments_a=inst, instruments_b=dict(inst), responses_a=resp,
                            responses_b=dict(resp), name="string-labels")
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


def test_probability_with_an_underscore_is_a_parse_error():
    # Fraction("1_0/60") reads as 1/6 from Python 3.11 on, and not before.
    text = _model_text("lf").replace("1 1 1/6", "1 1 1_0/60", 1)
    with pytest.raises(ParseError) as excinfo:
        modelio.loads(text, path="f.model")
    assert str(excinfo.value) == f"f.model:{_line_of(text, '1 1 1_0/60')}: bad probability '1_0/60'"


def test_missing_settings_rejected():
    with pytest.raises(ParseError, match="settings"):
        modelio.loads("variant lhvm\n")


def test_sampler_models_not_serialisable():
    sampler = SamplerSpace(lambda g, n: [(0, 0)] * n)
    inst = {s: DiscreteDistribution.point(0) for s in (1, 2)}
    resp = {s: ResponseTable({(0, 0): 1}) for s in (1, 2)}
    model = ExperimentModel(ModelVariant.M1, (1, 2), (1, 2), source=sampler, instruments_a=inst,
                            instruments_b=dict(inst), responses_a=resp, responses_b=dict(resp))
    with pytest.raises(BellsimError, match="sampler"):
        modelio.dumps(model)


def test_int_lookalike_string_label_refused():
    settings = ("1", 2)
    source = DiscreteDistribution.uniform([(0, 0)])
    inst = {s: DiscreteDistribution.point(0) for s in settings}
    resp = {s: ResponseTable({(0, 0): 1}) for s in settings}
    model = ExperimentModel(ModelVariant.LHVM, settings, settings, source=source,
                            instruments_a=inst, instruments_b=dict(inst), responses_a=resp,
                            responses_b=dict(resp))
    with pytest.raises(BellsimError, match="label '1' would not read back from a model file"):
        modelio.dumps(model)


@pytest.mark.parametrize("name, label", [("q\u00e9", "u"), ("q", "\u00e9")])
def test_non_ascii_name_or_label_is_refused(name, label, tmp_path):
    model = ExperimentModel(ModelVariant.QUANTUM, (label, "v"), ("u", "v"),
                            angles_a={label: 0.0, "v": 1.0}, angles_b={"u": 0.0, "v": 1.0},
                            name=name)
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
    model = ExperimentModel(ModelVariant.LHVM, (one, two), (one, two), source=source,
                            instruments_a=inst, instruments_b=dict(inst), responses_a=resp,
                            responses_b=dict(resp))
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


# (scenario, block added at the end, the message); the error names the added
# block's begin line.
FOREIGN = {
    "lhvm-joint-instruments": ("lf", "begin joint-instruments 1 1\n0 0 1\nend",
                               "a lhvm model has no joint-instruments block"),
    "m2-angles": ("m2-demo", "begin angles A\n1 0.0\nend", "a m2 model has no angles block"),
    "m3-instruments": ("m3-demo", "begin instruments B 1\n0 1\nend",
                       "a m3 model has no instruments block"),
    "quantum-source": ("quantum", "begin source\n1 1 1\nend",
                       "a quantum model has no source block"),
    "quantum-responses": ("quantum", "begin responses A 1\n1 0 1\nend",
                          "a quantum model has no responses block"),
}


@pytest.mark.parametrize("kind", list(FOREIGN))
def test_block_its_variant_does_not_read_is_a_parse_error(kind):
    scenario, extra, message = FOREIGN[kind]
    text = _model_text(scenario)
    line = len(text.splitlines()) + 1
    with pytest.raises(ParseError) as excinfo:
        modelio.loads(text + extra + "\n", path="f.model")
    assert str(excinfo.value) == f"f.model:{line}: {message}"


def test_variant_line_after_the_blocks_still_refuses_them():
    text = _model_text("lf").replace("variant lhvm\n", "") + "variant quantum\n"
    with pytest.raises(ParseError) as excinfo:
        modelio.loads(text, path="f.model")
    assert str(excinfo.value) == (f"f.model:{_line_of(text, 'begin source')}: "
                                  "a quantum model has no source block")


def test_quantum_file_without_an_angles_block_reads_as_missing_angles():
    text = _model_text("quantum")
    model = modelio.loads(text[:text.index("begin angles B")])
    assert model.angles_b is None
    assert validate_model(model) == ["angles B: missing"]


def _field_of(begin: str) -> str:
    """The model field that the block of a ``begin`` line fills."""
    section, *heading = begin.split()[1:]
    return ({"source": "source", "joint-instruments": "instruments_joint"}.get(section)
            or f"{section}_{heading[0].lower()}")


def _variant_model(variant, data):
    if variant is ModelVariant.QUANTUM:
        return build_scenario("quantum").model
    return data.draw(table_models(variant))


@pytest.mark.parametrize("variant", list(ModelVariant))
@settings(max_examples=10)
@given(data=st.data())
def test_dumps_writes_only_blocks_its_variant_reads(variant, data):
    model = _variant_model(variant, data)
    fields = {_field_of(line) for line in modelio.dumps(model).splitlines()
              if line.startswith("begin ")}
    assert fields == set(_VARIANT_FIELDS[variant])


# A value for every model part, taken from the shipped scenarios.
_DONORS = {field: getattr(model, field)
           for model in (build_scenario(n).model for n in ("m2-demo", "m3-demo", "quantum"))
           for field in _PARTS if getattr(model, field) is not None}


@pytest.mark.parametrize("variant", list(ModelVariant))
@settings(max_examples=20)
@given(data=st.data())
def test_a_part_its_variant_does_not_read_is_reported_and_refused(variant, data):
    model = _variant_model(variant, data)
    assert modelio.loads(modelio.dumps(model)) == model
    field = data.draw(st.sampled_from([f for f in _PARTS if f not in _VARIANT_FIELDS[variant]]))
    value = data.draw(st.sampled_from((_DONORS[field], {})))
    foreign = dataclasses.replace(model, **{field: value})
    message = f"{field}: a {variant.value} model does not read it"
    assert validate_model(foreign) == [message, *validate_model(model)]
    with pytest.raises(BellsimError, match=f"^{message}$"):
        modelio.dumps(foreign)


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

    settings_a, settings_b = tuple(map(f, model.settings_a)), tuple(map(f, model.settings_b))
    if model.variant is ModelVariant.M3:
        return ExperimentModel(
            ModelVariant.M3, settings_a, settings_b, source=dist(model.source),
            instruments_joint={f(sp): dist(j) for sp, j in model.instruments_joint.items()},
            responses_a=tables(model.responses_a), responses_b=tables(model.responses_b),
            name=model.name)
    return ExperimentModel(model.variant, settings_a, settings_b, source=dist(model.source),
                           instruments_a={f(s): dist(d) for s, d in model.instruments_a.items()},
                           instruments_b={f(s): dist(d) for s, d in model.instruments_b.items()},
                           responses_a=tables(model.responses_a),
                           responses_b=tables(model.responses_b), name=model.name)


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
    model = ExperimentModel(ModelVariant.QUANTUM, settings, ("u", "v"),
                            angles_a=dict.fromkeys(settings, 0.0), angles_b={"u": 0.0, "v": 1.0})
    with pytest.raises(BellsimError, match="label 'a#b' would not read back from a model file"):
        modelio.dumps(model)
    with pytest.raises(BellsimError, match="label 'q#1' would not read back from a model file"):
        modelio.dumps(ExperimentModel(ModelVariant.QUANTUM, ("u", "v"), ("u", "v"),
                                      angles_a={"u": 0, "v": 1}, angles_b={"u": 0, "v": 1},
                                      name="q#1"))


angles = st.floats(allow_nan=False, allow_infinity=False)
labels = st.one_of(st.integers(-99, 99), st.text("uvw-1#", min_size=1, max_size=3))


@given(settings=st.lists(labels, min_size=1, max_size=3, unique=True), data=st.data())
def test_random_quantum_models_round_trip(settings, data):
    angles_a = {s: data.draw(angles) for s in settings}
    angles_b = {s: data.draw(angles) for s in reversed(settings)}
    name = data.draw(st.sampled_from(("", "q", "q-2", "q#2")))
    model = ExperimentModel(ModelVariant.QUANTUM, tuple(settings), tuple(settings[::-1]),
                            angles_a=angles_a, angles_b=angles_b, name=name)
    assert_refused_or_round_trips(model, any(map(_unencodable, [*settings, name])))


def _quantum_named(name):
    return ExperimentModel(ModelVariant.QUANTUM, ("u", "v"), ("u", "v"),
                           angles_a={"u": 0.0, "v": 1.0}, angles_b={"u": 0.0, "v": 1.0}, name=name)


def _name_reads_back(name):
    """A name that the rest of its ``name`` line gives back: ASCII with no
    '#', words separated by single spaces, or empty (no line at all)."""
    return name.isascii() and re.fullmatch(r"([^\s#]+( [^\s#]+)*)?", name) is not None


def test_name_that_reads_as_an_int_round_trips():
    # The name line is not decoded: "name 5" reads back as the string "5".
    model = _quantum_named("5")
    assert "\nname 5\n" in modelio.dumps(model)
    assert modelio.loads(modelio.dumps(model)) == model
    assert modelio.loads(modelio.dumps(_quantum_named("my model 2"))).name == "my model 2"
    with pytest.raises(BellsimError, match="^label 5 would not read back from a model file$"):
        modelio.dumps(_quantum_named(5))


@given(name=st.text(st.sampled_from("q05 \t#-\u00e9\x0b\x1c"), max_size=6))
def test_random_names_round_trip_or_are_refused(name):
    assert_refused_or_round_trips(_quantum_named(name), not _name_reads_back(name))
