"""Model, config, time-tag and coincidence CSV readers against the line
loops they replaced.

Every text input now goes through ``textio._lines``: lines end at
``\\n``, ``\\r\\n`` or ``\\r``, ``#`` starts a comment, and an error names
the line counted that way.  On ASCII text without ``\\v``, ``\\f``,
``\\x1c``, ``\\x1d`` or ``\\x1e``, without quoted line breaks and without a
repeated model section, the readers must agree with the oracles in
``helpers``: an ``==`` result, or the same exception class and message.
The three cases outside that domain are pinned one by one below.  The
model oracle also keeps the last copy of a repeated response entry, which
the reader refuses (pinned in ``test_modelio``); where a random text
repeats one, the two rows the reader's error names must hold one entry.
"""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bellsim import modelio
from bellsim.cli import ConfigError, _build_parser, _config_keys, _load_config
from bellsim.core import ModelVariant
from bellsim.errors import ParseError
from bellsim.scenarios import build_scenario, scenario_names
from bellsim.streams import ingest_timetag_file, read_coincidence_csv
from bellsim.textio import _decode_label, _split

from helpers import (
    ORACLE_VARIANT_BLOCKS,
    oracle_ingest_timetag_file,
    oracle_load_config,
    oracle_loads,
    oracle_read_coincidence_csv,
)
from test_tables import table_models

ENDINGS = st.sampled_from(("\n", "\r\n", "\r"))
NOISE = st.sampled_from(("", "   ", "\t", "# comment", "  # indented comment", "#"))
JUNK = ("x", "1/0", "nope", "2.5", "-", "+1", "7", "1e3", "1/3", "end")


@st.composite
def texts(draw, lines):
    """``lines`` with blank and comment lines between them, padding, trailing
    comments and a random ending each; the last ending may be missing."""
    out = []
    for line in lines:
        out.extend(draw(st.lists(NOISE, max_size=2)))
        pad = draw(st.sampled_from(("", " ", "\t")))
        out.append(pad + line + pad + draw(st.sampled_from(("", "", " # note", "#x"))))
    parts = [line + draw(ENDINGS) for line in out]
    if parts and draw(st.booleans()):
        parts[-1] = out[-1]
    return "".join(parts)


def outcome(read, *args):
    try:
        return "ok", read(*args)
    except Exception as exc:        # compared by class and message below
        return type(exc), str(exc)


REPEATED_ENTRY = re.compile(r"m\.model:(\d+): repeated response entry .*, first on line (\d+)")


def assert_model_read_as_oracle(text, oracle_text=None):
    """``loads`` reads ``text`` as ``oracle_loads`` reads ``oracle_text``
    (``text`` itself by default), or refuses a response entry that the
    two rows its error names do repeat."""
    oracle_text = text if oracle_text is None else oracle_text
    got = outcome(modelio.loads, text, "m.model")
    repeat = got[0] is ParseError and REPEATED_ENTRY.fullmatch(got[1])
    if not repeat:
        assert got == outcome(oracle_loads, oracle_text, "m.model")
        return
    lines = _split(oracle_text)
    later, first = ([_decode_label(t) for t in lines[int(n) - 1].split("#")[0].split()[:2]]
                    for n in repeat.groups())
    assert later == first and int(repeat[1]) > int(repeat[2])


# --------------------------------------------------------------------------
# Model files

HEADERS = ("version", "variant", "name", "settings", "begin")


# One block of each section, appended to a model whose variant does not read it.
FOREIGN_BLOCKS = {
    "source": "begin source\n1 1 1\nend",
    "instruments": "begin instruments A 1\n0 1\nend",
    "joint-instruments": "begin joint-instruments 1 1\n0 0 1\nend",
    "responses": "begin responses B 2\n1 0 1\nend",
    "angles": "begin angles B\n1 0.5\nend",
}


@st.composite
def model_texts(draw):
    """The text of a shipped or random table model, in some examples with
    its variant word swapped or a block its variant does not read appended,
    then with lines dropped and tokens of rows, ``end`` lines and directive
    names replaced by junk.  A model's text holds only the blocks its variant
    reads, so the appended block repeats no section."""
    source = draw(st.sampled_from(("scenario", "m1", "m2", "m3")))
    if source == "scenario":
        model = build_scenario(draw(st.sampled_from(scenario_names()))).model
    else:
        model = draw(table_models(ModelVariant(source)))
    lines = modelio.dumps(model).splitlines()
    if draw(st.integers(0, 2)) == 0:
        foreign = [s for s in FOREIGN_BLOCKS if s not in ORACLE_VARIANT_BLOCKS[model.variant]]
        lines += FOREIGN_BLOCKS[draw(st.sampled_from(foreign))].splitlines()
    if draw(st.integers(0, 2)) == 0:
        lines[lines.index(f"variant {model.variant.value}")] = (
            "variant " + draw(st.sampled_from([v.value for v in ModelVariant])))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if not tokens or draw(st.booleans()):
            del lines[i]
        elif tokens[0] in HEADERS:
            lines[i] = " ".join(["bogus"] + tokens[1:])
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
            lines[i] = " ".join(tokens)
    sep = draw(st.sampled_from((" ", "\t", "  ")))
    return draw(texts([sep.join(line.split()) for line in lines]))


@given(text=model_texts())
def test_model_reader_matches_line_loop(text):
    assert_model_read_as_oracle(text)


# Plain blocks of integer rows are read in one pass; one perturbation of one
# block sends that block to the line loop.  The oracle breaks lines at ``\f``
# and ``\v``, which the package reads as spaces (pinned below), so the oracle
# is given spaces in their place.

PLAIN_SECTIONS = ("source", "instruments", "joint-instruments", "responses")
PERTURBATIONS = ("comment", "blank", "indent", "control byte", "underscore", "19 digits",
                 "5000 digits", "string", "width", "probability", "end comment", "no end")


def _respelled(draw, row):
    """``row`` spelled otherwise but still plain: a ``+`` sign or leading
    zeros on its integers, runs of spaces and tabs between fields."""
    def spell(number, signed):
        sign, digits = ("-", number[1:]) if number.startswith("-") else ("", number)
        if signed and not sign:
            sign = draw(st.sampled_from(("", "+")))
        return sign + "0" * draw(st.integers(0, 2)) + digits

    fields = []
    for field in row.split(" "):
        numerator, slash, denominator = field.partition("/")
        fields.append(spell(numerator, True) + slash + (spell(denominator, False) if slash else ""))
    seps = st.sampled_from((" ", "\t", "  ", " \t"))
    return "".join(field + draw(seps) for field in fields[:-1]) + fields[-1]


@st.composite
def plain_model_texts(draw, section, kind):
    """The text of a random m1, m2 or m3 table model with int labels, one
    block of it respelled in some examples; with a ``kind``, one ``section``
    block gets that perturbation."""
    variants = {"instruments": ("m1", "m2"), "joint-instruments": ("m3",)}
    model = draw(table_models(ModelVariant(draw(st.sampled_from(
        variants.get(section, ("m1", "m2", "m3")))))))
    lines = modelio.dumps(model).split("\n")
    if draw(st.booleans()):
        begin = draw(st.sampled_from([i for i, line in enumerate(lines)
                                      if line.split()[:2] in (["begin", s] for s in PLAIN_SECTIONS)]))
        for row in range(begin + 1, lines.index("end", begin)):
            lines[row] = _respelled(draw, lines[row])
    if kind is None:
        return "\n".join(lines)
    begin = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.split()[:2] == ["begin", section]]))
    end = lines.index("end", begin)
    row = draw(st.integers(begin + 1, end - 1))
    fields = lines[row].split()
    if kind == "comment":
        if draw(st.booleans()):
            lines.insert(draw(st.integers(begin + 1, end)), "# note")
        else:
            lines[row] += " # note"
    elif kind == "blank":
        lines.insert(draw(st.integers(begin + 1, end)), draw(st.sampled_from(("", "  "))))
    elif kind == "indent":
        lines[row] = draw(st.sampled_from((" ", "\t"))) + lines[row]
    elif kind == "control byte":
        lines[row] = fields[0] + draw(st.sampled_from(("\f", "\v"))) + " ".join(fields[1:])
    elif kind in ("underscore", "19 digits", "5000 digits", "string"):
        fields[0] = {"underscore": "1_0", "19 digits": "1" * 19, "5000 digits": "1" * 5000,
                     "string": "x"}[kind]
        lines[row] = " ".join(fields)
    elif kind == "width":
        lines[row] = " ".join(fields[:-1] if draw(st.booleans()) else fields + fields[-1:])
    elif kind == "probability":
        lines[row] = " ".join(fields[:-1] + [draw(st.sampled_from(("1/0", "0.5", "1_0/60")))])
    elif kind == "end comment":
        lines[end] = "end  # done"
    else:
        del lines[end]
    return "\n".join(lines)


def sections_read_line_by_line(text):
    """The sections whose blocks ``loads`` read line by line; its result or
    error must be the oracle's (`assert_model_read_as_oracle`)."""
    spaced = text.replace("\f", " ").replace("\v", " ")
    with mock.patch.object(modelio, "_read_block", wraps=modelio._read_block) as line_loop:
        assert_model_read_as_oracle(text, spaced)
    return {call.args[3] for call in line_loop.call_args_list}


@settings(max_examples=40)
@given(text=plain_model_texts(None, None))
def test_plain_blocks_match_line_loop(text):
    read = sections_read_line_by_line(text)
    if re.search("[0-9]{19}", text) is None:      # longer integers take the line loop
        assert read == set()


@pytest.mark.parametrize("kind", PERTURBATIONS)
@pytest.mark.parametrize("section", PLAIN_SECTIONS)
@settings(max_examples=2)
@given(data=st.data())
def test_perturbed_block_takes_the_line_loop(section, kind, data):
    assert section in sections_read_line_by_line(data.draw(plain_model_texts(section, kind)))


def _bench_shaped_text(rng: random.Random, variant: str, k: int, m: int) -> str:
    """A model file laid out as the benchmark writes its exact models:
    probabilities over 5040, unreduced; one row per source atom, instrument
    atom or cell and response entry."""
    def weights(n):
        cuts = sorted(rng.sample(range(1, 5040), n - 1))
        return [f"{b - a}/5040" for a, b in zip([0] + cuts, cuts + [5040])]

    lines = ["version 1", f"variant {variant}", "name bench-shaped",
             "settings A 1 2", "settings B 1 2", "begin source"]
    lines += [f"{i} {l2} {p}" for i, (l2, p) in enumerate(zip(rng.sample(range(k), k),
                                                                weights(k)))]
    lines.append("end")
    for x, y in ((1, 1), (1, 2), (2, 1), (2, 2)) if variant == "m3" else ():
        cells = sorted(rng.sample(range(m * m), m))
        lines += [f"begin joint-instruments {x} {y}",
                  *(f"{c // m} {c % m} {p}" for c, p in zip(cells, weights(m))), "end"]
    for station in ("A", "B") if variant != "m3" else ():
        for s in (1, 2):
            lines += [f"begin instruments {station} {s}",
                      *(f"{j} {p}" for j, p in enumerate(weights(m))), "end"]
    for station in ("A", "B"):
        for s in (1, 2):
            lines += [f"begin responses {station} {s}",
                      *(f"{i} {j} {rng.choice((-1, 0, 1))}" for i in range(k) for j in range(m)),
                      "end"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("variant, k, m", [("m1", 150, 4), ("m3", 40, 11)])
def test_benchmark_shaped_files_take_the_one_pass_path(variant, k, m, monkeypatch):
    text = _bench_shaped_text(random.Random(5), variant, k, m)
    want = oracle_loads(text)

    def line_loop(*args):
        raise AssertionError("block read line by line")

    monkeypatch.setattr(modelio, "_read_block", line_loop)
    assert modelio.loads(text) == want
    with pytest.raises(AssertionError, match="line by line"):
        modelio.loads(text.replace("\nend\n", "\nend # done\n", 1))


# --------------------------------------------------------------------------
# Config, time-tag and CSV files, read from disk


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _write(directory, name, text):
    path = directory / name
    path.write_bytes(text.encode("ascii"))
    return path


good_config_lines = st.sampled_from(("seed = 5", "windows=100", "scenario = lf",
                                     "detection-rate = 0.5", "p_same=0.25", "out_dir = run"))
config_lines = st.one_of(
    good_config_lines, good_config_lines, good_config_lines,
    st.builds("{}{}{}".format,
              st.sampled_from(("seed", "windows", "detection-rate", "bogus", "")),
              st.sampled_from((" = ", "=", " =")),
              st.sampled_from(("5", "0.5", "lf", "x", "", "a=b"))),
    st.just("seed 5"))


def load_config(path) -> dict:
    """A config file read against the keys of a fresh ``simulate`` parser."""
    return _load_config(path, _config_keys(_build_parser()[1]["simulate"]))


@given(text=st.lists(config_lines, max_size=6).flatmap(texts))
def test_config_reader_matches_line_loop(scratch, text):
    path = _write(scratch, "run.cfg", text)
    assert outcome(load_config, path) == outcome(oracle_load_config, path)


def _clicks(stream):
    return (stream.station, stream.t.tolist(), stream.setting.tolist(), stream.value.tolist(),
            stream.labels)


def _records(records):
    return list(records), records.settings_a, records.settings_b


timetag_lines = st.builds(
    lambda fields, sep: sep.join(fields),
    st.lists(st.one_of(st.integers(0, 60).map(str),
                       st.sampled_from(("1", "2", "01", "a", "-1", "+1", "0", "x", "-5",
                                        "9223372036854775808"))),
             min_size=2, max_size=4),
    st.sampled_from(("\t", " ", "  ")))


@st.composite
def timetag_texts(draw):
    """Mostly well-formed, increasing ``t setting outcome`` rows, some junk."""
    lines, t = [], 0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(timetag_lines))
            continue
        t += draw(st.sampled_from((0, 1, 7, 20, 20, 20, -1)))
        lines.append(f"{t}\t{draw(st.sampled_from(('1', '2', '01', 'a')))}\t"
                     f"{draw(st.sampled_from(('+1', '-1', '1')))}")
    return draw(texts(lines))


@given(text=timetag_texts())
def test_timetag_reader_matches_line_loop(scratch, text):
    path = _write(scratch, "t.txt", text)
    got = outcome(lambda p: _clicks(ingest_timetag_file(p, "B")), path)
    assert got == outcome(lambda p: _clicks(oracle_ingest_timetag_file(p, "B")), path)


csv_fields = st.sampled_from(("0", "1", "-1", "7", "", "a", "01", '"1"', '"a b"', "x", " 2"))


@st.composite
def csv_texts(draw):
    """A header and rows of four to six fields; quoted fields hold no line break."""
    header = "window,x,y,a,b" if draw(st.integers(0, 5)) else "window,x,y,a"
    rows = []
    for w in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            rows.append(",".join(draw(st.lists(csv_fields, min_size=4, max_size=6))))
        elif kind == 1:
            rows.append("")
        else:
            a, b = draw(st.sampled_from(((1, 1), (-1, 0), (0, 1), (1, -1))))
            rows.append(f"{w},{draw(csv_fields)},{draw(csv_fields)},{a},{b}")
    return "".join(line + draw(ENDINGS) for line in [header] + rows)


@given(text=csv_texts())
def test_csv_reader_matches_row_loop(scratch, text):
    path = _write(scratch, "c.csv", text)
    got = outcome(lambda p: _records(read_coincidence_csv(p)), path)
    assert got == outcome(lambda p: _records(oracle_read_coincidence_csv(p)), path)


# --------------------------------------------------------------------------
# The three rules that changed


def test_control_bytes_are_whitespace_in_model_and_config_files(tmp_path):
    with pytest.raises(ParseError) as excinfo:
        modelio.loads("version 1\nvariant lhvm\f\nbogus\n", path="v.model")
    assert str(excinfo.value) == "v.model:3: unknown directive 'bogus'"

    text = modelio.dumps(build_scenario("lf").model)
    assert modelio.loads(text.replace("1 1 1/6", "1 1\f1/6")) == modelio.loads(text)

    config = tmp_path / "run.cfg"
    config.write_bytes(b"seed = 1\fwindows = 5\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(config)
    assert str(excinfo.value) == f"{config}:1: bad value for 'seed'"


def test_non_ascii_byte_line_counts_carriage_returns(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"0\t1\t+1\r5\t1\t-1\r\xff\r")
    with pytest.raises(ParseError) as excinfo:
        ingest_timetag_file(path)
    assert str(excinfo.value) == f"{path}:3: non-ASCII byte 0xff"


def test_csv_error_after_a_multi_line_row_names_its_physical_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text('window,x,y,a,b\n0,"two\nlines",1,1,1\n1,1,1,1,7\n')
    with pytest.raises(ParseError) as excinfo:
        read_coincidence_csv(path)
    assert str(excinfo.value) == f"{path}:4: bad outcome pair (1, 7)"
