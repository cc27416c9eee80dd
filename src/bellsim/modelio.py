"""Model definition files.

A plain-text, line-oriented format that round-trips table-backed models
bit-exactly.  Layout::

    version 1
    variant lhvm
    name my-model
    settings A 1 -1
    settings B 1 -1

    begin source            # one row per atom: l1 l2 prob
    1 1 1/6
    end

    begin instruments A 1   # one row per atom: atom prob
    0 1
    end

    begin responses A 1     # one row per entry: l1 lx outcome
    1 0 1
    end

    begin joint-instruments 1 1   # m3, in place of instruments: lx ly prob
    0 0 1/2
    end

    begin angles A          # quantum, its only block: setting angle_radians
    1 0.0
    end

A model holds only the parts its variant reads (``core._VARIANT_FIELDS``),
and a file only their blocks: ``loads`` passes what they give to one
``ExperimentModel`` call, any other block is a ``ParseError`` at its
``begin`` line wherever the ``variant`` line stands, and ``dumps`` refuses
a model with a part its variant does not read.  A block for a setting the
``settings`` lines do not declare is read, and `validate_model` reports it.

One table, ``_BLOCKS``, declares every block: the fields of its ``begin``
line and the kind of each row field (label, probability, outcome or angle).
``dumps`` and ``loads`` write, check and read every block through it, with
one encoder and one decoder per kind; only the assembly of the decoded
columns into a model part is particular to a section.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and parse errors number them
that way; ``#`` starts a comment (the line rule of every text input,
``textio``).  Tokens are
whitespace-separated.  A block whose rows are plain (integers of at most 18
digits, ``n`` or ``n/d`` probabilities, fields separated by spaces or tabs,
no comment or blank line, closed by a line that is exactly ``end``) is read
in one pass, which decodes each distinct probability once; angles have no
plain form.  Any other block is read line by line, with the same result and
the same errors.  A directive or block may appear only once, and an
entry of a responses block only once; labels are compared decoded, so
``1`` and ``01`` name one setting.  Setting labels
and atoms are written as ``textio._label_text`` writes them for a model
file: ASCII text with no whitespace or ``#`` that reads back as the label
itself, so an int (numpy's too) or a string that does not look like one;
any other label is refused.  The name is the rest of its line, undecoded,
so it is written as itself: an ASCII string with no ``#`` whose words are
separated by single spaces; any other name is refused.
Probabilities are written as exact rationals (``1/6``) and angles as
shortest-repr floats, so ``load(save(m)) == m``.

Models using sampler spaces or plain-callable responses have no table
form and cannot be saved.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np

from .core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SettingPair,
    _VARIANT_FIELDS,
    _foreign_parts,
)
from .errors import BellsimError, ParseError
from .textio import _contents, _decode_label, _label_text, _read_ascii, _split

FORMAT_VERSION = 1


def _require_table(space, what: str) -> DiscreteDistribution:
    if not isinstance(space, DiscreteDistribution):
        raise BellsimError(f"{what} is sampler-backed; only table models can be saved")
    return space


def _require_response(resp, what: str) -> ResponseTable:
    if not isinstance(resp, ResponseTable):
        raise BellsimError(f"{what} is a plain callable; only table models can be saved")
    return resp


# Each block: the fields of its ``begin`` line after the section ("A|B" is a
# station, any other field a label), and the kind of each field of its rows.
_BLOCKS = {
    "source": ((), ("label", "label", "probability")),
    "instruments": (("A|B", "setting"), ("label", "probability")),
    "joint-instruments": (("x", "y"), ("label", "label", "probability")),
    "responses": (("A|B", "setting"), ("label", "label", "outcome")),
    "angles": (("A|B",), ("label", "angle")),
}

def _decode_probability(token: str) -> Fraction:
    if "_" in token:    # Fraction reads PEP 515 underscores from Python 3.11 on, not before
        raise ValueError(token)
    return Fraction(token)


_ENCODE = {"label": lambda label: _label_text(label, "model"), "probability": str,
           "outcome": str, "angle": lambda angle: repr(float(angle))}
_DECODE = {"label": _decode_label, "probability": _decode_probability, "outcome": int,
           "angle": float}


def _dump_block(lines: list, section: str, heading, rows) -> None:
    """Append the ``section`` block with ``heading`` values for its ``begin``
    fields and one row per tuple of ``rows`` to ``lines``."""
    fields, kinds = _BLOCKS[section]
    lines.append(" ".join(["begin", section] + [
        value if field == "A|B" else _ENCODE["label"](value)
        for field, value in zip(fields, heading, strict=True)]))
    for row in rows:
        pairs = tuple(zip(kinds, row, strict=True))     # a row of another width raises
        lines.append(" ".join(_ENCODE[kind](value) for kind, value in pairs))
    lines += ["end", ""]


def _name_text(name) -> str:
    """The text of a ``name`` line for ``name``: the name itself, when
    ``loads``, which joins the line's words with single spaces, reads it
    back unchanged."""
    if not (isinstance(name, str) and name.isascii() and "#" not in name
            and " ".join(name.split()) == name):
        raise BellsimError(f"label {name!r} would not read back from a model file")
    return name


def dumps(model: ExperimentModel) -> str:
    if foreign := _foreign_parts(model):
        raise BellsimError("; ".join(foreign))
    lines = [f"version {FORMAT_VERSION}", f"variant {model.variant.value}"]
    if model.name:
        lines.append("name " + _name_text(model.name))
    for station, settings in (("A", model.settings_a), ("B", model.settings_b)):
        lines.append(f"settings {station} " + " ".join(map(_ENCODE["label"], settings)))
    lines.append("")

    if model.variant is ModelVariant.QUANTUM:
        for station, angles in (("A", model.angles_a), ("B", model.angles_b)):
            _dump_block(lines, "angles", (station,), angles.items())
        return "\n".join(lines)

    src = _require_table(model.source, "source")
    _dump_block(lines, "source", (), ((*atom, p) for atom, p in src.items()))
    if model.variant is ModelVariant.M3:
        for sp, joint in model.instruments_joint.items():
            joint = _require_table(joint, f"joint instruments {tuple(sp)}")
            _dump_block(lines, "joint-instruments", sp, ((*atom, p) for atom, p in joint.items()))
    else:
        for station, insts in (("A", model.instruments_a), ("B", model.instruments_b)):
            for setting, space in insts.items():
                space = _require_table(space, f"instruments {station}[{setting!r}]")
                _dump_block(lines, "instruments", (station, setting), space.items())
    for station, resps in (("A", model.responses_a), ("B", model.responses_b)):
        for setting, resp in resps.items():
            resp = _require_response(resp, f"responses {station}[{setting!r}]")
            _dump_block(lines, "responses", (station, setting),
                        ((*entry, outcome) for entry, outcome in resp.mapping.items()))
    return "\n".join(lines)


def save(model: ExperimentModel, path) -> None:
    Path(path).write_text(dumps(model), encoding="ascii")


def _read_block(lines, path, row_width: int, what: str):
    rows = []
    for ln, content in lines:
        tokens = content.split()
        if tokens == ["end"]:
            return rows
        if len(tokens) != row_width:
            raise ParseError(f"{what}: expected {row_width} fields, got {len(tokens)}", ln, path)
        rows.append((ln, tokens))
    raise ParseError(f"unterminated {what} block (missing 'end')", path=path)


def _line_columns(lines, path, section: str) -> list[list]:
    """The columns of the ``section`` block read line by line, each field
    decoded by its kind; every error of a block is raised here, a bad field
    after every row is read and in row order."""
    kinds = _BLOCKS[section][1]
    columns = [[] for _ in kinds]
    for ln, tokens in _read_block(lines, path, len(kinds), section):
        for column, kind, token in zip(columns, kinds, tokens):
            try:
                column.append(_DECODE[kind](token))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad {kind} {token!r}", ln, path) from None
    return columns


# A plain row of a block: its fields separated by spaces or tabs, with
# nothing before the first or after the last.  Integers have at most 18
# digits, so that they fit ``np.fromstring``'s int64 and ``int`` reads them
# as the line loop's ``_decode_label`` does (``1_0`` and digit strings past
# ``int``'s limit take the line loop); a denominator of zeros is left to the
# line loop's error.  Angles have no plain form.
_INT = r"[-+]?[0-9]{1,18}"
_PLAIN_FIELD = {"label": _INT, "outcome": _INT,
                "probability": _INT + r"(?:/(?!0+\b)[0-9]{1,18})?"}


@cache
def _plain_body(section: str) -> "re.Pattern | None":
    """The pattern of a plain ``section`` body, compiled on first use; None
    for a section with no plain form."""
    kinds = _BLOCKS[section][1]
    if not set(kinds) <= _PLAIN_FIELD.keys():
        return None
    row = r"[ \t]+".join(_PLAIN_FIELD[kind] for kind in kinds)
    return re.compile(f"(?:{row}(?:\n{row})*)?")


def _plain_block(split, numbered, start: int, section: str):
    """The body of the ``section`` block that starts at ``split[start]``, as
    one string, when every line of it up to the first line that is exactly
    ``end`` is a plain row; its lines and that ``end`` are then consumed from
    ``numbered``.  None, with nothing consumed, for any other body, which
    the line loop then reads."""
    pattern = _plain_body(section)
    if pattern is None:
        return None
    try:
        end = split.index("end", start)
    except ValueError:
        return None
    body = "\n".join(split[start:end])
    if pattern.fullmatch(body) is None:
        return None
    deque(islice(numbered, end + 1 - start), maxlen=0)
    return body


def _plain_columns(body: str, kinds) -> list[list]:
    """The columns of a plain block body, decoded as ``_line_columns`` would:
    ints by ``np.fromstring`` when every field is one, and each distinct
    probability token once."""
    width = len(kinds)
    if "probability" not in kinds:
        ints = np.fromstring(body, dtype=np.int64, sep=" ").tolist()
        return [ints[i::width] for i in range(width)]
    tokens = body.split()
    columns = []
    for i, kind in enumerate(kinds):
        column = tokens[i::width]
        if kind == "probability":     # Fraction(int, int) is twice as fast as Fraction(str)
            value = {token: Fraction(int(n), int(d or 1))
                     for token in set(column) for n, _, d in [token.partition("/")]}
            columns.append([value[token] for token in column])
        else:
            columns.append(list(map(int, column)))
    return columns


def _response_table(keys, outcomes, split, begin: int, path) -> ResponseTable:
    """The table of a responses block's decoded columns, whose ``begin``
    line is line ``begin`` of ``split``; an entry given twice is a
    ParseError at its second row, naming the first.  Rows are the block's
    non-blank lines, in either reading."""
    table = ResponseTable(zip(zip(*keys), outcomes))
    if len(table.mapping) != len(outcomes):
        firsts = {}
        for k, entry in enumerate(zip(*keys)):
            if entry in firsts:
                rows = [ln for ln, _ in islice(
                    _contents(enumerate(split[begin:], start=begin + 1)), k + 1)]
                raise ParseError(f"repeated response entry {entry}, first on line "
                                 f"{rows[firsts[entry]]}", rows[k], path)
            firsts[entry] = k
    return table


def loads(text: str, path=None) -> ExperimentModel:
    split = _split(text)
    numbered = enumerate(split, start=1)
    lines = _contents(numbered)

    variant = None
    name = ""
    settings = {}
    parts = {}      # ExperimentModel keyword -> the model part its blocks give
    firsts = {}     # ExperimentModel keyword -> (line, section) of its first block
    seen = {}       # heading of a directive or block, labels decoded -> its first line

    for ln, content in lines:
        tokens = content.split()
        key = tokens[0]
        if key == "version":
            if tokens[1:] != [str(FORMAT_VERSION)]:
                raise ParseError(f"unsupported format version {' '.join(tokens[1:])!r}", ln, path)
            heading = (key,)
        elif key == "variant":
            if len(tokens) != 2:
                raise ParseError("variant: expected one value", ln, path)
            try:
                variant = ModelVariant(tokens[1])
            except ValueError:
                raise ParseError(f"unknown variant {tokens[1]!r}", ln, path) from None
            heading = (key,)
        elif key == "name":
            name = " ".join(tokens[1:])
            heading = (key,)
        elif key == "settings":
            if len(tokens) < 3 or tokens[1] not in ("A", "B"):
                raise ParseError("settings: expected 'settings A|B label...'", ln, path)
            settings[tokens[1]] = tuple(_decode_label(t) for t in tokens[2:])
            heading = (key, tokens[1])
        elif key == "begin":
            section = tokens[1] if len(tokens) > 1 else ""
            if section not in _BLOCKS:
                raise ParseError(f"unknown section {section!r}", ln, path)
            fields, kinds = _BLOCKS[section]
            values = tokens[2:]
            # A source line takes no fields and is not checked for extra tokens.
            if fields and (len(values) != len(fields) or any(
                    field == "A|B" and value not in ("A", "B")
                    for field, value in zip(fields, values))):
                raise ParseError(f"expected 'begin {section} {' '.join(fields)}'", ln, path)
            heading = (section, *(value if field == "A|B" else _decode_label(value)
                                  for field, value in zip(fields, values)))
            body = _plain_block(split, numbered, ln, section)
            *keys, column = (_line_columns(lines, path, section) if body is None
                             else _plain_columns(body, kinds))
            if not column and kinds[-1] == "probability":    # a distribution needs an atom
                raise ParseError(f"empty {section} block", ln, path)
            field = ({"source": "source", "joint-instruments": "instruments_joint"}.get(section)
                     or f"{section}_{heading[1].lower()}")
            firsts.setdefault(field, (ln, section))
            if section == "source":
                parts[field] = DiscreteDistribution(list(zip(*keys)), column)
            elif section == "joint-instruments":
                parts.setdefault(field, {})[SettingPair(*heading[1:])] = (
                    DiscreteDistribution(list(zip(*keys)), column))
            elif section == "angles":
                parts[field] = dict(zip(keys[0], column))
            else:
                parts.setdefault(field, {})[heading[2]] = (
                    DiscreteDistribution(keys[0], column) if section == "instruments"
                    else _response_table(keys, column, split, ln, path))
        else:
            raise ParseError(f"unknown directive {key!r}", ln, path)
        if heading in seen:
            raise ParseError(f"repeated {' '.join(map(str, heading))!r}, "
                             f"first on line {seen[heading]}", ln, path)
        seen[heading] = ln

    if variant is None:
        raise ParseError("missing 'variant' line", path=path)
    if "A" not in settings or "B" not in settings:
        raise ParseError("missing 'settings A' or 'settings B' line", path=path)

    reads = _VARIANT_FIELDS[variant]
    for field, (ln, section) in firsts.items():
        if field not in reads:
            raise ParseError(f"a {variant.value} model has no {section} block", ln, path)
    if "source" in reads and "source" not in parts:
        raise ParseError("missing source block", path=path)
    return ExperimentModel(variant, settings["A"], settings["B"], name=name, **parts)


def load(path) -> ExperimentModel:
    path = Path(path)
    return loads(_read_ascii(path), path=str(path))
