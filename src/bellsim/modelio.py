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

    begin joint-instruments 1 1   # m3 only: lx ly prob
    0 0 1/2
    end

    begin angles A          # quantum only: setting angle_radians
    1 0.0
    end

Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and parse errors number them
that way; ``#`` starts a comment.  ``_lines`` is this line rule for every
text input: model, config and time-tag files.  Tokens are
whitespace-separated.  A directive or block may appear only once; labels
are compared decoded, so ``1`` and ``01`` name one setting.  Setting labels
and atoms are integers or bare strings (no whitespace; strings must not
look like integers, or the round trip would change their type).
Probabilities are written as exact rationals (``1/6``) and angles as
shortest-repr floats, so ``load(save(m)) == m``.

Models using sampler spaces or plain-callable responses have no table
form and cannot be saved.
"""

from __future__ import annotations

import io
from fractions import Fraction
from pathlib import Path

from .core import (
    DiscreteDistribution,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
)
from .errors import BellsimError, ParseError

FORMAT_VERSION = 1


def _encode_token(value) -> str:
    if isinstance(value, bool):
        raise BellsimError(f"cannot encode {value!r} as a model file token")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value or any(c.isspace() or c == "#" for c in value):
            raise BellsimError(f"label {value!r} is not encodable "
                               "(empty, or holds whitespace or '#')")
        try:
            int(value)
        except ValueError:
            return value
        raise BellsimError(f"string label {value!r} looks like an integer and would "
                           "not round-trip")
    raise BellsimError(f"cannot encode {value!r} as a model file token; "
                       "use int or string labels")


def _lines(text: str):
    """``(line_number, content)`` for each line of ``text`` that is not blank
    once its ``#`` comment is cut off; content is stripped of surrounding
    whitespace.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r``."""
    for line_number, raw in enumerate(io.StringIO(text, newline=None), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield line_number, content


def _line_number(before: str) -> int:
    """The line of the character that follows the text ``before``, counted
    as ``_lines`` counts them."""
    return io.StringIO(before, newline=None).read().count("\n") + 1


def _read_ascii(path: Path) -> str:
    """The text of an ASCII file; any other byte is a ParseError naming
    its line, counted as ``_lines`` counts them."""
    data = path.read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte 0x{data[exc.start]:02x}",
                         line_number=_line_number(data[:exc.start].decode("ascii")),
                         path=str(path)) from None


def _decode_label(token: str):
    """A label or atom token: an int when it parses as one, else the string."""
    try:
        return int(token)
    except ValueError:
        return token


def _encode_prob(p: Fraction) -> str:
    return str(p)


def _require_table(space, what: str) -> DiscreteDistribution:
    if not isinstance(space, DiscreteDistribution):
        raise BellsimError(f"{what} is sampler-backed; only table models can be saved")
    return space


def _require_response(resp, what: str) -> ResponseTable:
    if not isinstance(resp, ResponseTable):
        raise BellsimError(f"{what} is a plain callable; only table models can be saved")
    return resp


def dumps(model: ExperimentModel) -> str:
    lines = [f"version {FORMAT_VERSION}", f"variant {model.variant.value}"]
    if model.name:
        lines.append("name " + _encode_token(model.name))
    lines.append("settings A " + " ".join(_encode_token(s) for s in model.settings_a))
    lines.append("settings B " + " ".join(_encode_token(s) for s in model.settings_b))
    lines.append("")

    if model.variant is ModelVariant.QUANTUM:
        for station, angles in (("A", model.angles_a), ("B", model.angles_b)):
            lines.append(f"begin angles {station}")
            for setting, angle in angles.items():
                lines.append(f"{_encode_token(setting)} {float(angle)!r}")
            lines.append("end")
            lines.append("")
        return "\n".join(lines)

    src = _require_table(model.source, "source")
    lines.append("begin source")
    for (l1, l2), p in src.items():
        lines.append(f"{_encode_token(l1)} {_encode_token(l2)} {_encode_prob(p)}")
    lines.append("end")
    lines.append("")

    if model.variant is ModelVariant.M3:
        for sp, joint in model.instruments_joint.items():
            joint = _require_table(joint, f"joint instruments {tuple(sp)}")
            lines.append(f"begin joint-instruments {_encode_token(sp.x)} {_encode_token(sp.y)}")
            for (lx, ly), p in joint.items():
                lines.append(f"{_encode_token(lx)} {_encode_token(ly)} {_encode_prob(p)}")
            lines.append("end")
            lines.append("")
    else:
        for station, insts in (("A", model.instruments_a), ("B", model.instruments_b)):
            for setting, space in insts.items():
                space = _require_table(space, f"instruments {station}[{setting!r}]")
                lines.append(f"begin instruments {station} {_encode_token(setting)}")
                for atom, p in space.items():
                    lines.append(f"{_encode_token(atom)} {_encode_prob(p)}")
                lines.append("end")
                lines.append("")

    for station, resps in (("A", model.responses_a), ("B", model.responses_b)):
        for setting, resp in resps.items():
            resp = _require_response(resp, f"responses {station}[{setting!r}]")
            lines.append(f"begin responses {station} {_encode_token(setting)}")
            for (sv, iv), outcome in resp.mapping.items():
                lines.append(f"{_encode_token(sv)} {_encode_token(iv)} {outcome}")
            lines.append("end")
            lines.append("")
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


def _parse_prob(token, ln, path) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad probability {token!r}", ln, path) from None


def _read_distribution(lines, path, what: str, atom_width: int) -> DiscreteDistribution:
    """A block of ``atom prob`` rows; an atom of two tokens is a pair."""
    rows = _read_block(lines, path, atom_width + 1, what)
    atoms = [tuple(map(_decode_label, t[:2])) if atom_width == 2 else _decode_label(t[0])
             for _, t in rows]
    return DiscreteDistribution(atoms, [_parse_prob(t[-1], ln, path) for ln, t in rows])


def loads(text: str, path=None) -> ExperimentModel:
    lines = _lines(text)
    variant = None
    name = ""
    settings = {}
    source = None
    instruments = {"A": {}, "B": {}}
    joints = {}
    responses = {"A": {}, "B": {}}
    angles = {"A": {}, "B": {}}
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
            if section == "source":
                source = _read_distribution(lines, path, "source", 2)
                heading = (section,)
            elif section == "instruments":
                if len(tokens) != 4 or tokens[2] not in ("A", "B"):
                    raise ParseError("expected 'begin instruments A|B setting'", ln, path)
                heading = (section, tokens[2], _decode_label(tokens[3]))
                instruments[tokens[2]][heading[2]] = _read_distribution(lines, path, section, 1)
            elif section == "joint-instruments":
                if len(tokens) != 4:
                    raise ParseError("expected 'begin joint-instruments x y'", ln, path)
                heading = (section, _decode_label(tokens[2]), _decode_label(tokens[3]))
                joints[heading[1:]] = _read_distribution(lines, path, section, 2)
            elif section == "responses":
                if len(tokens) != 4 or tokens[2] not in ("A", "B"):
                    raise ParseError("expected 'begin responses A|B setting'", ln, path)
                rows = _read_block(lines, path, 3, "responses")
                mapping = {}
                for ln2, (sv, iv, out) in rows:
                    try:
                        outcome = int(out)
                    except ValueError:
                        raise ParseError(f"bad outcome {out!r}", ln2, path) from None
                    mapping[(_decode_label(sv), _decode_label(iv))] = outcome
                heading = (section, tokens[2], _decode_label(tokens[3]))
                responses[tokens[2]][heading[2]] = ResponseTable(mapping)
            elif section == "angles":
                if len(tokens) != 3 or tokens[2] not in ("A", "B"):
                    raise ParseError("expected 'begin angles A|B'", ln, path)
                rows = _read_block(lines, path, 2, "angles")
                for ln2, (setting, value) in rows:
                    try:
                        angles[tokens[2]][_decode_label(setting)] = float(value)
                    except ValueError:
                        raise ParseError(f"bad angle {value!r}", ln2, path) from None
                heading = (section, tokens[2])
            else:
                raise ParseError(f"unknown section {section!r}", ln, path)
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

    if variant is ModelVariant.QUANTUM:
        return ExperimentModel.quantum_model(settings["A"], settings["B"],
                                             angles["A"], angles["B"], name=name)
    if source is None:
        raise ParseError("missing source block", path=path)
    if variant is ModelVariant.M3:
        return ExperimentModel.correlated_instruments_model(
            settings["A"], settings["B"], source, joints,
            responses["A"], responses["B"], name=name)
    return ExperimentModel.product_model(
        variant, settings["A"], settings["B"], source,
        instruments["A"], instruments["B"], responses["A"], responses["B"],
        name=name)


def load(path) -> ExperimentModel:
    path = Path(path)
    return loads(_read_ascii(path), path=str(path))
