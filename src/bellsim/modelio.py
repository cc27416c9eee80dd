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

Tokens are whitespace-separated; ``#`` starts a comment.  Setting labels
and atoms are integers or bare strings (no whitespace; strings must not
look like integers, or the round trip would change their type).
Probabilities are written as exact rationals (``1/6``) and angles as
shortest-repr floats, so ``load(save(m)) == m``.

Models using sampler spaces or plain-callable responses have no table
form and cannot be saved.
"""

from __future__ import annotations

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
        if not value or any(c.isspace() for c in value) or value.startswith("#"):
            raise BellsimError(f"label {value!r} is not encodable (whitespace or empty)")
        try:
            int(value)
        except ValueError:
            return value
        raise BellsimError(f"string label {value!r} looks like an integer and would "
                           "not round-trip")
    raise BellsimError(f"cannot encode {value!r} as a model file token; "
                       "use int or string labels")


def _read_ascii(path: Path) -> str:
    """The text of an ASCII file; any other byte is a ParseError naming
    its line."""
    data = path.read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte 0x{data[exc.start]:02x}",
                         line_number=data.count(b"\n", 0, exc.start) + 1,
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


class _Reader:
    def __init__(self, text: str, path=None):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0

    def next_tokens(self):
        """Next non-empty, non-comment line as (line_number, tokens)."""
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1]
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return self.pos, stripped.split()
        return None, None

    def fail(self, message, line_number=None):
        raise ParseError(message, line_number=line_number, path=self.path)


def _read_block(reader: _Reader, row_width: int, what: str):
    rows = []
    while True:
        ln, tokens = reader.next_tokens()
        if tokens is None:
            reader.fail(f"unterminated {what} block (missing 'end')")
        if tokens == ["end"]:
            return rows
        if len(tokens) != row_width:
            reader.fail(f"{what}: expected {row_width} fields, got {len(tokens)}", ln)
        rows.append((ln, tokens))


def _parse_prob(reader, token, ln) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        reader.fail(f"bad probability {token!r}", ln)


def loads(text: str, path=None) -> ExperimentModel:
    reader = _Reader(text, path)
    variant = None
    name = ""
    settings = {}
    source = None
    instruments = {"A": {}, "B": {}}
    joints = {}
    responses = {"A": {}, "B": {}}
    angles = {"A": {}, "B": {}}

    while True:
        ln, tokens = reader.next_tokens()
        if tokens is None:
            break
        key = tokens[0]
        if key == "version":
            if tokens[1:] != [str(FORMAT_VERSION)]:
                reader.fail(f"unsupported format version {' '.join(tokens[1:])!r}", ln)
        elif key == "variant":
            if len(tokens) != 2:
                reader.fail("variant: expected one value", ln)
            try:
                variant = ModelVariant(tokens[1])
            except ValueError:
                reader.fail(f"unknown variant {tokens[1]!r}", ln)
        elif key == "name":
            name = " ".join(tokens[1:])
        elif key == "settings":
            if len(tokens) < 3 or tokens[1] not in ("A", "B"):
                reader.fail("settings: expected 'settings A|B label...'", ln)
            settings[tokens[1]] = tuple(_decode_label(t) for t in tokens[2:])
        elif key == "begin":
            section = tokens[1] if len(tokens) > 1 else ""
            if section == "source":
                rows = _read_block(reader, 3, "source")
                atoms = [(_decode_label(a), _decode_label(b)) for _, (a, b, _p) in rows]
                probs = [_parse_prob(reader, p, ln2) for ln2, (_a, _b, p) in rows]
                source = DiscreteDistribution(atoms, probs)
            elif section == "instruments":
                if len(tokens) != 4 or tokens[2] not in ("A", "B"):
                    reader.fail("expected 'begin instruments A|B setting'", ln)
                rows = _read_block(reader, 2, "instruments")
                atoms = [_decode_label(a) for _, (a, _p) in rows]
                probs = [_parse_prob(reader, p, ln2) for ln2, (_a, p) in rows]
                instruments[tokens[2]][_decode_label(tokens[3])] = DiscreteDistribution(atoms, probs)
            elif section == "joint-instruments":
                if len(tokens) != 4:
                    reader.fail("expected 'begin joint-instruments x y'", ln)
                rows = _read_block(reader, 3, "joint-instruments")
                atoms = [(_decode_label(a), _decode_label(b)) for _, (a, b, _p) in rows]
                probs = [_parse_prob(reader, p, ln2) for ln2, (_a, _b, p) in rows]
                pair = (_decode_label(tokens[2]), _decode_label(tokens[3]))
                joints[pair] = DiscreteDistribution(atoms, probs)
            elif section == "responses":
                if len(tokens) != 4 or tokens[2] not in ("A", "B"):
                    reader.fail("expected 'begin responses A|B setting'", ln)
                rows = _read_block(reader, 3, "responses")
                mapping = {}
                for ln2, (sv, iv, out) in rows:
                    try:
                        outcome = int(out)
                    except ValueError:
                        reader.fail(f"bad outcome {out!r}", ln2)
                    mapping[(_decode_label(sv), _decode_label(iv))] = outcome
                responses[tokens[2]][_decode_label(tokens[3])] = ResponseTable(mapping)
            elif section == "angles":
                if len(tokens) != 3 or tokens[2] not in ("A", "B"):
                    reader.fail("expected 'begin angles A|B'", ln)
                rows = _read_block(reader, 2, "angles")
                for ln2, (setting, value) in rows:
                    try:
                        angles[tokens[2]][_decode_label(setting)] = float(value)
                    except ValueError:
                        reader.fail(f"bad angle {value!r}", ln2)
            else:
                reader.fail(f"unknown section {section!r}", ln)
        else:
            reader.fail(f"unknown directive {key!r}", ln)

    if variant is None:
        reader.fail("missing 'variant' line")
    if "A" not in settings or "B" not in settings:
        reader.fail("missing 'settings A' or 'settings B' line")

    if variant is ModelVariant.QUANTUM:
        return ExperimentModel.quantum_model(settings["A"], settings["B"],
                                             angles["A"], angles["B"], name=name)
    if source is None:
        reader.fail("missing source block")
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
