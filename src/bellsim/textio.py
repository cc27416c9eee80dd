"""The line rule shared by every text input: model, config, joint-spec,
time-tag and coincidence files.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and errors number them that way;
``#`` starts a comment.  Files are ASCII; any other byte is a ParseError
naming its line.  Labels and atoms are integers when they parse as one,
else strings.

The label rules of every file live here too: ``_label_order`` is the one
canonical order of setting labels, and ``_label_text`` the one text a
writer puts down for a label, refused unless it reads back as that label.
"""

from __future__ import annotations

import numbers
from pathlib import Path

from .errors import BellsimError, ParseError


def _split(text: str) -> list[str]:
    """The lines of ``text``, which end at ``\\n``, ``\\r\\n`` or ``\\r``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _contents(numbered):
    """``(line_number, content)`` for each ``(line_number, line)`` of
    ``numbered`` that is not blank once its ``#`` comment is cut off; content
    is stripped of surrounding whitespace."""
    for line_number, raw in numbered:
        content = raw.split("#", 1)[0].strip()
        if content:
            yield line_number, content


def _lines(text: str):
    """``(line_number, content)`` for each line of ``text`` that is not blank
    once its ``#`` comment is cut off, as ``_contents`` gives them."""
    return _contents(enumerate(_split(text), start=1))


def _line_number(before: str) -> int:
    """The line of the character that follows the text ``before``, counted
    as ``_lines`` counts them."""
    return len(_split(before))


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


def _label_order(labels) -> tuple:
    """The distinct labels of ``labels`` in canonical order: ints
    numerically, then strings, then any other label by its ``repr``; None
    is left out."""
    return tuple(sorted((v for v in dict.fromkeys(labels) if v is not None),
                        key=lambda v: (0, v) if isinstance(v, numbers.Integral)
                        else (1, v) if isinstance(v, str) else (2, repr(v))))


def _label_text(label, kind: str) -> str:
    """The text written for ``label`` in a ``kind`` file (model, time-tag or
    CSV): its ``str``, when that is ASCII, not empty and read back by
    ``_decode_label`` as ``label`` itself (``'1'`` reads back as ``1``),
    and, outside CSV, which quotes, holds no whitespace and no ``#``.  Any
    other label is a BellsimError."""
    text = str(label)
    if (not text or not text.isascii() or _decode_label(text) != label
            or kind != "CSV" and any(c.isspace() or c == "#" for c in text)):
        raise BellsimError(f"label {label!r} would not read back from a {kind} file")
    return text
