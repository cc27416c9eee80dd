"""The line rule shared by every text input: model, config, joint-spec,
time-tag and coincidence files.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and errors number them that way;
``#`` starts a comment.  Files are ASCII; any other byte is a ParseError
naming its line.  Labels and atoms are integers when they parse as one,
else strings.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError


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
