"""Tiny ``key = value`` document parser shared by parameter and scenario files.

Lines are UTF-8 text; blank lines and ``#`` comments are ignored.  Each
remaining line must be ``key = value``.  Errors always name the offending
key and line number so CLI users can fix files without guesswork.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO


class DocumentError(ValueError):
    """A structured text document violates its schema."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)


def check_value(name: str, value: str) -> None:
    """Raise ValueError unless :func:`read_kv` would read ``value`` back as is."""
    if not value or "#" in value or value != value.strip() or len(value.splitlines()) > 1:
        raise ValueError(
            f"{name} must be a non-empty line without '#' or surrounding whitespace, got {value!r}"
        )


def read_kv(source: str | Path | IO[str]) -> dict[str, tuple[str, int]]:
    """Parse a document into ``{key: (raw_value, line_number)}``.

    A ``str`` is always the document text itself.  A file is passed as a
    :class:`~pathlib.Path` or as an open text file, so a file name given
    as a ``str`` is parsed as text and fails with :class:`DocumentError`.
    A file whose bytes do not decode fails with :class:`DocumentError`
    naming the byte offset and line of the first undecodable byte.  One
    leading byte-order mark, as some editors save UTF-8, is dropped.
    """
    try:
        if isinstance(source, str):
            text = source
        elif isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(
            f"not {exc.encoding} text at byte offset {exc.start}: {exc.reason}",
            line=exc.object.count(b"\n", 0, exc.start) + 1,
        ) from None

    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DocumentError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise DocumentError("missing key before '='", line=lineno)
        if key in entries:
            raise DocumentError("duplicate key", key=key, line=lineno)
        entries[key] = (value, lineno)
    return entries
