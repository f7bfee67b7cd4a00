"""The one line reader of every text input, and the ``key = value`` format
of training configs, dataset metadata (``dataset.cfg``) and fusion specs."""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_lines(lines: Iterable[bytes], origin: str, apply: Callable[[str], None]) -> None:
    """``apply(line)`` for each line that is not blank, in order, decoded as
    UTF-8 one line at a time and stripped.  A bad byte, or a ValueError,
    KeyError, TypeError or OverflowError from ``apply``, is refused as
    ``origin: line N: ...``."""
    for lineno, raw in enumerate(lines, start=1):
        try:
            if line := raw.decode("utf-8").strip():
                apply(line)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"{origin}: line {lineno}: {exc}") from None


def _key_value(apply: Callable[[str, str], None], line: str) -> None:
    if line.startswith("#"):
        return
    key, sep, value = line.partition("=")
    if not sep:
        raise ValueError("expected 'key = value'")
    apply(key.strip(), value.strip())


def parse_key_values(text: str, origin: str, apply: Callable[[str, str], None]) -> None:
    """``apply(key, value)`` for each ``key = value`` line of ``text``; ``#`` starts a comment."""
    read_lines(text.encode().split(b"\n"), origin, partial(_key_value, apply))


def read_key_values(path, parsers: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """{key: parsers[key](value)} of the ``key = value`` file at ``path``, streamed."""
    values = {}

    def setting(key: str, value: str) -> None:
        if key not in parsers:
            raise ValueError(f"unknown key {key!r}")
        values[key] = parsers[key](value)

    with open(path, "rb") as fp:
        read_lines(fp, str(path), partial(_key_value, setting))
    return values


def field_parser(cls, name: str, parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse``, then the checks that config class ``cls`` makes of field
    ``name`` with the other fields at their defaults, so that a document
    refuses a bad value at its own line."""

    def value(text: str) -> object:
        result = parse(text)
        cls(**{name: result})
        return result

    return value


def parse_bool(value: str) -> bool:
    """``1/true/yes`` or ``0/false/no``, in any case; anything else is an error."""
    try:
        return _BOOLS[value.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean (true/false), got {value!r}") from None


def format_key_values(pairs: Iterable[tuple[str, object]]) -> str:
    """One ``key = value`` line per pair, in order."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)
