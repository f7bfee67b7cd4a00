"""The one line reader of every text input, and the ``key = value`` format
of training configs, dataset metadata (``dataset.cfg``) and fusion specs.
A config dataclass is the only list of its document's keys: its fields."""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from typing import Callable, Iterable


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
    """{key: parsers[key](value)} of the ``key = value`` file at ``path``,
    streamed; an unknown or repeated key is refused at its line."""
    values = {}

    def setting(key: str, value: str) -> None:
        if key not in parsers:
            raise ValueError(f"unknown key {key!r}")
        if key in values:
            raise ValueError(f"repeated key {key!r}")
        values[key] = parsers[key](value)

    with open(path, "rb") as fp:
        read_lines(fp, str(path), partial(_key_value, setting))
    return values


def format_key_values(pairs: Iterable[tuple[str, object]]) -> str:
    """One ``key = value`` line per pair, in order."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)


# The parser of a config field by the type of its default; a tuple of names
# is written as a comma list.
_PARSERS = {int: int, float: float,
            tuple: lambda value: tuple(name for name in value.split(",") if name)}


def _checked(cls, name: str, parse: Callable[[str], object], text: str) -> object:
    value = parse(text)
    cls(**{name: value})
    return value


def config_parsers(cls) -> dict[str, Callable[[str], object]]:
    """{field: parser} for each field of config dataclass ``cls``.  A
    parser reads the text as the default's type, then makes the checks that
    ``cls`` makes of that field with the others at their defaults, so that a
    document refuses a bad value at its own line."""
    return {f.name: partial(_checked, cls, f.name, _PARSERS[type(f.default)])
            for f in fields(cls)}


def config_pairs(cfg) -> list[tuple[str, object]]:
    """(field, value) for each field of ``cfg``, in field order, as
    ``config_parsers`` reads them back."""
    pairs = ((key, getattr(cfg, key)) for key in config_parsers(type(cfg)))
    return [(key, ",".join(value) if isinstance(value, tuple) else value) for key, value in pairs]
