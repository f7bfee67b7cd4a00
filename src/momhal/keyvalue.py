"""The ``key = value`` document format shared by training configs, dataset
metadata (``dataset.cfg``) and fusion specs."""

from __future__ import annotations

from typing import Callable, Iterable

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_key_values(text: str, origin: str, apply: Callable[[str, str], None]) -> None:
    """Call ``apply(key, value)`` for each ``key = value`` line in order,
    skipping blank lines and ``#`` comments.  A line without ``=``, or a
    ValueError raised by ``apply``, is reported as ``origin: line N: ...``."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        try:
            if not sep:
                raise ValueError("expected 'key = value'")
            apply(key.strip(), value.strip())
        except ValueError as exc:
            raise ValueError(f"{origin}: line {lineno}: {exc}") from None


def parse_bool(value: str) -> bool:
    """``1/true/yes`` or ``0/false/no``, in any case; anything else is an error."""
    try:
        return _BOOLS[value.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean (true/false), got {value!r}") from None


def format_key_values(pairs: Iterable[tuple[str, object]]) -> str:
    """One ``key = value`` line per pair, in order."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)
