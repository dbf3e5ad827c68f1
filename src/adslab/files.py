"""The experiment directory's files: how they are written, and what they can hold.

Two rules. Every file the library writes into an experiment is replaced
whole (``write_atomic``; a write that raises leaves no temp file); the one
exception is ``records.jsonl``, which ``clrun.append_records`` appends to.
And ``experiment.ini`` and parameter profiles share one INI codec
(``read_ini``/``write_ini``) that reads each value by its field's
annotation, while ``check_fields`` refuses, when a config or profile is
built, every value that codec would not read back equal.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import numbers
import os
import typing

import numpy as np


def write_atomic(path, write, mode: str = "w") -> None:
    """Replace ``path`` whole or not at all: ``write(fh)`` fills a temp file beside
    it, which is fsynced and then renamed over ``path``. A write that raises removes
    the temp file; one a killed process leaves is replaced by the next write."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def format_value(x) -> str:
    """A CSV cell or an INI value as text; floats in full precision, tuples comma-joined."""
    if isinstance(x, tuple):
        return ",".join(map(format_value, x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def parse_value(section: str, key: str, tp, text: str):
    """INI text to a value of the annotated field type (int, float, str or a tuple of
    one); an empty text is the empty tuple, and an empty item of a tuple is refused."""
    try:
        if typing.get_origin(tp) is tuple:
            item = typing.get_args(tp)[0]  # tuple[int, ...] or tuple[float, ...]
            items = text.replace(" ", "").split(",") if text.strip() else []
            if "" in items:
                raise ValueError(f"empty item in {text!r}")
            return tuple(map(item, items))
        return tp(text)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from None


def parse_section(section: str, items: dict, keys: dict, hints: dict) -> dict:
    """Field values of one INI section; a key or section not in ``keys`` is refused."""
    names = {key: name for name, (sec, key) in keys.items() if sec == section}
    for key in items:
        if key not in names:
            raise ValueError(f"unknown key {key!r} in section [{section}]")
    if not names:
        raise ValueError(f"unknown section [{section}]")
    return {names[key]: parse_value(section, key, hints[names[key]], text)
            for key, text in items.items()}


def read_ini(path, parse):
    """``parse({section: {key: text}})`` of the INI file at ``path``, read literally
    (no %-interpolation); a bad file or value raises ValueError naming the file."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            cp.read_file(fh)
            return parse({section: dict(cp[section]) for section in cp.sections()})
        except (configparser.Error, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_ini(path, sections: dict) -> None:
    """Replace ``path`` atomically with ``{section: {key: value}}`` as INI text."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({section: {key: format_value(v) for key, v in items.items()}
                  for section, items in sections.items()})
    write_atomic(path, cp.write)


@functools.cache
def field_types(cls) -> dict:
    """The resolved field annotations of a dataclass, which ``parse_value`` reads by."""
    return typing.get_type_hints(cls)


def check_fields(obj) -> None:
    """Refuse, naming the field, a value of the dataclass ``obj`` that the INI codec
    would not read back equal: a bool or a non-integer in an int field, a bool, a
    non-number or an int with no exact float (``10**23``, ``2**53 + 1``) in a float
    field, or text with surrounding whitespace or a line break, which configparser
    strips or splits. Each ``tuple[...]`` field is stored as a tuple."""
    for name, tp in field_types(type(obj)).items():
        values = (getattr(obj, name),)
        if typing.get_origin(tp) is tuple:
            values = tuple(values[0])
            object.__setattr__(obj, name, values)
            tp = typing.get_args(tp)[0]
        for v in values:
            if tp is str and not (isinstance(v, str) and v == v.strip()
                                  and "\n" not in v and "\r" not in v):
                raise ValueError(f"{name} takes text without surrounding whitespace or a "
                                 f"line break, got {v!r}")
            if tp in (int, float) and (isinstance(v, bool) or not isinstance(
                    v, numbers.Integral if tp is int else numbers.Real)):
                raise ValueError(f"{name} takes {tp.__name__} values, got {v!r}")
            if tp is float and isinstance(v, numbers.Integral) and not _exact_float(int(v)):
                raise ValueError(f"{name} takes float values, and the int {v!r} has no exact float")


def _exact_float(n: int) -> bool:
    """Whether float(n) is n, compared as Python ints; an int past the float range is not."""
    try:
        return float(n) == n
    except OverflowError:
        return False
