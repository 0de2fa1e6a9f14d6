"""Shared exception types."""

from __future__ import annotations


class DrainVortexError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(DrainVortexError, ValueError):
    """Invalid parameter or configuration values.

    Carries the full list of violations so callers see every problem at
    once, not just the first.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def shown(value) -> str:
    """`repr(value)` for a ConfigError entry, except that an integer too long
    for Python to print (over 4,300 digits by default) shows as its bit count,
    and a value holding one says so."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


class IncompleteGridError(DrainVortexError, RuntimeError):
    """An experiment grid is missing (algorithm, case) cells.

    `missing` lists the gaps as (algorithm, problem, dim) tuples.
    """

    def __init__(self, missing):
        self.missing = sorted(missing)
        gaps = ", ".join(f"{a}/{p}/D{d}" for a, p, d in self.missing)
        super().__init__(f"incomplete result grid, missing cells: {gaps}")
