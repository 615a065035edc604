"""Exact money arithmetic in integer cents.

Step-function thresholds make float comparisons hazardous, so every amount
on the contribution grid is an integer count of cents.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

_DECIMAL_RE = re.compile(r"^(-?)(\d+)(?:\.(\d{1,2}))?$")


@dataclass(frozen=True, order=True)
class Money:
    """An exact amount of money, stored as cents."""

    cents: int

    def __post_init__(self) -> None:
        if not isinstance(self.cents, int):
            raise TypeError(f"cents must be int, got {type(self.cents).__name__}")

    @classmethod
    def from_euros(cls, euros: int) -> Money:
        return cls(euros * 100)

    @classmethod
    def parse(cls, text: str) -> Money:
        """Parse a decimal string such as '5', '5.0' or '2.50' losslessly."""
        m = _DECIMAL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a money amount: {text!r}")
        sign, whole, frac = m.groups()
        cents = int(whole) * 100 + int((frac or "").ljust(2, "0") or 0)
        return cls(-cents if sign else cents)

    @property
    def euros(self) -> float:
        return self.cents / 100.0

    def __add__(self, other: Money) -> Money:
        return Money(self.cents + other.cents)

    def __sub__(self, other: Money) -> Money:
        return Money(self.cents - other.cents)

    def __mul__(self, k: int) -> Money:
        if not isinstance(k, int):
            return NotImplemented
        return Money(self.cents * k)

    __rmul__ = __mul__

    def __floordiv__(self, step: Money) -> int:
        return self.cents // step.cents

    def is_multiple_of(self, step: Money) -> bool:
        return step.cents > 0 and self.cents % step.cents == 0

    def __str__(self) -> str:
        sign = "-" if self.cents < 0 else ""
        c = abs(self.cents)
        return f"{sign}{c // 100}.{c % 100:02d}"

    def compact(self) -> str:
        """Render without trailing zeros: '5' rather than '5.00'."""
        if self.cents % 100 == 0:
            return str(self.cents // 100)
        return str(self)
