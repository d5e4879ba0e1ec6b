"""Structured residual reports shared by every checker.

A checker never returns a bare boolean: it reports the list of
``(arity, word, value)`` triples where the identity under test failed, so
failures are diagnosable and reports can be frozen in golden files.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graded import GradedSpace


class InputError(Exception):
    """Malformed input: bad file, bad degrees, unmet precondition."""


class RouteDisagreement(Exception):
    """Two independent evaluation routes disagreed; a kernel bug."""


def frac_str(c: Fraction) -> str:
    if type(c) is int:  # not a bool, which takes the Fraction path
        return f"{c}/1"
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def format_vector(space: GradedSpace, vec: dict[int, Fraction]) -> str:
    if not vec:
        return "0"
    return " + ".join(f"({frac_str(vec[i])})*{space.symbols[i]}" for i in sorted(vec))


@dataclass(frozen=True, order=True)
class Residual:
    arity: int
    word: str
    value: str


@dataclass(frozen=True)
class CheckReport:
    check: str
    bound: int
    residuals: tuple[Residual, ...]

    @property
    def ok(self) -> bool:
        return not self.residuals

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def make_report(check: str, bound: int, items) -> CheckReport:
    return CheckReport(check, bound, tuple(sorted(items)))
