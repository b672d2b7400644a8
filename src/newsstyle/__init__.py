"""Stylometric toolkit for comparing fake, real, and satire news articles.

Pipeline: load a labeled corpus, extract the complexity / psychology /
stylistic feature catalog per title and body, compare groups with a
normality-gated ANOVA / rank-sum protocol, and cross-validate a linear
SVM on the top-ranked features.
"""

import math
import operator
from functools import reduce

__version__ = "0.1.0"


def float_sum(values: list[float]) -> float:
    """The correctly rounded sum (``math.fsum``): the same bits in any
    order and on every Python version, where builtin ``sum`` of floats
    became compensated in 3.12. Where fsum raises, on an inf with a -inf
    or a total past the float range, the left-to-right float sum (nan or
    +-inf)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return reduce(operator.add, values, 0.0)


class InputError(Exception):
    """Common base of the errors that bad input raises: a corpus, matrix,
    lexicon or tagger file, or a command-line value. ``newsstyle.cli``
    reports each with exit 1 and never needs to import the layer that
    defines it."""

    @classmethod
    def read_text(cls, path) -> str:
        """The text of a UTF-8 file; bytes that are not UTF-8 raise this
        class as ``path: not UTF-8 (line N: reason)``."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = data.count(b"\n", 0, e.start) + 1
            raise cls(f"{path}: not UTF-8 (line {line}: {e.reason})") from None
