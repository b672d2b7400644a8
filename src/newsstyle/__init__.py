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


def float_mean(xs: list[float]) -> float:
    """The exactly rounded sum over len(xs). A sum of finite values past
    the float range is taken again over the values scaled by 2**-k, with
    2**k > len(xs); scaling by a power of two is exact, so the mean has
    the bits it would have if the sum had not overflowed."""
    n = len(xs)
    total = float_sum(xs)
    if math.isinf(total) and all(map(math.isfinite, xs)):
        k = n.bit_length()
        return math.ldexp(float_sum([math.ldexp(x, -k) for x in xs]) / n, k)
    return total / n


def decode(data: bytes) -> str:
    """The text of an input file's bytes: UTF-8 after an optional
    byte-order mark, which is dropped, with ``\\r\\n`` and ``\\r`` read as
    ``\\n``, as ``open`` in text mode reads them. The bytes are decoded
    whole: the streaming decoder would read a lone partial mark as an
    empty file. Bytes that are not UTF-8 raise ``UnicodeDecodeError``,
    whose ``object`` is the bytes after the mark."""
    text = data.decode("utf-8-sig")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


class InputError(Exception):
    """Common base of the errors that bad input raises: a corpus, matrix,
    lexicon or tagger file, or a command-line value. ``newsstyle.cli``
    reports each with exit 1 and never needs to import the layer that
    defines it."""

    @classmethod
    def read_text(cls, path) -> str:
        """The ``decode``d text of a file; bytes that are not UTF-8 raise
        this class as ``path: not UTF-8 (line N: reason)``, with N counted
        by ``str.splitlines``, as ``entries`` numbers its lines."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            return decode(data)
        except UnicodeDecodeError as e:
            # the bytes before the first bad one are valid UTF-8
            line = len((e.object[:e.start].decode() + "\0").splitlines())
            raise cls(f"{path}: not UTF-8 (line {line}: {e.reason})") from None

    @classmethod
    def entries(cls, path):
        """(line number, entry) for each entry of a line-format file: a
        line's text before any ``#``, stripped of surrounding whitespace.
        Lines that leave nothing are skipped."""
        for lineno, raw in enumerate(cls.read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line
