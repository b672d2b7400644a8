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


def float_quotient(xs: list[float], divisor: int) -> float:
    """The exactly rounded sum of ``xs`` over ``divisor``. A sum of finite
    values past the float range is taken again over the values scaled by
    2**-k, with 2**k > len(xs); scaling by a power of two is exact, so the
    quotient has the bits it would have if the sum had not overflowed."""
    total = float_sum(xs)
    if math.isinf(total) and all(map(math.isfinite, xs)):
        k = len(xs).bit_length()
        return math.ldexp(float_sum([math.ldexp(x, -k) for x in xs]) / divisor, k)
    return total / divisor


def float_mean(xs: list[float]) -> float:
    """``float_quotient`` of xs over len(xs)."""
    return float_quotient(xs, len(xs))


def decode(data: bytes) -> str:
    """The text of an input file's bytes: UTF-8 after an optional
    byte-order mark, which is dropped, with ``\\r\\n`` and ``\\r`` read as
    ``\\n``, as ``open`` in text mode reads them. The bytes are decoded
    whole: the streaming decoder would read a lone partial mark as an
    empty file. Bytes that are not UTF-8 raise ``UnicodeDecodeError``,
    whose ``object`` is the bytes after the mark.

    The mark is dropped as the ``utf-8-sig`` codec drops it, and the rest
    goes to ``bytes.decode("utf-8")``, one C call, where the codec would
    first run its own Python function."""
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


class Record:
    """Base of the package's record classes. They are plain classes, so a
    module that defines some generates no code when it loads. A subclass
    lists its attributes in ``__slots__`` and writes its own ``__init__``.
    ``_fields`` names the attributes that make up its value: ``==``
    compares them between records of one class, and ``repr`` shows those
    whose names do not start with ``_``. A mutable value is unhashable,
    so a record is too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        shown = [f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_"]
        return f"{self.__class__.__qualname__}({', '.join(shown)})"


class FrozenRecord(Record):
    """A record that is a value: ``__init__`` sets each attribute once,
    and nothing can assign or delete one afterwards. It hashes as the
    tuple of its ``_fields``' values. ``__init__`` sets them through
    ``object.__setattr__`` or, in a class made per token, sentence or
    document, through its ``slot_setters``, which cost less."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    # for copy and pickle, whose default restores each slot through __setattr__
    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def slot_setters(cls: type) -> list:
    """The setters of ``cls``'s slots, in ``__slots__`` order. They store a
    value without the attribute lookup and the check that
    ``object.__setattr__`` makes, and a frozen record's ``__setattr__``
    does not stop them."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class InputError(Exception):
    """Common base of the errors that bad input raises: a corpus, matrix,
    lexicon or tagger file, a command-line value, or rows that
    cross-validation cannot split. ``newsstyle.cli``
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
