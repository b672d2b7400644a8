"""The feature catalog and the feature matrix: one row per document part,
one column per catalog feature, read and written as CSV.

This layer needs only ``corpus``, so the subcommands that read a matrix
(``analyze``, ``classify``, ``report``) start without the text stack that
``features`` extraction loads.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from array import array
from collections.abc import Sequence
from pathlib import Path

from . import InputError, Record
from .corpus import LABELS

COMPLEXITY_FEATURES = (
    "GI", "SMOG", "FK", "med_depth", "med_np_depth", "med_vp_depth",
    "flu_coca_c", "flu_coca_d", "TTR", "avg_wlen",
)
POS_FEATURES = (
    "NN", "NNP", "PRP", "PRP$", "WP", "DT", "WDT", "CD", "RB", "UH",
    "VB", "JJ", "VBD", "VBG", "VBN", "VBP", "VBZ",
)
STYLISTIC_CATEGORY_FEATURES = (
    "focuspast", "focusfuture", "i", "we", "you", "shehe", "quant",
    "compare", "negate", "swear", "netspeak", "interrog",
)
PSYCH_CATEGORY_FEATURES = (
    "analytic", "insight", "cause", "discrep", "tentat", "certain",
    "differ", "affil", "power", "reward", "risk", "personal", "tone",
    "affect",
)
CATALOG = (
    COMPLEXITY_FEATURES
    + ("WC", "WPS")
    + POS_FEATURES
    + STYLISTIC_CATEGORY_FEATURES
    + ("exclaim", "all_caps", "per_stop", "allPunc", "quotes", "#vps")
    + PSYCH_CATEGORY_FEATURES
    + ("str_neg", "str_pos")
)

class MatrixFormatError(ValueError, InputError):
    pass


class FeatureMatrix(Record):
    __slots__ = _fields = ("feature_names", "doc_ids", "labels", "part", "rows", "line_numbers")

    def __init__(self, feature_names: tuple[str, ...], doc_ids: tuple[str, ...],
                 labels: tuple[str, ...], part: str, rows: list[list[float | None]],
                 line_numbers: Sequence[int] = ()):
        self.feature_names = feature_names
        self.doc_ids = doc_ids
        self.labels = labels
        self.part = part
        self.rows = rows  # a list; write_matrix also takes an iterator of rows
        # the line each row's record ends on in the file it was read from (a
        # quoted doc_id may span lines), 8 bytes a row; empty for a matrix
        # that was not read
        self.line_numbers = line_numbers

    def column(self, feature: str) -> list[float | None]:
        try:
            j = self.feature_names.index(feature)
        except ValueError:
            raise MatrixFormatError(f"unknown feature {feature!r}") from None
        return [row[j] for row in self.rows]

    def group_column(self, feature: str, label: str) -> list[float | None]:
        col = self.column(feature)
        return [v for v, l in zip(col, self.labels) if l == label]


def _format_value(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "NA"
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def write_matrix(matrix: FeatureMatrix, path: str | Path) -> int:
    """CSV with header doc_id,label,part,<features>; NA marks undefined.
    Returns the number of rows written.

    Each row of ``matrix.rows`` is read once, in step with its doc_id and
    label, so ``rows`` may be an iterator that makes each row as it is
    asked for: no earlier row is held while one is written. The rows go to
    a new file beside ``path``, which replaces ``path`` once the last row
    is written: an error in making or writing a row leaves ``path`` as it
    was, and no new file. Counts repeat across rows, so each distinct
    integral value is formatted once per call; other values, NaN and None
    are formatted per cell.
    """
    integral: dict[float, str] = {}

    def text(v: float | None) -> str:
        s = _format_value(v)
        if type(v) is float and v.is_integer():
            integral[v] = s
        return s

    path = Path(path)
    # a name no other process writes; a file left by a killed run of this
    # process id is overwritten
    new = path.parent / f".{path.name}.{os.getpid()}.tmp"
    n = 0
    try:
        with open(new, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["doc_id", "label", "part", *matrix.feature_names])
            for doc_id, label, row in zip(matrix.doc_ids, matrix.labels, matrix.rows):
                writer.writerow([doc_id, label, matrix.part,
                                 *[integral.get(v) or text(v) for v in row]])
                n += 1
        os.replace(new, path)
    except BaseException:
        new.unlink(missing_ok=True)
        raise
    return n


def _lines(text: str):
    """The lines of a ``decode``d text, each with its ``\\n``: the lines a
    file opened with newline="" gives, since ``decode`` leaves no other
    break. ``str.splitlines`` would also break at the ``\\x85``, ``\\x0c``
    and U+2028 that a quoted doc_id may hold."""
    start = 0
    end = text.find("\n") + 1
    while end:
        yield text[start:end]
        start, end = end, text.find("\n", end) + 1
    if start < len(text):
        yield text[start:]


def _records(reader, path):
    """The reader's records; a CSV-level error is a ``MatrixFormatError``
    on the line where the reader stopped."""
    try:
        yield from reader
    except csv.Error as e:
        raise MatrixFormatError(f"{path}:{reader.line_num}: {e}") from None


def read_matrix(path: str | Path) -> FeatureMatrix:
    """The matrix of a CSV in ``write_matrix``'s format. The reader holds
    one line of the decoded text at a time, and every cell with the same
    text and no point, such as a count, shares one float."""
    reader = csv.reader(_lines(MatrixFormatError.read_text(path)))
    records = _records(reader, path)
    try:
        header = next(records)
    except StopIteration:
        raise MatrixFormatError(f"{path}: empty file") from None
    if header[:3] != ["doc_id", "label", "part"]:
        raise MatrixFormatError(f"{path}: bad header {header[:3]}")
    names = tuple(header[3:])
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        raise MatrixFormatError(f"{path}: unknown feature column(s) {unknown}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise MatrixFormatError(f"{path}:1: repeated feature column(s) {repeated}")
    ids, labels, rows = [], [], []
    line_numbers = array("L")
    first_line: dict[str, int] = {}  # doc_id -> line it was first seen on
    part = ""
    # each text without a point (NA, and counts) is parsed once and its value
    # shared; a text with a point is parsed per cell, so the memo holds
    # counts, not every distinct value
    shared: dict[str, float | None] = {"NA": None}
    get, keep = shared.get, shared.setdefault
    for rec in records:
        lineno = reader.line_num  # a record's last line: a quoted doc_id may span lines
        if len(rec) != len(names) + 3:
            raise MatrixFormatError(f"{path}:{lineno}: ragged row")
        first = first_line.setdefault(rec[0], lineno)
        if first != lineno:
            raise MatrixFormatError(
                f"{path}:{lineno}: duplicate doc_id {rec[0]!r} (first on line {first})"
            )
        if rec[1] not in LABELS:
            raise MatrixFormatError(f"{path}:{lineno}: label {rec[1]!r} not in {LABELS}")
        if rec[2] not in ("title", "body"):
            raise MatrixFormatError(f"{path}:{lineno}: part {rec[2]!r} is not title or body")
        part = part or rec[2]
        if rec[2] != part:
            raise MatrixFormatError(
                f"{path}:{lineno}: part {rec[2]!r} differs from the first row's {part!r}"
            )
        known = len(shared)
        try:
            row = [float(v) if "." in v else x if (x := get(v, v)) is not v
                   else keep(v, float(v)) for v in rec[3:]]
        except ValueError as e:
            raise MatrixFormatError(f"{path}:{lineno}: {e}") from None
        # float() reads nan only from a text without a point, and the memo
        # parses each such text once, so a row can hold nan only when the
        # memo grew on it
        if len(shared) > known:
            nan = [n for n, v in zip(names, row) if v != v]
            if nan:
                raise MatrixFormatError(
                    f"{path}:{lineno}: nan in {nan}; an undefined value is NA")
        ids.append(rec[0])
        labels.append(sys.intern(rec[1]))  # one str per label, as for counts
        rows.append(row)
        line_numbers.append(lineno)
    if not rows:
        raise MatrixFormatError(f"{path}: no rows after the header")
    return FeatureMatrix(
        feature_names=names, doc_ids=tuple(ids), labels=tuple(labels),
        part=part, rows=rows, line_numbers=line_numbers,
    )
