"""Stylometric toolkit for comparing fake, real, and satire news articles.

Pipeline: load a labeled corpus, extract the complexity / psychology /
stylistic feature catalog per title and body, compare groups with a
normality-gated ANOVA / rank-sum protocol, and cross-validate a linear
SVM on the top-ranked features.
"""

__version__ = "0.1.0"


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
