"""Dictionary resources: word categories, frequency tables, sentiment.

The shipped files are open substitutes for the proprietary resources the
study area typically relies on; the file formats are what matter. Holders
of licensed dictionaries can convert them to these formats and drop them
in.

Category lexicon format::

    %negate
    no
    not
    never
    damn*        # trailing * matches any continuation

Frequency table: TSV ``word<TAB>freq_per_million``.
Sentiment lexicon: TSV ``term<TAB>strength`` with ``%boosters`` and
``%negators`` blocks.
Stop list: one word per line.

Every file is read by ``InputError.entries``: UTF-8 after an optional
byte-order mark, text after ``#`` a comment, blank lines skipped.
"""

from __future__ import annotations

import math
from itertools import repeat
from pathlib import Path

from . import InputError, Record, float_mean
from .textseg import WORD, Sentence, Token

_RESOURCE_DIR = Path(__file__).parent / "resources"


class LexiconFormatError(ValueError, InputError):
    """Raised for malformed lexicon files."""


def _stem_values(word: str, values: dict, prefixes: frozenset[str]) -> list:
    """The values of the stems in ``values`` that prefix ``word``, shortest
    first; ``prefixes`` holds every non-empty prefix of those stems."""
    found = []
    for end in range(1, len(word) + 1):
        prefix = word[:end]
        if prefix not in prefixes:
            break  # no stem starts with it, so none starts with a longer prefix
        if prefix in values:
            found.append(values[prefix])
    return found


class CategoryLexicon(Record):
    __slots__ = ("exact", "stems", "_names", "_exact_cats", "_stem_cats", "_stem_prefixes",
                 "_pairs")
    # _pairs is filled by use, so it is not part of the lexicon's value
    _fields = __slots__[:-1]

    def __init__(self, exact: dict[str, dict[str, None]], stems: dict[str, list[str]]):
        self.exact = exact
        self.stems = stems
        # compiled here: the category names, word or stem -> indices of its
        # categories, and every non-empty prefix of every stem
        self._names = tuple(exact)
        self._exact_cats: dict[str, list[int]] = {}
        self._stem_cats: dict[str, list[int]] = {}
        for i, cat in enumerate(exact):
            for word in exact[cat]:
                self._exact_cats.setdefault(word, []).append(i)
            for stem in stems[cat]:
                self._stem_cats.setdefault(stem, []).append(i)
        self._stem_prefixes = frozenset(
            s[:end] for s in self._stem_cats for end in range(1, len(s) + 1))
        # hits -> the one (self, hits) pair that every record with them holds
        self._pairs = {}

    def _hit_indices(self, tok: Token) -> tuple[int, ...]:
        """Category indices of a word token's lowercase form, ascending:
        those of its exact entry plus those of every prefix that is a
        wildcard stem. Stored on the token's record with this lexicon, as
        the pair that every record with the same hits shares.

        A word that no stem prefixes, such as a word the lexicon does not
        list, has its exact entry's indices as they stand: they were
        appended in category order, each once, so they are already the
        ascending, unique tuple that merging and sorting would give."""
        word = tok.lower
        exact = self._exact_cats.get(word, ())
        stem_hits = _stem_values(word, self._stem_cats, self._stem_prefixes)
        if stem_hits:
            found = tuple(sorted(set(exact).union(*stem_hits)))
        else:
            found = tuple(exact)
        pair = self._pairs.get(found)
        if pair is None:
            pair = self._pairs[found] = (self, found)
        object.__setattr__(tok, "categories", pair)
        return pair[1]


def load_category_lexicon(path: str | Path | None = None) -> CategoryLexicon:
    """Parse a %-block category file into exact entries and wildcard stems."""
    path = Path(path) if path else _RESOURCE_DIR / "categories.dic"
    exact: dict[str, dict[str, None]] = {}
    stems: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, line in LexiconFormatError.entries(path):
        if line.startswith("%"):
            name = line[1:].strip()
            if not name:
                raise LexiconFormatError(f"{path}:{lineno}: empty category name")
            if name in exact:
                raise LexiconFormatError(f"{path}:{lineno}: duplicate category {name!r}")
            exact[name] = {}
            stems[name] = []
            current = name
            continue
        if current is None:
            raise LexiconFormatError(f"{path}:{lineno}: entry before any %category header")
        entry = line.lower()
        if "*" in entry[:-1] or entry == "*":
            raise LexiconFormatError(
                f"{path}:{lineno}: wildcard only allowed as trailing *: {line!r}")
        if entry.endswith("*"):
            stem = entry[:-1]
            if stem not in stems[current]:
                stems[current].append(stem)
        else:
            exact[current][entry] = None
    return CategoryLexicon(exact=exact, stems=stems)


def match_categories(tokens: list[Token], lex: CategoryLexicon) -> dict[str, int]:
    """Count word tokens per category (a token may hit several categories,
    but each category at most once: by exact entry or by any stem)."""
    counts = [0] * len(lex._names)
    for tok in tokens:
        if tok.kind == WORD:
            stored = tok.categories
            found = stored[1] if stored is not None and stored[0] is lex else lex._hit_indices(tok)
            for i in found:
                counts[i] += 1
    return dict(zip(lex._names, counts))


def load_frequency_table(path: str | Path | None = None) -> dict[str, float]:
    """Lowercased word -> frequency per million."""
    path = Path(path) if path else _RESOURCE_DIR / "frequency.tsv"
    freqs: dict[str, float] = {}
    for lineno, line in LexiconFormatError.entries(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconFormatError(f"{path}:{lineno}: expected word<TAB>freq, got {line!r}")
        word, freq = parts
        try:
            value = float(freq)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= 0):
            raise LexiconFormatError(
                f"{path}:{lineno}: frequency for {word!r} must be a finite number >= 0, "
                f"got {freq!r}")
        word = word.lower()
        if word in freqs:
            raise LexiconFormatError(f"{path}:{lineno}: duplicate word {word!r}")
        freqs[word] = value
    return freqs


def fluency_doc(tokens: list[Token], freqs: dict[str, float]) -> float | None:
    """Mean per-million frequency over word tokens; unknown words count 0.

    Returns None when the token list has no words (undefined feature).
    """
    words = [t for t in tokens if t.kind == WORD]
    if not words:
        return None
    # the tokens' .lower is already lowercased, as the table's keys are
    return float_mean([freqs.get(t.lower, 0.0) for t in words])


def fluency_least3(tokens: list[Token], freqs: dict[str, float]) -> float | None:
    """Mean frequency of the 3 rarest distinct word types (fewer if the
    document has fewer types); frequency ties broken alphabetically.

    The three are the smallest ``(frequency, word)`` pairs, compared in C:
    the types are distinct, so no two pairs are equal, and any method of
    picking the three smallest gives the first three of a sort by that key
    (a ``-0.0`` frequency equals ``0.0`` in every comparison). A part with
    a few dozen types or fewer, such as a title, sorts its pairs; past
    that, a heap's set-up pays for itself and ``heapq.nsmallest`` scans
    them once."""
    types = {t.lower for t in tokens if t.kind == WORD}
    if not types:
        return None
    pairs = zip(map(freqs.get, types, repeat(0.0)), types)
    if len(types) <= 64:
        ranked = sorted(pairs)[:3]
    else:
        from heapq import nsmallest  # imported here so that loading the resources skips it
        ranked = nsmallest(3, pairs)
    return float_mean([freq for freq, _ in ranked])


class SentimentLexicon(Record):
    __slots__ = _fields = ("terms", "boosters", "negators", "_stem_strengths", "_stem_prefixes")

    def __init__(self, terms: dict[str, int], boosters: dict[str, int],
                 negators: frozenset[str]):
        self.terms = terms  # word or trailing-* stem -> strength
        self.boosters = boosters  # word -> magnitude shift
        self.negators = negators
        self._stem_strengths = {k[:-1]: v for k, v in terms.items() if k.endswith("*")}
        self._stem_prefixes = frozenset(
            s[:end] for s in self._stem_strengths for end in range(1, len(s) + 1))

    def strength(self, word: str) -> int | None:
        """The exact term's strength, else the longest stem's, else None."""
        w = word.lower()
        if w in self.terms:
            return self.terms[w]
        found = self._stem_strengths and _stem_values(w, self._stem_strengths, self._stem_prefixes)
        return found[-1] if found else None


def load_sentiment_lexicon(path: str | Path | None = None) -> SentimentLexicon:
    path = Path(path) if path else _RESOURCE_DIR / "sentiment.tsv"
    terms: dict[str, int] = {}
    boosters: dict[str, int] = {}
    negators: set[str] = set()
    section = "terms"
    for lineno, line in LexiconFormatError.entries(path):
        if line.startswith("%"):
            section = line[1:].strip()
            if section not in ("terms", "boosters", "negators"):
                raise LexiconFormatError(f"{path}:{lineno}: unknown section {section!r}")
            continue
        parts = line.split("\t")
        if section == "negators":
            if len(parts) != 1:
                raise LexiconFormatError(f"{path}:{lineno}: expected one negator, got {line!r}")
        elif len(parts) != 2:
            raise LexiconFormatError(f"{path}:{lineno}: expected term<TAB>value, got {line!r}")
        word = parts[0].lower()
        # a term may end in a * after a stem; boosters and negators are
        # looked up exactly
        if section != "terms" and "*" in word:
            raise LexiconFormatError(
                f"{path}:{lineno}: wildcard not allowed in %{section}: {word!r}")
        if "*" in word[:-1] or word == "*":
            raise LexiconFormatError(
                f"{path}:{lineno}: wildcard only allowed as trailing * after a stem: {word!r}")
        if word in (terms if section == "terms" else
                    boosters if section == "boosters" else negators):
            raise LexiconFormatError(
                f"{path}:{lineno}: duplicate {section[:-1]} {word!r} in %{section}")
        if section == "negators":
            negators.add(word)
            continue
        try:
            value = int(parts[1])
        except ValueError:
            raise LexiconFormatError(
                f"{path}:{lineno}: value for {word!r} must be an integer, "
                f"got {parts[1]!r}") from None
        if section == "terms":
            if not (2 <= abs(value) <= 5):
                raise LexiconFormatError(f"{path}:{lineno}: strength out of range: {value}")
            terms[word] = value
        else:
            if abs(value) not in (1, 2):
                raise LexiconFormatError(f"{path}:{lineno}: booster shift out of range: {value}")
            boosters[word] = value
    return SentimentLexicon(terms=terms, boosters=boosters, negators=frozenset(negators))


def _sentence_scores(sent: Sentence, sl: SentimentLexicon) -> tuple[int, int]:
    """(most negative, most positive) adjusted strength of one sentence.

    A word's strength is ``sl.strength`` of its lowercase form. A token's
    ``.lower`` is already lowercase, so for a lexicon without stems that
    is the exact term's strength, read straight from ``sl.terms``."""
    neg, pos = -1, 1
    strength = sl.strength if sl._stem_strengths else sl.terms.get
    words = [t for t in sent.tokens if t.kind == WORD]
    for i, tok in enumerate(words):
        s = strength(tok.lower)
        if s is None:
            continue
        if i > 0 and words[i - 1].lower in sl.boosters:
            s = (1 if s > 0 else -1) * max(abs(s) + sl.boosters[words[i - 1].lower], 1)
        negated = any(w.lower in sl.negators for w in words[max(0, i - 2):i])
        if negated:
            s = -abs(s) + 1 if s > 0 else -1
        if s < 0:
            neg = min(neg, max(s, -5))
        else:
            pos = max(pos, min(s, 5))
    return neg, pos


def sentiment_strength(sentences: list[Sentence], sl: SentimentLexicon) -> tuple[float, float]:
    """Average per-sentence negative and positive strengths.

    Per sentence: most negative matched strength after booster/negator
    adjustment (default -1), and symmetrically the most positive
    (default +1); both clamped to the [-5,-1] / [1,5] bands.
    """
    if not sentences:
        raise ValueError("sentiment_strength requires at least one sentence")
    scores = [_sentence_scores(s, sl) for s in sentences]
    return float_mean([n for n, _ in scores]), float_mean([p for _, p in scores])


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    path = Path(path) if path else _RESOURCE_DIR / "stopwords.txt"
    return frozenset(line.lower() for _, line in LexiconFormatError.entries(path))
