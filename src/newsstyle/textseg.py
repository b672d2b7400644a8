"""Tokenization, sentence segmentation, and syllable counting.

Everything downstream (POS tagging, readability, lexicon matching) runs on
the tokens produced here, so the rules are deliberately simple and
deterministic: no probabilistic models, no language detection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

_RESOURCE_DIR = Path(__file__).parent / "resources"

# Syllable counts here, category hits in the lexicon and the tagger's
# word-feature scores (postag._WordScores) are memoized per word type; each
# memo holds at most this many words.
WORD_MEMO_CAP = 1 << 16

WORD = "word"
NUMBER = "number"
PUNCT = "punctuation"
SYMBOL = "symbol"

# Curly quote/apostrophe forms normalized before pattern matching; offsets
# always refer to the original string.
_NORMALIZE = str.maketrans({"’": "'", "‘": "'", "“": '"', "”": '"'})

_CLITICS = ("'s", "'re", "'ve", "'ll", "'d", "'m")

# group names are the token kinds
_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:[.,]\d+)*)
  | (?P<word>[A-Za-z]+(?:[-'][A-Za-z]+)*)
  | (?P<punctuation>[.,;:!?"'()\[\]{}–—-])
  | (?P<symbol>\S)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    kind: str
    span: tuple[int, int]
    is_all_caps: bool = False
    # derived from text at construction; not part of equality or hashing
    norm: str = field(init=False, compare=False, repr=False)  # curly quotes straightened
    lower: str = field(init=False, compare=False, repr=False)  # norm, lowercased

    def __post_init__(self):
        # _NORMALIZE maps only non-ASCII characters
        norm = self.text if self.text.isascii() else self.text.translate(_NORMALIZE)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "lower", norm.lower())


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]


def _split_clitic(norm_word: str) -> int | None:
    """Offset at which to split a contraction, or None."""
    low = norm_word.lower()
    if low.endswith("n't") and len(low) > 3:
        return len(norm_word) - 3
    for clitic in _CLITICS:
        if low.endswith(clitic) and len(low) > len(clitic):
            return len(norm_word) - len(clitic)
    return None


def _word_token(original: str, start: int, end: int) -> Token:
    # letters are the only cased characters a word token can hold, so
    # isupper() means "every letter is a capital"
    text = original[start:end]
    return Token(text, WORD, (start, end), len(text) >= 2 and text.isupper())


def tokenize(text: str) -> list[Token]:
    """Split text into word/number/punctuation/symbol tokens with spans.

    Spans index the original string, so slicing the input with them
    reconstructs it exactly. Contractions split treebank-style
    ("don't" -> "do" + "n't").
    """
    normalized = text.translate(_NORMALIZE)
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(normalized):
        kind = m.lastgroup
        start, end = m.span()
        if kind != WORD:
            tokens.append(Token(text[start:end], kind, (start, end)))
            continue
        word = m.group()
        cut = _split_clitic(word) if "'" in word else None
        if cut is None:
            tokens.append(_word_token(text, start, end))
        else:
            tokens.append(_word_token(text, start, start + cut))
            tokens.append(_word_token(text, start + cut, end))
    return tokens


def load_abbreviations(path: str | Path | None = None) -> frozenset[str]:
    """One abbreviation per line (with trailing period), # comments."""
    path = Path(path) if path else _RESOURCE_DIR / "abbreviations.txt"
    entries = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.lower())
    return frozenset(entries)


_DEFAULT_ABBREVIATIONS: frozenset[str] | None = None


def _abbreviations() -> frozenset[str]:
    global _DEFAULT_ABBREVIATIONS
    if _DEFAULT_ABBREVIATIONS is None:
        _DEFAULT_ABBREVIATIONS = load_abbreviations()
    return _DEFAULT_ABBREVIATIONS


_NEXT_START = re.compile(r'\s+["\'(]*[A-Z0-9]')  # whitespace, then a sentence start


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[Sentence]:
    """Segment text into sentences over its token stream.

    A boundary is a ``.``, ``!`` or ``?`` token followed by whitespace and a
    capital letter (or end of text), unless the terminator closes a known
    abbreviation. Text without a terminator is a single sentence. Every
    token lands in exactly one sentence.
    """
    if abbreviations is None:
        abbreviations = _abbreviations()
    tokens = tokenize(text)
    if not tokens:
        return []
    normalized = text.translate(_NORMALIZE)

    boundaries: set[int] = set()  # token index after which a sentence ends
    for i, tok in enumerate(tokens):
        # a terminator at the end of the text is the last token, which ends
        # the last sentence whether or not it is marked
        if tok.text not in (".", "!", "?") or not _NEXT_START.match(normalized, tok.span[1]):
            continue
        if tok.text == "." and i > 0:
            prev = tokens[i - 1]
            # single letters are initials/acronym parts (U.S., J. Smith)
            if prev.kind == WORD and (
                len(prev.text) == 1 or (prev.lower + ".") in abbreviations
            ):
                continue
        boundaries.add(i)

    sentences: list[Sentence] = []
    current: list[Token] = []
    for i, tok in enumerate(tokens):
        current.append(tok)
        if i in boundaries:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return [Sentence(tokens=tuple(s)) for s in sentences]


_VOWELS = set("aeiouy")
_VOWEL_GROUP = re.compile(r"[aeiouy]+")


@lru_cache(maxsize=WORD_MEMO_CAP)
def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel groups (a,e,i,o,u,y),
    dropping a terminal silent 'e' (but not '-le'), minimum 1."""
    w = word.lower()
    n = len(_VOWEL_GROUP.findall(w))
    if n > 1 and w.endswith("e") and not w.endswith("le") and w[-2] not in _VOWELS:
        n -= 1
    return max(n, 1)


def is_complex_word(word: str, tag: str) -> bool:
    """Gunning Fog complexity: >= 3 syllables, not a proper noun, no hyphen."""
    if "-" in word:
        return False
    if tag in ("NNP", "NNPS"):
        return False
    return count_syllables(word) >= 3
