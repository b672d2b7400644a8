"""Tokenization, sentence segmentation, and syllable counting.

Everything downstream (POS tagging, readability, lexicon matching) runs on
the tokens produced here, so the rules are deliberately simple and
deterministic: no probabilistic models, no language detection.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

from . import FrozenRecord, InputError, slot_setters

_RESOURCE_DIR = Path(__file__).parent / "resources"

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


class Token(FrozenRecord):
    """One token type: the tokens of a text share one record in the type
    table that ``tokenize`` fills, and each token's span is kept beside it.

    ``text`` and ``kind`` are its value. ``is_all_caps`` (a word of two or
    more letters, all capitals, so ``DON'T`` gives two and ``IT'S`` one),
    ``norm``, ``lower`` and ``syllables`` (``count_syllables`` of ``lower``
    for a word, 0 for the other kinds) are derived from them when the
    record is made. ``categories`` and ``tagging`` are per-type results
    that ``lexicon.match_categories`` and ``postag.tag`` store the first
    time they need them, each paired with the resource it was computed from.
    """
    __slots__ = ("text", "kind", "is_all_caps",
                 # not part of equality, hashing or repr
                 "norm",  # curly quotes straightened
                 "lower",  # norm, lowercased
                 "syllables", "categories", "tagging")
    _fields = __slots__[:3]

    def __init__(self, text: str, kind: str):
        # _NORMALIZE maps only non-ASCII characters
        norm = text if text.isascii() else text.translate(_NORMALIZE)
        lower = norm.lower()
        _set_text(self, text)
        _set_kind(self, kind)
        # isupper(): a word's cased characters, its letters, are all capitals
        _set_is_all_caps(self, kind == WORD and text.isupper() and sum(map(str.isalpha, text)) > 1)
        _set_norm(self, norm)
        # one string, not two equal ones, for a type already in lowercase
        _set_lower(self, norm if lower == norm else lower)
        _set_syllables(self, count_syllables(lower) if kind == WORD else 0)
        _set_categories(self, None)
        _set_tagging(self, None)


(_set_text, _set_kind, _set_is_all_caps, _set_norm, _set_lower, _set_syllables,
 _set_categories, _set_tagging) = slot_setters(Token)


# The type table: text -> its shared record, written only by tokenize, whose
# rules give each text one kind. It holds at most TYPE_CAP records; past
# that, each token of a new type gets a record of its own, so its per-type
# results are computed again for each token.
TYPE_CAP = 1 << 13
_types: dict[str, Token] = {}


def _new_type(text: str, kind: str) -> Token:
    """A record for a text the table does not hold, stored while there is room."""
    tok = Token(text, kind)
    if len(_types) < TYPE_CAP:
        _types[text] = tok
    return tok


class Sentence(FrozenRecord):
    __slots__ = _fields = ("tokens", "spans")

    def __init__(self, tokens: tuple[Token, ...], spans: tuple[tuple[int, int], ...] = ()):
        _set_tokens(self, tokens)
        # (start, end) of each token in the text it came from; empty for a
        # sentence built from tokens alone, such as a tagged training sentence's
        _set_spans(self, spans)


_set_tokens, _set_spans = slot_setters(Sentence)


def _split_clitic(norm_word: str) -> int | None:
    """Offset at which to split a contraction, or None."""
    low = norm_word.lower()
    if low.endswith("n't") and len(low) > 3:
        return len(norm_word) - 3
    for clitic in _CLITICS:
        if low.endswith(clitic) and len(low) > len(clitic):
            return len(norm_word) - len(clitic)
    return None


def tokenize(text: str) -> list[tuple[Token, tuple[int, int]]]:
    """Split text into word/number/punctuation/symbol tokens: one
    (record, span) pair per token, the record shared by its type.

    Spans index the original string, so slicing the input with them
    reconstructs it exactly. Contractions split treebank-style
    ("don't" -> "do" + "n't").
    """
    normalized = text.translate(_NORMALIZE)
    lookup = _types.get
    out: list[tuple[Token, tuple[int, int]]] = []
    append = out.append
    for m in _TOKEN_RE.finditer(normalized):
        kind = m.lastgroup
        start, end = span = m.span()
        if kind == WORD and "'" in m.group():
            cut = _split_clitic(m.group())
            if cut is not None:
                cut += start
                head, tail = text[start:cut], text[cut:end]
                append((lookup(head) or _new_type(head, WORD), (start, cut)))
                append((lookup(tail) or _new_type(tail, WORD), (cut, end)))
                continue
        piece = text[start:end]
        append((lookup(piece) or _new_type(piece, kind), span))
    return out


def load_abbreviations(path: str | Path | None = None) -> frozenset[str]:
    """One abbreviation per line (with trailing period), # comments."""
    path = Path(path) if path else _RESOURCE_DIR / "abbreviations.txt"
    return frozenset(line.lower() for _, line in InputError.entries(path))


@functools.cache
def _abbreviations() -> frozenset[str]:
    return load_abbreviations()


_NEXT_START = re.compile(r'\s+["\'“”‘’(]*[A-Z0-9]')  # whitespace, then a sentence start


def split_sentences(text: str) -> list[Sentence]:
    """Segment text into sentences over its token stream.

    A boundary is a ``.``, ``!`` or ``?`` token followed by whitespace and a
    capital letter (or end of text), unless the terminator closes a known
    abbreviation. Text without a terminator is a single sentence. Every
    token lands in exactly one sentence.
    """
    abbreviations = _abbreviations()
    pairs = tokenize(text)
    if not pairs:
        return []
    tokens, spans = zip(*pairs)

    ends: list[int] = []  # index after each sentence's last token
    for i, tok in enumerate(tokens):
        # a terminator at the end of the text is the last token, which ends
        # the last sentence whether or not it is marked
        if tok.text not in (".", "!", "?") or not _NEXT_START.match(text, spans[i][1]):
            continue
        if tok.text == "." and i > 0:
            prev = tokens[i - 1]
            # single letters are initials/acronym parts (U.S., J. Smith)
            if prev.kind == WORD and (
                len(prev.text) == 1 or (prev.lower + ".") in abbreviations
            ):
                continue
        ends.append(i + 1)
    if not ends or ends[-1] != len(tokens):
        ends.append(len(tokens))
    return [Sentence(tokens[start:end], spans[start:end])
            for start, end in zip([0, *ends], ends)]


_VOWELS = set("aeiouy")
_VOWEL_GROUP = re.compile(r"[aeiouy]+")


def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel groups (a,e,i,o,u,y),
    dropping a terminal silent 'e' (but not '-le'), minimum 1."""
    w = word.lower()
    n = len(_VOWEL_GROUP.findall(w))
    if n > 1 and w.endswith("e") and not w.endswith("le") and w[-2] not in _VOWELS:
        n -= 1
    return max(n, 1)


def is_complex_word(tok: Token, tag: str) -> bool:
    """Gunning Fog complexity of a word token tagged ``tag``: >= 3
    syllables, not a proper noun, no hyphen."""
    return tok.syllables >= 3 and tag not in ("NNP", "NNPS") and "-" not in tok.norm
