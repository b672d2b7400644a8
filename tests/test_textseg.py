import itertools
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import newsstyle.textseg as ts
from newsstyle import InputError
from newsstyle.textseg import (
    NUMBER,
    PUNCT,
    SYMBOL,
    WORD,
    Token,
    count_syllables,
    is_complex_word,
    load_abbreviations,
    split_sentences,
    tokenize,
)


def _records(text):
    return [tok for tok, _ in tokenize(text)]


class TestTokenize:
    def test_simple_sentence(self):
        toks = _records("Dogs bark.")
        assert [(t.text, t.kind) for t in toks] == [
            ("Dogs", WORD), ("bark", WORD), (".", PUNCT),
        ]

    def test_clitic_split(self):
        assert [t.text for t in _records("don't")] == ["do", "n't"]
        assert [t.text for t in _records("it's")] == ["it", "'s"]
        assert [t.text for t in _records("they're")] == ["they", "'re"]
        assert [t.text for t in _records("I'll")] == ["I", "'ll"]

    def test_curly_apostrophe_clitic(self):
        toks = tokenize("don’t")
        assert [t.norm for t, _ in toks] == ["do", "n't"]
        # spans still index the original string
        assert toks[1][0].text == "n’t"
        assert toks[1][1] == (2, 5)

    def test_all_caps_flag(self):
        toks = _records("NYPD Blows")
        assert toks[0].is_all_caps
        assert not toks[1].is_all_caps

    def test_single_letter_not_all_caps(self):
        assert not _records("I")[0].is_all_caps

    def test_numbers(self):
        toks = _records("35 stories, 2.5 million")
        assert toks[0].kind == "number"
        assert toks[3].kind == "number"

    def test_empty(self):
        assert tokenize("") == []

    def test_spans_reconstruct_input(self):
        text = 'He said: "Don’t go — it’s 35.5 degrees!"'
        toks = tokenize(text)
        for t, (start, end) in toks:
            assert text[start:end] == t.text
        spans = [span for _, span in toks]
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    @settings(max_examples=300)
    @given(hs.text(alphabet=string.ascii_letters + string.digits + " .,!?'\"’-()", max_size=80))
    def test_roundtrip_property(self, text):
        toks = tokenize(text)
        for t, (start, end) in toks:
            assert text[start:end] == t.text
        assert toks == tokenize(text)  # deterministic

    def test_one_record_per_type(self, monkeypatch):
        monkeypatch.setattr(ts, "_types", {})
        toks = _records("the cat saw the CAT and the cat")
        assert toks[0] is toks[3] is toks[6]
        assert toks[1] is toks[7] is not toks[4]
        assert toks[4].is_all_caps and not toks[1].is_all_caps


class TestToken:
    def test_norm_and_lower_straighten_curly_quotes(self):
        tok = Token("Don’t", WORD)
        assert (tok.norm, tok.lower) == ("Don't", "don't")
        tok = Token("“Hi”", PUNCT)
        assert (tok.norm, tok.lower) == ('"Hi"', '"hi"')
        assert [(t.norm, t.lower) for t in _records("‘OK’ SAYS")] == [
            ("'", "'"), ("OK", "ok"), ("'", "'"), ("SAYS", "says")]

    def test_derived_fields_ignored_by_eq_hash_and_repr(self):
        a, b = Token("Don’t", WORD), Token("Don’t", WORD)
        object.__setattr__(b, "lower", "something else")
        object.__setattr__(b, "syllables", 7)
        object.__setattr__(b, "categories", (None, (1,)))
        object.__setattr__(b, "tagging", (None, "NN", None, ()))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(("Don’t", WORD, False))
        for name in ("norm", "lower", "syllables", "categories", "tagging"):
            assert name not in repr(a)
        with pytest.raises(TypeError):
            Token("x", WORD, False, "x", "x")

    def test_frozen_with_slots(self):
        tok = Token("x", WORD)
        assert {"text", "lower", "syllables", "tagging"} <= set(Token.__slots__)
        for name in Token.__slots__:
            before = getattr(tok, name)
            with pytest.raises(AttributeError):
                setattr(tok, name, "y")
            with pytest.raises(AttributeError):
                delattr(tok, name)
            assert getattr(tok, name) is before
        assert not hasattr(tok, "__dict__")

    def test_tokenize_shares_one_record_per_text(self, monkeypatch):
        monkeypatch.setattr(ts, "_types", {})
        dogs, again, _, s, nypd, i = _records("Dogs Dogs it's NYPD I")
        assert dogs is again
        assert s is _records("he's")[1]
        assert s == Token("'s", WORD)
        assert nypd.is_all_caps
        assert nypd == Token("NYPD", WORD)
        assert Token("NYPD", WORD).is_all_caps
        assert not i.is_all_caps
        assert not Token("!!", PUNCT).is_all_caps


# clitics, lone quotes, numbers with separators, hyphens, punctuation,
# symbols and non-ASCII letters, run together or apart
_MIXED_PIECES = hs.one_of(
    hs.sampled_from(["don't", "it's", "John’s", "'s", "n't", "'", "’", "‘", "1,000",
                     "2.5", "well-known", "-", ".", ",", "!", "(", "$", "%", "café",
                     "Σ", "NYPD", "I"]),
    hs.text(alphabet="aZ1'’-.,$éΣ", min_size=1, max_size=6),
)
_MIXED_TEXT = hs.lists(hs.tuples(_MIXED_PIECES, hs.sampled_from(["", " "])),
                       max_size=8).map(lambda pairs: "".join(p + sep for p, sep in pairs))


class TestTypeTable:
    @settings(max_examples=300, deadline=None)
    @given(hs.lists(_MIXED_TEXT, min_size=1, max_size=4))
    def test_each_text_has_one_kind_and_one_record(self, texts):
        # the table lookup compares no kinds: it relies on the tokenizer's
        # rules giving each text one kind, wherever the text stands
        saved = ts._types
        try:
            kinds = {}
            for text in texts:
                ts._types = {}  # the kinds the rules give, not the table
                for tok, _ in tokenize(text):
                    assert kinds.setdefault(tok.text, tok.kind) == tok.kind
            ts._types = {}
            for text in texts:
                for tok, _ in tokenize(text):
                    assert tok.kind == kinds[tok.text]
                    assert ts._types.get(tok.text, tok) is tok
        finally:
            ts._types = saved


# the tokenizer rules as they were before the fast paths: every word goes
# through the clitic split, and all-caps is checked letter by letter
_OLD_NORMALIZE = str.maketrans({"’": "'", "‘": "'", "“": '"', "”": '"'})
_OLD_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:[.,]\d+)*)
  | (?P<word>[A-Za-z]+(?:[-'][A-Za-z]+)*)
  | (?P<punct>[.,;:!?"'()\[\]{}–—-])
  | (?P<symbol>\S)
    """,
    re.VERBOSE,
)


def _old_all_caps(text):
    alpha = [c for c in text if c.isalpha()]
    return len(text) >= 2 and bool(alpha) and all(c.isupper() for c in alpha)


def _one_letter_piece(text):
    """A word of one letter and more than one character: a clitic such as
    'S or ’M, or the head A' of A'N'T. Counting letters moved only these out
    of all-caps, so the oracle skips their flag; TestAllCapsLetters checks
    them by hand."""
    return len(text) > 1 and sum(c.isalpha() for c in text) == 1


def _old_split_clitic(norm_word):
    low = norm_word.lower()
    if low.endswith("n't") and len(low) > 3:
        return len(norm_word) - 3
    for clitic in ("'s", "'re", "'ve", "'ll", "'d", "'m"):
        if low.endswith(clitic) and len(low) > len(clitic):
            return len(norm_word) - len(clitic)
    return None


def _old_tokenize(text):
    kinds = {"number": "number", "word": WORD, "punct": PUNCT, "symbol": "symbol"}
    out = []
    for m in _OLD_TOKEN_RE.finditer(text.translate(_OLD_NORMALIZE)):
        kind, start, end = kinds[m.lastgroup], m.start(), m.end()
        cut = _old_split_clitic(m.group()) if kind == WORD else None
        pieces = [(start, end)] if cut is None else [(start, start + cut), (start + cut, end)]
        for a, b in pieces:
            out.append((text[a:b], kind, (a, b), kind == WORD and _old_all_caps(text[a:b])))
    return out


def _unmoved(rows):
    """(text, kind, span, is_all_caps) rows, the flag dropped for one-letter pieces."""
    return [row[:3] if _one_letter_piece(row[0]) else row for row in rows]


_WORDS = hs.text(alphabet="aBcDeNsStT-'’‘", min_size=1, max_size=10)
_CLITIC_WORDS = hs.tuples(hs.text(alphabet="aBcDeNsStT", max_size=5),
                          hs.sampled_from(["n't", "’s", "'S", "'re", "’VE", "'ll", "'d", "’M",
                                           "N’T", "'x", "’"])).map("".join)
_SEPARATORS = hs.sampled_from([" ", "  ", ", ", ". ", "\u00a0", "—", "“", "” ", "35", "$"])


class TestTokenizeDifferential:
    @settings(max_examples=300)
    @given(hs.lists(hs.tuples(hs.one_of(_WORDS, _CLITIC_WORDS), _SEPARATORS), max_size=10))
    def test_matches_old_clitic_and_all_caps_rules(self, parts):
        text = "".join(w + sep for w, sep in parts)
        assert _unmoved([(t.text, t.kind, span, t.is_all_caps) for t, span in tokenize(text)]) \
            == _unmoved(_old_tokenize(text))


class TestAllCapsLetters:
    """Hand-worked cases for the inputs the differential above skips: a word
    is all-caps when it holds two or more letters and no lower-case one."""

    def test_one_letter_clitics_are_not_all_caps(self):
        text = "DON'T PANIC, IT'S FINE. I'M HERE, HE'D GO"
        assert [(t.text, t.is_all_caps) for t in _records(text) if t.kind == WORD] == [
            ("DO", True), ("N'T", True), ("PANIC", True), ("IT", True), ("'S", False),
            ("FINE", True), ("I", False), ("'M", False), ("HERE", True), ("HE", True),
            ("'D", False), ("GO", True)]

    def test_curly_clitics_and_split_heads(self):
        assert [(t.text, t.is_all_caps) for t in _records("IT’S WE’D A'N'T X-Y 'S")] == [
            ("IT", True), ("’S", False), ("WE", True), ("’D", False), ("A'", False),
            ("N'T", True), ("X-Y", True), ("'", False), ("S", False)]
        assert [Token(text, WORD).is_all_caps for text in ("'S", "’M", "A'", "'RE", "N’T")] \
            == [False, False, False, True, True]


class TestSplitSentences:
    def test_two_sentences(self):
        assert len(split_sentences("The cat sat. The dog ran.")) == 2

    def test_abbreviation(self):
        assert len(split_sentences("Mr. Smith left.")) == 1

    def test_abbreviation_file_not_utf8(self, tmp_path):
        f = tmp_path / "abbrev.txt"
        f.write_bytes("Mr.\nca.\nst\u00e9.\n".encode("latin-1"))
        with pytest.raises(InputError, match=r"abbrev\.txt: not UTF-8 \(line 3: invalid "):
            load_abbreviations(f)

    def test_initials(self):
        assert len(split_sentences("The U.S. Senate voted.")) == 1

    def test_no_terminator(self):
        assert len(split_sentences("no terminator here")) == 1

    def test_exclaim_and_question(self):
        assert len(split_sentences("Really! Who said that? Nobody.")) == 3

    def test_empty(self):
        assert split_sentences("") == []

    def test_token_partition(self):
        text = "Dr. Lee spoke. She left early! Then it rained."
        doc_tokens = tokenize(text)
        sent_tokens = [pair for s in split_sentences(text)
                       for pair in zip(s.tokens, s.spans, strict=True)]
        assert sent_tokens == doc_tokens

    @settings(max_examples=200)
    @given(hs.text(alphabet=string.ascii_letters + " .!?", max_size=60))
    def test_partition_property(self, text):
        sent_tokens = [pair for s in split_sentences(text)
                       for pair in zip(s.tokens, s.spans, strict=True)]
        assert sent_tokens == tokenize(text)

    @settings(max_examples=300)
    @given(hs.text(alphabet=string.ascii_letters + string.digits + " .,!?'\"’‘“”-()$\n",
                   max_size=80))
    def test_sentence_spans_slice_to_token_text(self, text):
        for sent in split_sentences(text):
            assert len(sent.spans) == len(sent.tokens)
            for tok, (start, end) in zip(sent.tokens, sent.spans):
                assert text[start:end] == tok.text


# every whitespace code point (U+3000 is the highest)
_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


class TestBlankText:
    @settings(max_examples=500)
    @given(hs.one_of(hs.text(), hs.text(alphabet=_WHITESPACE),
                     hs.text(alphabet=_WHITESPACE + "x\u200b\ufeff")))
    def test_no_sentences_iff_blank(self, text):
        assert (split_sentences(text) == []) == (not text.strip())


def _old_boundaries(text, abbreviations):
    """Token indices ending a sentence, by the old per-terminator slice of
    the rest of the text."""
    tokens = _records(text)
    spans = [span for _, span in tokenize(text)]
    normalized = text.translate(_OLD_NORMALIZE)
    boundaries = []
    for i, tok in enumerate(tokens):
        if tok.text not in (".", "!", "?"):
            continue
        rest = normalized[spans[i][1]:]
        if not (not rest.strip() or re.match(r'\s+["\'(]*[A-Z0-9]', rest)):
            continue
        if tok.text == "." and i > 0:
            prev = tokens[i - 1]
            if prev.kind == WORD and (len(prev.text) == 1 or prev.lower + "." in abbreviations):
                continue
        boundaries.append(i)
    return boundaries


_SENTENCE_PARTS = hs.sampled_from([
    "The", "cat", "Mr", "U", "S", "dr", "7", "sat", ".", "!", "?", "...", '"', "'", "(",
    "“", "”", "‘", "’", " ", " ", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028",
])


class TestSplitSentencesDifferential:
    @settings(max_examples=500)
    @given(hs.one_of(hs.lists(_SENTENCE_PARTS, max_size=30).map("".join),
                     hs.text(alphabet="Ab7.!? \t“”‘’\"'(\u00a0\u3000\x85", max_size=40)))
    def test_boundaries_match_old_slice_formula(self, text):
        abbreviations = frozenset({"mr.", "dr."})
        sentences = split_sentences(text, abbreviations)
        ends, n = [], 0
        for sent in sentences:
            n += len(sent.tokens)
            ends.append(n - 1)
        tokens = tokenize(text)
        expected = _old_boundaries(text, abbreviations)
        if tokens and expected[-1:] != [len(tokens) - 1]:
            expected.append(len(tokens) - 1)  # the unterminated last sentence
        assert ends == expected
        assert [pair for s in sentences for pair in zip(s.tokens, s.spans, strict=True)] == \
            tokens


class TestSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("make", 1),
            ("beautiful", 3),
            ("apple", 2),
            ("the", 1),
            ("rhythm", 1),
            ("education", 4),
            ("b", 1),
        ],
    )
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    @given(hs.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    def test_at_least_one(self, word):
        assert count_syllables(word) >= 1

    @given(hs.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8))
    def test_monotone_under_duplication(self, word):
        assert count_syllables(word + word) >= count_syllables(word)


class TestComplexWord:
    def test_polysyllabic_adjective(self):
        assert is_complex_word(Token("beautiful", WORD), "JJ")

    def test_proper_noun_excluded(self):
        assert not is_complex_word(Token("Washington", WORD), "NNP")

    def test_short_word(self):
        assert not is_complex_word(Token("cat", WORD), "NN")

    def test_hyphenated_excluded(self):
        assert not is_complex_word(Token("well-intentioned", WORD), "JJ")


def _uncached_syllables(word):
    """count_syllables as it was before it was memoized."""
    w = word.lower()
    n = len(re.findall(r"[aeiouy]+", w))
    if n > 1 and w.endswith("e") and not w.endswith("le") and w[-2] not in "aeiouy":
        n -= 1
    return max(n, 1)


# ASCII letters, non-ASCII letters (cased and not), curly and straight quotes
_MEMO_TEXT = hs.text(alphabet="aEiOuYbcLmnrSt-'’‘“”éÉüÜñßøΣσЖж", min_size=1, max_size=14)


class TestWordMemos:
    """The syllable count a record is made with and the ASCII fast path of
    Token must answer exactly as the uncached rules do."""

    @settings(max_examples=300, deadline=None)
    @given(_MEMO_TEXT)
    def test_count_syllables_matches_uncached(self, word):
        assert count_syllables(word) == _uncached_syllables(word)
        assert Token(word, WORD).syllables == _uncached_syllables(word)

    @settings(max_examples=300, deadline=None)
    @given(_MEMO_TEXT, hs.sampled_from([WORD, NUMBER, PUNCT, SYMBOL]))
    def test_record_counts_syllables_of_words_only(self, text, kind):
        tok = Token(text, kind)
        assert tok.syllables == (count_syllables(tok.lower) if kind == WORD else 0)

    @settings(max_examples=300, deadline=None)
    @given(_MEMO_TEXT)
    def test_norm_and_lower_match_uncached(self, text):
        tok = Token(text, WORD)
        norm = text.translate(_OLD_NORMALIZE)
        assert (tok.norm, tok.lower) == (norm, norm.lower())

    def test_type_table_stays_under_cap(self, monkeypatch):
        monkeypatch.setattr(ts, "_types", {})
        letters = itertools.product(string.ascii_lowercase, repeat=3)
        words = ["syl" + "".join(next(letters)) + "able" for _ in range(ts.TYPE_CAP + 100)]
        for word in words:
            assert _records(word)[0].syllables == _uncached_syllables(word)
        assert len(ts._types) == ts.TYPE_CAP
        # types past the cap are still answered, each time by a new record
        for word in (words[0], words[-1]):
            assert _records(word) == [Token(word, WORD)]
            assert _records(word)[0].syllables == _uncached_syllables(word)
        assert _records(words[0])[0] is _records(words[0])[0]
        assert _records(words[-1])[0] is not _records(words[-1])[0]
        assert len(ts._types) == ts.TYPE_CAP
