import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from newsstyle.textseg import (
    PUNCT,
    WORD,
    Sentence,
    Token,
    count_syllables,
    is_complex_word,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_simple_sentence(self):
        toks = tokenize("Dogs bark.")
        assert [(t.text, t.kind) for t in toks] == [
            ("Dogs", WORD), ("bark", WORD), (".", PUNCT),
        ]

    def test_clitic_split(self):
        assert [t.text for t in tokenize("don't")] == ["do", "n't"]
        assert [t.text for t in tokenize("it's")] == ["it", "'s"]
        assert [t.text for t in tokenize("they're")] == ["they", "'re"]
        assert [t.text for t in tokenize("I'll")] == ["I", "'ll"]

    def test_curly_apostrophe_clitic(self):
        toks = tokenize("don’t")
        assert [t.norm for t in toks] == ["do", "n't"]
        # spans still index the original string
        assert toks[1].text == "n’t"

    def test_all_caps_flag(self):
        toks = tokenize("NYPD Blows")
        assert toks[0].is_all_caps
        assert not toks[1].is_all_caps

    def test_single_letter_not_all_caps(self):
        assert not tokenize("I")[0].is_all_caps

    def test_numbers(self):
        toks = tokenize("35 stories, 2.5 million")
        assert toks[0].kind == "number"
        assert toks[3].kind == "number"

    def test_empty(self):
        assert tokenize("") == []

    def test_spans_reconstruct_input(self):
        text = 'He said: "Don’t go — it’s 35.5 degrees!"'
        toks = tokenize(text)
        for t in toks:
            assert text[t.span[0]:t.span[1]] == t.text
        spans = [t.span for t in toks]
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    @settings(max_examples=300)
    @given(hs.text(alphabet=string.ascii_letters + string.digits + " .,!?'\"’-()", max_size=80))
    def test_roundtrip_property(self, text):
        toks = tokenize(text)
        for t in toks:
            assert text[t.span[0]:t.span[1]] == t.text
        assert toks == tokenize(text)  # deterministic


class TestSplitSentences:
    def test_two_sentences(self):
        assert len(split_sentences("The cat sat. The dog ran.")) == 2

    def test_abbreviation(self):
        assert len(split_sentences("Mr. Smith left.")) == 1

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
        sent_tokens = [t for s in split_sentences(text) for t in s.tokens]
        assert sent_tokens == doc_tokens

    @settings(max_examples=200)
    @given(hs.text(alphabet=string.ascii_letters + " .!?", max_size=60))
    def test_partition_property(self, text):
        sent_tokens = [t for s in split_sentences(text) for t in s.tokens]
        assert sent_tokens == tokenize(text)


# every whitespace code point (U+3000 is the highest)
_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


class TestBlankText:
    @settings(max_examples=500)
    @given(hs.one_of(hs.text(), hs.text(alphabet=_WHITESPACE),
                     hs.text(alphabet=_WHITESPACE + "x\u200b\ufeff")))
    def test_no_sentences_iff_blank(self, text):
        assert (split_sentences(text) == []) == (not text.strip())


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
        assert is_complex_word("beautiful", "JJ")

    def test_proper_noun_excluded(self):
        assert not is_complex_word("Washington", "NNP")

    def test_short_word(self):
        assert not is_complex_word("cat", "NN")

    def test_hyphenated_excluded(self):
        assert not is_complex_word("well-intentioned", "JJ")
