import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from newsstyle.lexicon import (
    CategoryLexicon,
    LexiconFormatError,
    SentimentLexicon,
    fluency_doc,
    fluency_least3,
    load_category_lexicon,
    load_frequency_table,
    load_sentiment_lexicon,
    load_stopwords,
    match_categories,
    sentiment_strength,
)
import build_frequency_table
import newsstyle.lexicon
import newsstyle.textseg as ts
from newsstyle.textseg import WORD, Token, split_sentences, tokenize


def _tokens(text):
    """The token records of a text, without their spans."""
    return [tok for tok, _ in tokenize(text)]


class TestLoadCategoryLexicon:
    def test_negate_block(self, tmp_path):
        f = tmp_path / "cats.dic"
        f.write_text("%negate\nno\nnot\nnever\n")
        lex = load_category_lexicon(f)
        assert list(lex.exact) == ["negate"]
        assert list(lex.exact["negate"]) == ["no", "not", "never"]
        assert lex.stems["negate"] == []

    def test_wildcard_stem(self, tmp_path):
        f = tmp_path / "cats.dic"
        f.write_text("%swear\ndamn*\n")
        lex = load_category_lexicon(f)
        assert lex.stems["swear"] == ["damn"]

    def test_leading_wildcard_rejected(self, tmp_path):
        f = tmp_path / "cats.dic"
        f.write_text("%swear\n*damn\n")
        with pytest.raises(LexiconFormatError):
            load_category_lexicon(f)

    def test_duplicate_category_rejected(self, tmp_path):
        f = tmp_path / "cats.dic"
        f.write_text("%a\nx\n%a\ny\n")
        with pytest.raises(LexiconFormatError, match="duplicate"):
            load_category_lexicon(f)

    def test_entry_before_header_rejected(self, tmp_path):
        f = tmp_path / "cats.dic"
        f.write_text("orphan\n")
        with pytest.raises(LexiconFormatError, match=":1:"):
            load_category_lexicon(f)

    def test_duplicates_within_category_deduplicated(self, tmp_path):
        f = tmp_path / "cats.dic"
        f.write_text("%a\nword\nword\n")
        assert list(load_category_lexicon(f).exact["a"]) == ["word"]

    def test_shipped_lexicon_loads(self):
        lex = load_category_lexicon()
        for cat in ("analytic", "negate", "swear", "i", "we", "shehe", "focuspast"):
            assert cat in lex.exact


class TestMatchCategories:
    def _lex(self, tmp_path, content):
        f = tmp_path / "c.dic"
        f.write_text(content)
        return load_category_lexicon(f)

    def test_negation_count(self, tmp_path):
        lex = self._lex(tmp_path, "%negate\nno\nnot\nnever\n")
        counts = match_categories(_tokens("I will not go, no."), lex)
        assert counts["negate"] == 2

    def test_wildcard_match(self, tmp_path):
        lex = self._lex(tmp_path, "%swear\ndamn*\n")
        assert match_categories(_tokens("damned"), lex)["swear"] == 1

    def test_empty_tokens(self, tmp_path):
        lex = self._lex(tmp_path, "%a\nx\n")
        assert match_categories([], lex) == {"a": 0}

    def test_token_in_multiple_categories(self, tmp_path):
        lex = self._lex(tmp_path, "%a\nword\n%b\nword\n")
        counts = match_categories(_tokens("word"), lex)
        assert counts == {"a": 1, "b": 1}

    def test_additive_under_concatenation(self, tmp_path):
        lex = self._lex(tmp_path, "%a\ncat\ndog\n")
        t1, t2 = "the cat sat", "a dog and a cat"
        c1 = match_categories(_tokens(t1), lex)["a"]
        c2 = match_categories(_tokens(t2), lex)["a"]
        both = match_categories(_tokens(t1 + " " + t2), lex)["a"]
        assert both == c1 + c2


def _scan_hits(word, lex):
    """Reference matcher: scan every category for an exact entry or a stem
    the word starts with, so each category counts at most once."""
    return [cat for cat in lex.exact
            if word in lex.exact[cat] or any(word.startswith(s) for s in lex.stems[cat])]


def _scan_counts(tokens, lex):
    counts = {cat: 0 for cat in lex.exact}
    for tok in tokens:
        if tok.kind == WORD:
            for cat in _scan_hits(tok.lower, lex):
                counts[cat] += 1
    return counts


def _word(text):
    """A one-token list: ``text`` as a word token, whatever its characters.
    Where ``tokenize`` reads the text as one word, the token is the type
    table's shared record."""
    tokens = _tokens(text)
    if [(tok.text, tok.kind) for tok in tokens] == [(text, WORD)]:
        return tokens
    return [Token(text, WORD)]


def _hits(word, lex):
    """Categories that match_categories counts for a one-word part."""
    return [cat for cat, n in match_categories(_word(word), lex).items() if n]


_SHIPPED = load_category_lexicon()
_SHIPPED_ENTRIES = sorted(
    {w for cat in _SHIPPED.exact for w in _SHIPPED.exact[cat]}
    | {s for cat in _SHIPPED.stems for s in _SHIPPED.stems[cat]}
)
_words = hs.one_of(
    hs.sampled_from(_SHIPPED_ENTRIES),
    hs.tuples(hs.sampled_from(_SHIPPED_ENTRIES),
              hs.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)).map("".join),
    hs.text(alphabet=string.ascii_letters + "'-", min_size=1, max_size=12),
)


class TestCompiledLookup:
    """The compiled word/stem maps must agree with the per-category scan."""

    @settings(max_examples=300, deadline=None)
    @given(hs.lists(_words, max_size=25))
    def test_shipped_lexicon_counts_match_scan(self, words):
        tokens = _tokens(" ".join(words))
        assert match_categories(tokens, _SHIPPED) == _scan_counts(tokens, _SHIPPED)

    @settings(max_examples=300, deadline=None)
    @given(_words)
    def test_shipped_lexicon_hits_in_category_order(self, word):
        tokens = _word(word)
        assert match_categories(tokens, _SHIPPED) == _scan_counts(tokens, _SHIPPED)

    def _lex(self, tmp_path, content):
        f = tmp_path / "c.dic"
        f.write_text(content)
        return load_category_lexicon(f)

    def test_nested_stems_count_once(self, tmp_path):
        lex = self._lex(tmp_path, "%a\nab*\nabc*\nabcd\n%b\nx\n")
        tokens = _tokens("abcde abcd ab a")
        counts = match_categories(tokens, lex)
        assert counts == {"a": 3, "b": 0}
        assert counts == _scan_counts(tokens, lex)

    def test_exact_in_one_category_stem_in_another(self, tmp_path):
        lex = self._lex(tmp_path, "%a\nxy*\n%b\nxyz\n%c\nxyz*\nq\n")
        assert _hits("xyz", lex) == ["a", "b", "c"]
        assert _hits("xyzzy", lex) == ["a", "c"]
        assert _hits("xy", lex) == ["a"]
        assert _hits("x", lex) == []
        tokens = _tokens("xyz xyzzy xy x q")
        counts = match_categories(tokens, lex)
        assert counts == {"a": 3, "b": 1, "c": 3}
        assert counts == _scan_counts(tokens, lex)


class TestBuildFrequencyTool:
    def test_regenerates_the_shipped_table_byte_for_byte(self, tmp_path, monkeypatch):
        out = tmp_path / "frequency.tsv"
        monkeypatch.setattr(build_frequency_table, "OUT", out)
        build_frequency_table.main()
        shipped = newsstyle.lexicon._RESOURCE_DIR / "frequency.tsv"
        assert out.read_bytes() == shipped.read_bytes()


class TestFluency:
    def test_doc_mean(self):
        ft = {"aa": 10, "bb": 20, "cc": 30}
        assert fluency_doc(_tokens("aa bb cc"), ft) == 20.0

    def test_unknown_words_zero(self):
        ft = {}
        assert fluency_doc(_tokens("zzz qqq"), ft) == 0.0

    def test_no_words_undefined(self):
        ft = {}
        assert fluency_doc(_tokens("..."), ft) is None

    def test_least3(self):
        ft = {"aa": 10, "bb": 20, "cc": 30, "dd": 40}
        assert fluency_least3(_tokens("aa bb cc dd"), ft) == 20.0

    def test_least3_fewer_types(self):
        ft = {"aa": 5, "bb": 15}
        assert fluency_least3(_tokens("aa bb"), ft) == 10.0
        ft2 = {"aa": 7}
        assert fluency_least3(_tokens("aa aa"), ft2) == 7.0

    def test_mean_is_correctly_rounded(self):
        # ten 0.1s sum to 0.9999999999999999 left to right, so the mean
        # depended on the Python version's builtin sum
        ft = {"aa": 0.1}
        assert fluency_doc(_tokens(" ".join(["aa"] * 10)), ft) == 0.1
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, 0.6 exactly rounded
        ft = {"aa": 0.1, "bb": 0.2, "cc": 0.3, "dd": 0.4}
        assert fluency_least3(_tokens("dd cc bb aa"), ft) == 0.6 / 3

    def test_sum_past_the_float_range_keeps_a_finite_mean(self):
        ft = {"aa": 1.5e308, "bb": 1.5e308}
        assert fluency_doc(_tokens("aa bb"), ft) == 1.5e308
        assert fluency_least3(_tokens("aa bb"), ft) == 1.5e308

    def test_order_invariance(self):
        ft = {"aa": 3, "bb": 9}
        assert fluency_doc(_tokens("aa bb aa"), ft) == fluency_doc(_tokens("aa aa bb"), ft)

    def test_shipped_table_loads(self):
        ft = load_frequency_table()
        assert ft["the"] > ft["government"] > 0

    def test_repeated_word_rejected(self, tmp_path):
        # the lowercased word is the key, so a casing variant repeats it
        f = tmp_path / "f.tsv"
        f.write_text("the\t5\nof\t3\nThe\t2\n")
        with pytest.raises(LexiconFormatError) as info:
            load_frequency_table(f)
        assert str(info.value) == f"{f}:3: duplicate word 'the'"


class TestSentiment:
    def _lex(self, terms=None, boosters=None, negators=()):
        return SentimentLexicon(
            terms=terms or {}, boosters=boosters or {}, negators=frozenset(negators)
        )

    def _sents(self, text):
        return split_sentences(text)

    def test_defaults_with_no_terms(self):
        sl = self._lex()
        assert sentiment_strength(self._sents("Nothing here."), sl) == (-1.0, 1.0)

    def test_booster_and_clamp(self):
        sl = self._lex(terms={"terrible": -4}, boosters={"very": 1})
        neg, pos = sentiment_strength(self._sents("very terrible"), sl)
        assert (neg, pos) == (-5.0, 1.0)

    def test_mean_over_sentences(self):
        sl = self._lex(terms={"bad": -2, "awful": -4})
        neg, _ = sentiment_strength(self._sents("It was bad. It was awful."), sl)
        assert neg == -3.0

    def test_negated_positive_flips(self):
        sl = self._lex(terms={"good": 4}, negators=["not"])
        neg, pos = sentiment_strength(self._sents("not good"), sl)
        assert neg == -3.0
        assert pos == 1.0

    def test_negated_negative_neutralized(self):
        sl = self._lex(terms={"bad": -3}, negators=["not"])
        neg, pos = sentiment_strength(self._sents("not bad"), sl)
        assert (neg, pos) == (-1.0, 1.0)

    def test_output_ranges(self):
        sl = load_sentiment_lexicon()
        for text in ("Horrific terrifying disaster!", "Absolutely wonderful perfect day.",
                     "Plain text only."):
            neg, pos = sentiment_strength(self._sents(text), sl)
            assert -5.0 <= neg <= -1.0
            assert 1.0 <= pos <= 5.0

    def test_neutral_sentence_moves_toward_default(self):
        sl = self._lex(terms={"awful": -4})
        one, _ = sentiment_strength(self._sents("So awful."), sl)
        two, _ = sentiment_strength(self._sents("So awful. Nothing else."), sl)
        assert one <= two <= -1.0

    def test_empty_sentence_list_rejected(self):
        with pytest.raises(ValueError):
            sentiment_strength([], self._lex())

    def test_stems_not_a_constructor_argument(self):
        # the stem table is compiled from `terms`; a passed one was overwritten
        for table in ({"_stem_strengths": {"good": 3}}, {"_stem_prefixes": frozenset("g")}):
            with pytest.raises(TypeError):
                SentimentLexicon(terms={"bad*": -2}, boosters={}, negators=frozenset(), **table)

    @staticmethod
    def _reference_strength(terms, word):
        # exact term first, else the longest trailing-* stem that prefixes it
        w = word.lower()
        if w in terms:
            return terms[w]
        stems = [k[:-1] for k in terms if k.endswith("*") and w.startswith(k[:-1])]
        return terms[max(stems, key=len) + "*"] if stems else None

    def test_strength_matches_terms(self):
        terms = {"bad*": -2, "badly": -3, "bad": -1, "ba*": 2, "good": 4, "goo*": 1}
        sl = self._lex(terms=terms)
        for word in ("bad", "Badly", "badness", "bark", "BA", "good", "goods", "go", "x"):
            assert sl.strength(word) == self._reference_strength(terms, word), word
        shipped = load_sentiment_lexicon()
        for word in (*shipped.terms, "Horrific", "terrifying", "wonderfully", "table"):
            assert shipped.strength(word) == self._reference_strength(shipped.terms, word), word


class _CountingSet(frozenset):
    """A frozenset that counts its membership tests."""
    probes = 0

    def __contains__(self, item):
        self.probes += 1
        return super().__contains__(item)


# 3,000 stems: every string of two and three letters over a-h, and the first
# 2,424 of four letters, so most stems prefix others
_GENERATED_STEMS = ["".join(p) for n in (2, 3, 4)
                    for p in itertools.product("abcdefgh", repeat=n)][:3000]


class TestStemWalk:
    """Both lexicons find a word's stems by one walk over its prefixes."""

    @staticmethod
    @hs.composite
    def _lexicons(draw):
        # stems and words over three letters, so stems nest and overlap; exact
        # entries include stems' texts, and lookups mix in capitals
        piece = hs.text(alphabet="abc", min_size=1, max_size=4)
        stems = draw(hs.lists(piece, max_size=10, unique=True))
        texts = hs.one_of(piece, hs.sampled_from(stems)) if stems else piece
        exact = draw(hs.lists(texts, max_size=10, unique=True))
        strengths = hs.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5])
        terms = {**{w: draw(strengths) for w in exact}, **{s + "*": draw(strengths) for s in stems}}
        cats = ["x", "y", "z"]
        where = hs.lists(hs.sampled_from(cats), min_size=1, max_size=3, unique=True)
        exact_in = {cat: {} for cat in cats}
        stems_in = {cat: [] for cat in cats}
        for w in exact:
            for cat in draw(where):
                exact_in[cat][w] = None
        for s in stems:
            for cat in draw(where):
                stems_in[cat].append(s)
        words = draw(hs.lists(hs.text(alphabet="abcABC", min_size=1, max_size=7), max_size=12))
        return terms, CategoryLexicon(exact=exact_in, stems=stems_in), words

    @settings(max_examples=300, deadline=None)
    @given(_lexicons())
    def test_matches_the_scan_of_every_stem(self, drawn):
        terms, categories, words = drawn
        sentiment = SentimentLexicon(terms=terms, boosters={}, negators=frozenset())
        for word in words:
            assert sentiment.strength(word) == TestSentiment._reference_strength(terms, word)
            tokens = _word(word)
            assert match_categories(tokens, categories) == _scan_counts(tokens, categories)
        tokens = _tokens(" ".join(words))
        assert match_categories(tokens, categories) == _scan_counts(tokens, categories)

    def test_lookup_probes_bounded_by_word_length(self):
        terms = {s + "*": 2 + i % 4 for i, s in enumerate(_GENERATED_STEMS)}
        sl = SentimentLexicon(terms=terms, boosters={}, negators=frozenset())
        for word in ("abcdefgh", "ABCD", "abca", "hgfedcba", "hhhh", "zzz", "a", "ab"):
            sl._stem_prefixes = counting = _CountingSet(sl._stem_prefixes)
            assert sl.strength(word) == TestSentiment._reference_strength(terms, word), word
            assert counting.probes <= len(word) + 1, word


class TestSentimentFileFormat:
    def test_round_trip_sections(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("%terms\ngood\t3\nbad*\t-2\n%boosters\nvery\t1\n%negators\nnot\n")
        sl = load_sentiment_lexicon(f)
        assert sl.strength("good") == 3
        assert sl.strength("badly") == -2
        assert sl.boosters["very"] == 1
        assert "not" in sl.negators

    def test_out_of_range_strength(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("good\t1\n")
        with pytest.raises(LexiconFormatError):
            load_sentiment_lexicon(f)

    @pytest.mark.parametrize("content, message", [
        # a bare * would be the empty stem, a prefix of every word
        ("good\t3\n*\t3\n", ":2: wildcard only allowed as trailing * after a stem: '*'"),
        ("da*mn\t-3\n", ":1: wildcard only allowed as trailing * after a stem: 'da*mn'"),
        ("*bad\t-3\n", ":1: wildcard only allowed as trailing * after a stem: '*bad'"),
        ("bad**\t-3\n", ":1: wildcard only allowed as trailing * after a stem: 'bad**'"),
        ("%boosters\nvery*\t1\n", ":2: wildcard not allowed in %boosters: 'very*'"),
        ("%negators\nno*\n", ":2: wildcard not allowed in %negators: 'no*'"),
        ("%negators\n*\n", ":2: wildcard not allowed in %negators: '*'"),
        ("%negators\nnot\t1\n", ":2: expected one negator, got 'not\\t1'"),
    ])
    def test_malformed_wildcard_or_negator(self, tmp_path, content, message):
        f = tmp_path / "s.tsv"
        f.write_text(content)
        with pytest.raises(LexiconFormatError) as info:
            load_sentiment_lexicon(f)
        assert str(info.value) == f"{f}{message}"

    @pytest.mark.parametrize("content, message", [
        ("good\t3\ngood\t-3\n", ":2: duplicate term 'good' in %terms"),
        ("bad*\t-2\n%terms\nBAD*\t-2\n", ":3: duplicate term 'bad*' in %terms"),
        ("%boosters\nvery\t1\n%negators\nnot\n%boosters\nvery\t2\n",
         ":6: duplicate booster 'very' in %boosters"),
        ("%negators\nnot\nNot\n", ":3: duplicate negator 'not' in %negators"),
    ])
    def test_repeated_key_rejected(self, tmp_path, content, message):
        f = tmp_path / "s.tsv"
        f.write_text(content)
        with pytest.raises(LexiconFormatError) as info:
            load_sentiment_lexicon(f)
        assert str(info.value) == f"{f}{message}"

    def test_same_word_in_two_sections_accepted(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("not\t-2\n%boosters\nnot\t1\n%negators\nnot\n")
        sl = load_sentiment_lexicon(f)
        assert (sl.terms, sl.boosters, sl.negators) == ({"not": -2}, {"not": 1}, {"not"})


# non-ASCII letters, curly quotes and hyphens, alone or as suffixes of entries
_ODD_TEXT = hs.text(alphabet="abeorsyéÉüñßΣσ’‘“”'-", min_size=1, max_size=12)
_memo_words = hs.one_of(
    _words,
    _ODD_TEXT,
    hs.tuples(hs.sampled_from(_SHIPPED_ENTRIES), _ODD_TEXT).map("".join),
)


class TestHitMemo:
    """Memoized category hits must equal the per-category scan's, first
    time and from the memo."""

    def _lex(self, tmp_path, name, content):
        f = tmp_path / f"{name}.dic"
        f.write_text(content)
        return load_category_lexicon(f)

    @settings(max_examples=300, deadline=None)
    @given(hs.lists(_memo_words, max_size=25))
    def test_hits_match_uncached(self, words):
        for word in words:
            tokens = _word(word)
            for _ in range(2):
                assert match_categories(tokens, _SHIPPED) == _scan_counts(tokens, _SHIPPED)

    @settings(max_examples=300, deadline=None)
    @given(hs.lists(_memo_words, max_size=25))
    def test_match_categories_match_uncached(self, words):
        tokens = _tokens(" ".join(words))
        for _ in range(2):
            assert match_categories(tokens, _SHIPPED) == _scan_counts(tokens, _SHIPPED)

    def test_lexicons_never_share_answers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ts, "_types", {})  # one record per word for both lexicons
        a = self._lex(tmp_path, "a", "%x\ncat*\n%y\ndog\n")
        b = self._lex(tmp_path, "b", "%y\ncat\n%x\ndog*\n")
        for word in ["cat", "cats", "dog", "dogs", "bird"] * 2:
            for lex in (a, b):
                assert _hits(word, lex) == _scan_hits(word, lex)
        assert (_hits("cats", a), _hits("cats", b)) == (["x"], [])
        assert (_hits("dogs", a), _hits("dogs", b)) == ([], ["x"])
        assert _word("cats")[0].categories[0] is b
        # the records' hits are not part of a lexicon's value
        (tmp_path / "again").mkdir()
        assert a == self._lex(tmp_path / "again", "a", "%x\ncat*\n%y\ndog\n")

    def test_memo_stays_under_cap(self, monkeypatch):
        # category hits are stored on the type table's records, so the
        # table's cap bounds them
        monkeypatch.setattr(ts, "_types", {})
        lex = load_category_lexicon()
        stem = next(s for cat in lex.stems for s in lex.stems[cat])
        words = [stem + "".join(string.ascii_lowercase[int(d)] for d in str(i))
                 for i in range(ts.TYPE_CAP + 100)]
        for word in words:
            match_categories(_tokens(word), lex)
        assert len(ts._types) == ts.TYPE_CAP
        assert all(tok.categories[0] is lex for tok in ts._types.values())
        # words past the cap are still answered, just not remembered
        for word in (words[0], words[-1]):
            assert _hits(word, lex) == _scan_hits(word, lex) != []
            assert match_categories(_tokens(word), lex) == _scan_counts(_tokens(word), lex)
        assert _tokens(words[-1])[0].categories is None


def test_stopwords_load():
    sw = load_stopwords()
    assert {"the", "is", "on"} <= sw
