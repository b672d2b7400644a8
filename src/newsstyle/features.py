"""The full feature catalog for a document part (title or body).

Features fall into three families: complexity (readability indices, tree
depths, fluency, lexical diversity), psychology (category counts and
sentiment strengths), and stylistic (POS counts, stop-word percentage,
punctuation, capitalization). A value of None marks a feature whose
preconditions fail (e.g. fluency on a part with no words); everything
else is a float. ``extract_all`` returns a dict of every catalog feature,
in ``CATALOG`` order; the catalog and the matrix that holds one row of
those values per document live in ``newsstyle.matrix``.
"""

from __future__ import annotations

import math

from . import Record
from . import lexicon as lx
from . import postag as pt
from . import textseg as ts
from .corpus import Document
from .matrix import (  # noqa: F401  (read_matrix, write_matrix: bench/spans.py traces them here)
    CATALOG,
    POS_FEATURES,
    PSYCH_CATEGORY_FEATURES,
    STYLISTIC_CATEGORY_FEATURES,
    read_matrix,
    write_matrix,
)

# Penn fine tags folded into the catalog's coarse counts
_TAG_FOLD = {
    "NN": "NN", "NNS": "NN", "NNP": "NNP", "NNPS": "NNP",
    "PRP": "PRP", "PRP$": "PRP$", "WP": "WP", "WP$": "WP",
    "DT": "DT", "WDT": "WDT", "CD": "CD",
    "RB": "RB", "RBR": "RB", "RBS": "RB", "UH": "UH",
    "VB": "VB", "JJ": "JJ", "JJR": "JJ", "JJS": "JJ",
    "VBD": "VBD", "VBG": "VBG", "VBN": "VBN", "VBP": "VBP", "VBZ": "VBZ",
}

_QUOTE_CHARS = set('"\'“”‘’')

NA = None


class Resources(Record):
    """Everything extraction needs, loaded once and shared."""
    __slots__ = _fields = ("tagger", "categories", "frequency", "sentiment", "stopwords")

    def __init__(self, tagger: pt.TaggerModel, categories: lx.CategoryLexicon,
                 frequency: dict[str, float], sentiment: lx.SentimentLexicon,
                 stopwords: frozenset[str]):
        self.tagger = tagger
        self.categories = categories
        self.frequency = frequency  # word -> frequency per million
        self.sentiment = sentiment
        self.stopwords = stopwords

    @classmethod
    def default(cls, tagger_model=None, category_lexicon=None, frequency_table=None,
                sentiment_lexicon=None, stoplist=None) -> "Resources":
        """The resources in the given files; None names the shipped file. A
        category lexicon must hold every catalog category, so that no
        category column is zero for want of its block."""
        tagger = pt.TaggerModel.load(tagger_model) if tagger_model else pt.default_model()
        categories = lx.load_category_lexicon(category_lexicon)
        missing = [name for name in STYLISTIC_CATEGORY_FEATURES + PSYCH_CATEGORY_FEATURES
                   if name not in categories.exact]
        if missing:
            raise lx.LexiconFormatError(f"{category_lexicon}: no %category block for {missing}")
        return cls(
            tagger=tagger, categories=categories,
            frequency=lx.load_frequency_table(frequency_table),
            sentiment=lx.load_sentiment_lexicon(sentiment_lexicon),
            stopwords=lx.load_stopwords(stoplist),
        )


def _median(xs: tuple[int, ...]) -> float:
    xs = sorted(xs)
    n = len(xs)
    mid = n // 2
    if n % 2:
        return float(xs[mid])
    return (xs[mid - 1] + xs[mid]) / 2.0


def extract_all(doc: Document, part: str, resources: Resources) -> dict[str, float | None]:
    """Every catalog feature for one document part.

    The part is split, tagged and chunked once. One walk over its (token,
    tag) pairs counts the words, syllables, casing, stop words, folded POS
    tags and punctuation; the sentences' tree metrics give the depth
    medians and ``#vps``; four ``lexicon`` calls give the category counts,
    the two fluencies and the sentiment strengths. The values are keyed in
    ``CATALOG`` order. An empty part yields all-undefined markers.
    """
    if part not in ("title", "body"):
        raise ValueError(f"part must be 'title' or 'body', got {part!r}")
    text = doc.title if part == "title" else doc.body
    if not text.strip():
        return dict.fromkeys(CATALOG, NA)
    # every non-space character is a token, so there is at least one sentence
    sentences = ts.split_sentences(text)
    tagged = [pt.tag(s, resources.tagger) for s in sentences]
    depths, np_depths, vp_depths, vps = zip(
        *[pt.tree_metrics(pt.chunk(t)) for t in tagged])
    n_sent = len(sentences)

    words: list[ts.Token] = []
    syllables = poly = complex_words = caps = stop = letters = punct = quotes = exclaim = 0
    pos = dict.fromkeys(POS_FEATURES, 0.0)  # float counts are exact integers
    stopwords = resources.stopwords
    for t in tagged:
        for tok, tag in t.tokens:
            folded = _TAG_FOLD.get(tag)
            if folded is not None:
                pos[folded] += 1
            kind = tok.kind
            if kind == ts.WORD:
                words.append(tok)
                n = tok.syllables
                syllables += n
                if n >= 3:
                    poly += 1
                    complex_words += ts.is_complex_word(tok, tag)
                caps += tok.is_all_caps
                stop += tok.lower in stopwords
                letters += len(tok.norm)
            elif kind == ts.PUNCT or kind == ts.SYMBOL:
                punct += kind == ts.PUNCT
                quotes += tok.text in _QUOTE_CHARS
                exclaim += tok.text == "!"

    n_words = len(words)
    if n_words:
        gi = 0.4 * (n_words / n_sent + 100.0 * complex_words / n_words)
        smog = 1.0430 * math.sqrt(poly * 30.0 / n_sent) + 3.1291
        fk = 0.39 * n_words / n_sent + 11.8 * syllables / n_words - 15.59
        ttr = len({tok.lower for tok in words}) / n_words
        avg_wlen = letters / n_words
        wps = n_words / n_sent
        per_stop = 100.0 * stop / n_words
    else:
        gi = smog = fk = ttr = avg_wlen = wps = per_stop = NA
    freq = resources.frequency
    cats = lx.match_categories(words, resources.categories)
    values: dict[str, float | None] = {
        "GI": gi, "SMOG": smog, "FK": fk,
        "med_depth": _median(depths), "med_np_depth": _median(np_depths),
        "med_vp_depth": _median(vp_depths),
        "flu_coca_c": lx.fluency_least3(words, freq), "flu_coca_d": lx.fluency_doc(words, freq),
        "TTR": ttr, "avg_wlen": avg_wlen, "WC": float(n_words), "WPS": wps,
    }
    values.update(pos)
    for name in STYLISTIC_CATEGORY_FEATURES:
        values[name] = float(cats.get(name, 0))
    values["exclaim"] = float(exclaim)
    values["all_caps"] = float(caps)
    values["per_stop"] = per_stop
    values["allPunc"] = float(punct)
    values["quotes"] = float(quotes)
    values["#vps"] = float(sum(vps))
    for name in PSYCH_CATEGORY_FEATURES:
        values[name] = float(cats.get(name, 0))
    values["str_neg"], values["str_pos"] = lx.sentiment_strength(sentences, resources.sentiment)
    return values
