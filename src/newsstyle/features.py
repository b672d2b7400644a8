"""The full feature catalog for a document part (title or body).

Features fall into three families: complexity (readability indices, tree
depths, fluency, lexical diversity), psychology (category counts and
sentiment strengths), and stylistic (POS counts, stop-word percentage,
punctuation, capitalization). A value of None marks a feature whose
preconditions fail (e.g. fluency on a part with no words); everything
else is a float. The catalog and the matrix that collects the vectors
live in ``newsstyle.matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class Resources:
    """Everything extraction needs, loaded once and shared."""
    tagger: pt.TaggerModel
    categories: lx.CategoryLexicon
    frequency: dict[str, float]  # word -> frequency per million
    sentiment: lx.SentimentLexicon
    stopwords: frozenset[str]

    @classmethod
    def default(cls) -> "Resources":
        return cls(
            tagger=pt.default_model(),
            categories=lx.load_category_lexicon(),
            frequency=lx.load_frequency_table(),
            sentiment=lx.load_sentiment_lexicon(),
            stopwords=lx.load_stopwords(),
        )


@dataclass
class FeatureVector:
    doc_id: str
    part: str  # title | body
    values: dict[str, float | None] = field(default_factory=dict)


def _median(xs: list[float]) -> float:
    xs = sorted(xs)
    n = len(xs)
    mid = n // 2
    if n % 2:
        return float(xs[mid])
    return (xs[mid - 1] + xs[mid]) / 2.0


def extract_complexity(
    pairs: list[tuple[ts.Token, str]],
    n_sent: int,
    metrics: list[tuple[int, int, int, int]],
    freq: dict[str, float],
) -> dict[str, float | None]:
    """Readability indices, tree-depth medians, fluency, TTR, word length.

    ``pairs`` holds the part's (token, tag) pairs over its ``n_sent``
    sentences, and ``metrics`` holds ``pt.tree_metrics`` of each sentence's
    flat ``pt.chunk`` phrases (the depths of the tree they form under the
    sentence root).
    """
    words = [(tok, t) for tok, t in pairs if tok.kind == ts.WORD]
    word_toks = [tok for tok, _ in words]
    out: dict[str, float | None] = {}
    n_words = len(words)
    if n_words == 0:
        out.update({name: NA for name in ("GI", "SMOG", "FK", "TTR", "avg_wlen")})
    else:
        counts = [tok.syllables for tok in word_toks]
        syllables = sum(counts)
        poly = sum(1 for c in counts if c >= 3)
        complex_words = sum(1 for (tok, t), c in zip(words, counts)
                            if c >= 3 and ts.is_complex_word(tok.norm, t, c))
        out["GI"] = 0.4 * (n_words / n_sent + 100.0 * complex_words / n_words)
        out["FK"] = 0.39 * n_words / n_sent + 11.8 * syllables / n_words - 15.59
        out["SMOG"] = 1.0430 * math.sqrt(poly * 30.0 / n_sent) + 3.1291
        out["TTR"] = len({tok.lower for tok in word_toks}) / n_words
        out["avg_wlen"] = sum(len(tok.norm) for tok in word_toks) / n_words
    out["med_depth"] = _median([m[0] for m in metrics]) if metrics else NA
    out["med_np_depth"] = _median([m[1] for m in metrics]) if metrics else NA
    out["med_vp_depth"] = _median([m[2] for m in metrics]) if metrics else NA
    out["flu_coca_d"] = lx.fluency_doc(word_toks, freq)
    out["flu_coca_c"] = lx.fluency_least3(word_toks, freq)
    return out


def extract_stylistic(
    pairs: list[tuple[ts.Token, str]],
    n_sent: int,
    metrics: list[tuple[int, int, int, int]],
    cat_counts: dict[str, int],
    stopwords: frozenset[str],
) -> dict[str, float | None]:
    """Word/sentence counts, folded POS counts, punctuation and casing.

    ``pairs`` holds the part's (token, tag) pairs over its ``n_sent``
    sentences, ``metrics`` holds ``pt.tree_metrics`` of each sentence's
    flat ``pt.chunk`` phrases (``#vps`` sums their VP counts) and
    ``cat_counts`` is ``lx.match_categories`` over the part's tokens.
    """
    tokens = [tok for tok, _ in pairs]
    words = [tok for tok in tokens if tok.kind == ts.WORD]
    out: dict[str, float | None] = {}
    wc = len(words)
    out["WC"] = float(wc)
    pos_counts = {name: 0 for name in POS_FEATURES}
    for _, t in pairs:
        folded = _TAG_FOLD.get(t)
        if folded in pos_counts:
            pos_counts[folded] += 1
    out.update({k: float(v) for k, v in pos_counts.items()})
    out["all_caps"] = float(sum(1 for t in words if t.is_all_caps))
    if wc == 0:
        out["per_stop"] = NA
        out["WPS"] = NA
    else:
        out["per_stop"] = 100.0 * sum(1 for t in words if t.lower in stopwords) / wc
        out["WPS"] = wc / n_sent
    out["allPunc"] = float(sum(1 for t in tokens if t.kind == ts.PUNCT))
    out["quotes"] = float(
        sum(1 for t in tokens if t.kind in (ts.PUNCT, ts.SYMBOL) and t.text in _QUOTE_CHARS)
    )
    out["exclaim"] = float(sum(1 for t in tokens if t.text == "!"))
    out["#vps"] = float(sum(m[3] for m in metrics))
    for name in STYLISTIC_CATEGORY_FEATURES:
        out[name] = float(cat_counts.get(name, 0))
    return out


def extract_psychological(
    sentences: list[ts.Sentence],
    cat_counts: dict[str, int],
    sentiment: lx.SentimentLexicon,
) -> dict[str, float | None]:
    """Category counts plus average sentence-level sentiment strengths.

    ``cat_counts`` is ``lx.match_categories`` over the part's tokens.
    """
    out: dict[str, float | None] = {
        name: float(cat_counts.get(name, 0)) for name in PSYCH_CATEGORY_FEATURES
    }
    if sentences:
        neg, pos = lx.sentiment_strength(sentences, sentiment)
        out["str_neg"], out["str_pos"] = neg, pos
    else:
        out["str_neg"] = out["str_pos"] = NA
    return out


def extract_all(doc: Document, part: str, resources: Resources) -> FeatureVector:
    """Every catalog feature for one document part.

    The part is split, tagged and chunked once; its (token, tag) pairs,
    tree metrics and category counts are computed once and shared by the
    three families. An empty part yields a vector of all-undefined markers.
    """
    if part not in ("title", "body"):
        raise ValueError(f"part must be 'title' or 'body', got {part!r}")
    text = doc.title if part == "title" else doc.body
    vec = FeatureVector(doc_id=doc.id, part=part)
    if not text.strip():
        vec.values = {name: NA for name in CATALOG}
        return vec
    sentences = ts.split_sentences(text)
    tagged = [pt.tag(s, resources.tagger) for s in sentences]
    metrics = [pt.tree_metrics(pt.chunk(t)) for t in tagged]
    pairs = [pair for t in tagged for pair in t.tokens]
    n_sent = len(sentences)
    cat_counts = lx.match_categories([tok for tok, _ in pairs], resources.categories)
    values: dict[str, float | None] = {}
    values.update(extract_complexity(pairs, n_sent, metrics, resources.frequency))
    values.update(extract_stylistic(pairs, n_sent, metrics, cat_counts, resources.stopwords))
    values.update(extract_psychological(sentences, cat_counts, resources.sentiment))
    vec.values = {name: values[name] for name in CATALOG}
    return vec
