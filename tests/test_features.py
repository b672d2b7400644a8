import csv
import hashlib
import io
import math
import random
import tracemalloc
import weakref
from pathlib import Path

import pytest

from build_tagger_model import CORPUS, load_pretagged, save_model, train_tagger
from conftest import run_fresh, write_synthetic_corpus
import newsstyle.corpus as cp
import newsstyle.lexicon as lx
import newsstyle.postag as pt
import newsstyle.textseg as ts
from newsstyle.cli import main
from newsstyle.corpus import LABELS, Document, load_corpus
from newsstyle.features import (
    _TAG_FOLD,
    Resources,
    _median,
    extract_all,
)
from newsstyle.matrix import (
    CATALOG,
    POS_FEATURES,
    PSYCH_CATEGORY_FEATURES,
    STYLISTIC_CATEGORY_FEATURES,
    FeatureMatrix,
    MatrixFormatError,
    _format_value,
    read_matrix,
    write_matrix,
)

FAKE_TITLE = (
    '"BREAKING BOMBSHELL: NYPD Blows Whistle on New Hillary Emails: '
    "Money Laundering, Sex Crimes with Children, Child Exploitation, "
    'Pay to Play, Perjury"'
)

REAL_TITLE = "Preexisting Conditions and Republican Plans to Replace Obamacare"


def _doc(body="", title="", id="d1", label="real"):
    return Document(id=id, source="", label=label, title=title, body=body)


def _vec(text, resources, part="body"):
    doc = _doc(body=text) if part == "body" else _doc(title=text, body="x.")
    return extract_all(doc, part, resources)


def _extracted(docs, part, resources) -> FeatureMatrix:
    """The matrix ``extract`` writes for ``docs``: a row of each one's
    ``extract_all`` values, in ``CATALOG`` order."""
    return FeatureMatrix(feature_names=CATALOG, doc_ids=tuple(doc.id for doc in docs),
                         labels=tuple(doc.label for doc in docs), part=part,
                         rows=[list(extract_all(doc, part, resources).values()) for doc in docs])


class TestReadabilityAnchors:
    def test_fk(self, resources):
        v = _vec("The cat sat. The dog ran.", resources)
        assert v["FK"] == pytest.approx(0.39 * 3 + 11.8 * 1 - 15.59, abs=1e-9)

    def test_gi(self, resources):
        v = _vec("The cat sat. The dog ran.", resources)
        assert v["GI"] == pytest.approx(1.2, abs=1e-9)

    def test_ttr(self, resources):
        v = _vec("the cat and the dog", resources)
        assert v["TTR"] == pytest.approx(0.8, abs=1e-12)

    def test_smog_formula(self, resources):
        text = "The beautiful education initiative flourished. It was wonderful."
        v = _vec(text, resources)
        assert v["SMOG"] > 3.1291  # poly count > 0 pushes above the constant


class TestGoldenTitles:
    def test_fake_title_counts(self, resources):
        v = _vec(FAKE_TITLE, resources, part="title")
        assert v["all_caps"] == 3
        assert v["WC"] == 21
        assert v["WPS"] == 21
        assert v["exclaim"] == 0

    def test_real_title_counts(self, resources):
        v = _vec(REAL_TITLE, resources, part="title")
        assert v["all_caps"] == 0
        assert v["WC"] == 8
        assert v["exclaim"] == 0

    def test_fake_vs_real_contrasts(self, resources):
        fake = _vec(FAKE_TITLE, resources, part="title")
        real = _vec(REAL_TITLE, resources, part="title")
        assert fake["NNP"] > real["NNP"]
        assert fake["per_stop"] < real["per_stop"]


class TestExtractAll:
    def test_covers_catalog_exactly(self, resources):
        v = _vec("A simple test sentence appears here.", resources)
        assert tuple(v.keys()) == CATALOG

    def test_empty_part_all_undefined(self, resources):
        values = extract_all(_doc(body="Body text."), "title", resources)
        assert list(values.items()) == [(name, None) for name in CATALOG]

    def test_bad_part_rejected(self, resources):
        with pytest.raises(ValueError):
            extract_all(_doc(body="x."), "abstract", resources)

    def test_deterministic(self, resources):
        doc = _doc(body="The senator announced a new budget. Critics disagreed loudly!")
        v1 = extract_all(doc, "body", resources)
        v2 = extract_all(doc, "body", resources)
        assert v1 == v2

    def test_punctuation_only_text(self, resources):
        v = _vec("...!!!", resources)
        assert v["WC"] == 0
        assert v["per_stop"] is None
        assert v["GI"] is None
        assert v["allPunc"] > 0

    def test_sentiment_fields_in_range(self, resources):
        v = _vec("It was a terrible, horrific failure. Still, a wonderful ending.", resources)
        assert -5.0 <= v["str_neg"] <= -1.0
        assert 1.0 <= v["str_pos"] <= 5.0

    def test_quotes_counted_as_characters(self, resources):
        v = _vec('He said "no" and left.', resources)
        assert v["quotes"] == 2

    def test_one_syllable_count_per_word(self, resources, monkeypatch):
        text = "The beautiful education initiative flourished. Washington was wonderful!"
        words = [t for s in ts.split_sentences(text) for t in s.tokens if t.kind == ts.WORD]
        poly = sum(1 for t in words if ts.count_syllables(t.lower) >= 3)
        monkeypatch.setattr(ts, "_types", {})  # records with no count yet
        calls = []
        count_syllables = ts.count_syllables

        def counting(word):
            calls.append(word)
            return count_syllables(word)

        monkeypatch.setattr(ts, "count_syllables", counting)
        extract_all(_doc(body=text), "body", resources)
        assert poly > 0
        # one count per record, none for the complexity test
        assert sorted(calls) == sorted({t.lower for t in words})

    def test_one_chunk_and_metrics_call_per_sentence(self, resources, monkeypatch):
        # the benchmark's trace reads tree_metrics.calls as the sentence
        # count, and wraps both names through the postag module
        text = "The senator announced a plan. Critics rejected it in the city! Why?"
        n_sent = len(ts.split_sentences(text))
        chunk, tree_metrics = pt.chunk, pt.tree_metrics
        chunked, measured = [], []

        def counting_chunk(tagged):
            chunked.append(chunk(tagged))
            return chunked[-1]

        def counting_metrics(phrases):
            measured.append(phrases)
            return tree_metrics(phrases)

        monkeypatch.setattr(pt, "chunk", counting_chunk)
        monkeypatch.setattr(pt, "tree_metrics", counting_metrics)
        extract_all(_doc(body=text), "body", resources)
        assert n_sent == 3
        assert len(chunked) == n_sent
        assert measured == chunked


class TestScalingProperties:
    BASE = "The governor denied the report. Officials were not amused!"

    def test_doubling_doubles_counts(self, resources):
        one = _vec(self.BASE, resources)
        two = _vec(self.BASE + " " + self.BASE, resources)
        for name in ("WC", "allPunc", "exclaim", "negate", "NN", "#vps"):
            assert two[name] == 2 * one[name]

    def test_doubling_preserves_ratios(self, resources):
        one = _vec(self.BASE, resources)
        two = _vec(self.BASE + " " + self.BASE, resources)
        assert two["per_stop"] == pytest.approx(one["per_stop"], abs=1e-9)
        assert two["avg_wlen"] == pytest.approx(one["avg_wlen"], abs=1e-9)
        assert two["WPS"] == pytest.approx(one["WPS"], abs=1e-9)

    def test_doubling_never_raises_ttr(self, resources):
        one = _vec(self.BASE, resources)
        two = _vec(self.BASE + " " + self.BASE, resources)
        assert two["TTR"] <= one["TTR"]

    def test_ttr_one_iff_distinct(self, resources):
        assert _vec("every word here differs", resources)["TTR"] == 1.0
        assert _vec("same same", resources)["TTR"] < 1.0


class TestMatrix:
    def _matrix(self, resources):
        docs = [
            _doc(body="The cat sat on the mat. It purred.", id="a", label="real"),
            _doc(body="SHOCKING news broke today!", id="b", label="fake"),
        ]
        return _extracted(docs, "body", resources)

    def test_round_trip(self, resources, tmp_path):
        m = self._matrix(resources)
        p = tmp_path / "m.csv"
        write_matrix(m, p)
        m2 = read_matrix(p)
        assert m2.feature_names == m.feature_names
        assert m2.doc_ids == m.doc_ids
        assert m2.labels == m.labels
        assert m2.part == "body"
        for r1, r2 in zip(m.rows, m2.rows):
            for v1, v2 in zip(r1, r2):
                if v1 is None:
                    assert v2 is None
                else:
                    assert v2 == pytest.approx(v1, abs=0)

    def test_rewrite_byte_identical(self, resources, tmp_path):
        m = self._matrix(resources)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix(m, p1)
        write_matrix(read_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("doc_id,label,part,NOT_A_FEATURE\nx,real,body,1\n")
        with pytest.raises(MatrixFormatError, match="NOT_A_FEATURE"):
            read_matrix(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("doc_id,label,part,WC,TTR\nx,real,body,5\n")
        with pytest.raises(MatrixFormatError, match=":2:"):
            read_matrix(p)

    @pytest.mark.parametrize("rows, match", [
        ("x,real,body,1\ny,alpha,body,2\n", ":3: label 'alpha'"),
        ("x,real,body,1\ny,fake,title,2\n", ":3: part 'title'"),
        ("x,real,abstract,1\n", ":2: part 'abstract'"),
    ])
    def test_bad_label_or_part_rejected(self, tmp_path, rows, match):
        p = tmp_path / "bad.csv"
        p.write_text("doc_id,label,part,WC\n" + rows)
        with pytest.raises(MatrixFormatError, match=match):
            read_matrix(p)

    @pytest.mark.parametrize("rows, match", [
        ("x,real,body,1,nan\n", r":2: nan in \['TTR'\]"),
        ("x,real,body,1,2\ny,fake,body,-NaN,NA\n", r":3: nan in \['WC'\]"),
        ("x,real,body,1,2\nx,fake,body,3,4\n", r":3: duplicate doc_id 'x' \(first on line 2\)"),
        ("x,real,body,1,many\n", ":2: could not convert string to float: 'many'"),
    ])
    def test_nan_duplicate_or_text_cell_rejected(self, tmp_path, rows, match):
        p = tmp_path / "bad.csv"
        p.write_text("doc_id,label,part,WC,TTR\n" + rows)
        with pytest.raises(MatrixFormatError, match=match):
            read_matrix(p)

    @pytest.mark.parametrize("cell", [
        "nan", " +NaN ", "-nAn", "NAN", "inf", "-Infinity", "1e5", "1_0", "-0.5E-3", "NA",
    ])
    def test_nan_found_in_every_spelling_float_accepts(self, tmp_path, cell):
        p = tmp_path / "m.csv"
        p.write_text(f"doc_id,label,part,WC,TTR\nx,real,body,{cell},1\n")
        if cell != "NA" and math.isnan(float(cell)):
            with pytest.raises(MatrixFormatError, match=r":2: nan in \['WC'\]"):
                read_matrix(p)
        else:
            assert read_matrix(p).column("WC") == [None if cell == "NA" else float(cell)]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,label,part,WC\nx,real,body,1\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(p)

    def test_na_round_trip(self, resources, tmp_path):
        m = _extracted([_doc(body="...", id="p", label="real")], "body", resources)
        p = tmp_path / "na.csv"
        write_matrix(m, p)
        assert "NA" in p.read_text()
        assert read_matrix(p).column("GI") == [None]

    def test_group_column(self, resources):
        m = self._matrix(resources)
        assert m.group_column("WC", "fake") == [4.0]

    def test_infinite_values_round_trip(self, tmp_path):
        assert _format_value(float("inf")) == "inf"
        assert _format_value(float("-inf")) == "-inf"
        values = {n: 1.0 for n in CATALOG} | {"WC": float("inf"), "TTR": float("-inf")}
        p = tmp_path / "inf.csv"
        write_matrix(FeatureMatrix(feature_names=CATALOG, doc_ids=("x",), labels=("real",),
                                   part="body", rows=[list(values.values())]), p)
        m = read_matrix(p)
        assert m.column("WC") == [float("inf")]
        assert m.column("TTR") == [float("-inf")]


# sha256 of the CSVs `extract` writes for the seed-3 synthetic corpus (12 docs
# per label). Any change to a feature value or to the CSV format changes them.
# They are the same on every supported Python version: the fluency means sum
# with math.fsum, not with builtin sum, whose float result changed in 3.12.
GOLDEN_EXTRACT_SHA256 = {
    "body": "9e72981019ba5f51e82b1b91d01812a751f1c7c45e57de718d3edb09ac1f403c",
    "title": "b11335918c49bfc18adfb8f3d2a27fde89354eedeba2dd7110a93839aedf750b",
}


def test_golden_extract_output(tmp_path):
    corpus = write_synthetic_corpus(tmp_path / "corpus",
                                    {"real": 12, "fake": 12, "satire": 12}, seed=3)
    for part, expected in GOLDEN_EXTRACT_SHA256.items():
        out = tmp_path / f"{part}.csv"
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2",
                     "--part", part, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, part


def test_resources_reused_across_runs(tmp_path):
    # the records' syllable counts, category hits and tagger entries fill on
    # the first pass and answer the second; both passes must write the
    # golden bytes
    corpus, _ = load_corpus(write_synthetic_corpus(
        tmp_path / "corpus", {"real": 12, "fake": 12, "satire": 12}, seed=3), 2)
    resources = Resources.default()
    for run in range(2):
        for part, expected in GOLDEN_EXTRACT_SHA256.items():
            out = tmp_path / f"{part}{run}.csv"
            write_matrix(_extracted(corpus.documents, part, resources), out)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, (run, part)


def _rotated_categories(path: Path) -> None:
    """The shipped category lexicon with each block's entries under the
    previous block's header, so every word has other category indices."""
    text = (Path(lx.__file__).parent / "resources" / "categories.dic").read_text(
        encoding="utf-8")
    head, *blocks = text.split("\n%")
    headers = [block.split("\n", 1)[0] for block in blocks]
    entries = [block.split("\n", 1)[1] for block in blocks]
    rotated = zip(headers, entries[1:] + entries[:1])
    path.write_text(head + "".join(f"\n%{h}\n{e}" for h, e in rotated), encoding="utf-8")


class TestTypeTable:
    """Records shared across documents, parts and resources never change a
    row: whatever the cap and whichever resources filled them first."""

    @pytest.mark.parametrize("cap", [0, 1, 5])
    def test_cap_keeps_the_golden_bytes(self, tmp_path, monkeypatch, cap):
        monkeypatch.setattr(ts, "_types", {})
        monkeypatch.setattr(ts, "TYPE_CAP", cap)
        corpus = write_synthetic_corpus(tmp_path / "corpus",
                                        {"real": 12, "fake": 12, "satire": 12}, seed=3)
        for part, expected in GOLDEN_EXTRACT_SHA256.items():
            out = tmp_path / f"{part}.csv"
            assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2",
                         "--part", part, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, part
            assert len(ts._types) == cap

    def test_two_models_and_two_lexicons_in_one_process_match_fresh_processes(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(ts, "_types", {})  # so the records are shared whatever ran before
        corpus_dir = write_synthetic_corpus(tmp_path / "corpus",
                                            {"real": 4, "fake": 4, "satire": 4}, seed=6)
        corpus, _ = load_corpus(corpus_dir, 2)
        shipped = pt.default_model()
        other = train_tagger(load_pretagged(CORPUS)[:60], epochs=1, seed=3)
        other_path = tmp_path / "other_model.json"
        save_model(pt.TaggerModel(tagset=shipped.tagset, weights=other.weights,
                                  lexical_backoff=shipped.lexical_backoff,
                                  version=shipped.version, vocab=shipped.vocab), other_path)
        rotated_path = tmp_path / "rotated.dic"
        _rotated_categories(rotated_path)

        # two model objects, one built from the other, and two lexicon objects
        resources = Resources.default()
        models = {None: pt.TaggerModel(tagset=shipped.tagset, weights=shipped.weights,
                                       lexical_backoff=shipped.lexical_backoff,
                                       version=shipped.version, vocab=shipped.vocab),
                  other_path: pt.TaggerModel(tagset=shipped.tagset,
                                             weights=pt.TaggerModel.load(other_path).weights,
                                             lexical_backoff=shipped.lexical_backoff,
                                             version=shipped.version, vocab=shipped.vocab)}
        lexicons = {None: resources.categories,
                    rotated_path: lx.load_category_lexicon(rotated_path)}
        configs = [(m, c) for m in models for c in lexicons]

        fresh = {}
        for m, c in configs:
            for part in ("title", "body"):
                out = tmp_path / "fresh.csv"
                flags = [*(["--tagger-model", str(m)] if m else []),
                         *(["--category-lexicon", str(c)] if c else [])]
                proc = run_fresh(["-m", "newsstyle.cli", "extract", "--corpus", str(corpus_dir),
                                   "--dataset-id", "2", "--part", part, "--out", str(out),
                                   *flags])
                assert proc.returncode == 0, proc.stderr
                fresh[m, c, part] = out.read_bytes()
        assert len(set(fresh.values())) == len(fresh)  # every config changes the rows

        for m, c in configs + configs[::-1]:
            resources.tagger = models[m]
            resources.categories = lexicons[c]
            for part in ("title", "body"):
                out = tmp_path / "in_process.csv"
                write_matrix(_extracted(corpus.documents, part, resources), out)
                assert out.read_bytes() == fresh[m, c, part], (m, c, part)


# -- oracle: extract_all as three feature-family functions and the glue that
# merged their dicts, each family with its own passes over the part ---------


def _oracle_complexity(pairs, n_sent, metrics, freq):
    words = [(tok, t) for tok, t in pairs if tok.kind == ts.WORD]
    word_toks = [tok for tok, _ in words]
    out = {}
    n_words = len(words)
    if n_words == 0:
        out.update({name: None for name in ("GI", "SMOG", "FK", "TTR", "avg_wlen")})
    else:
        counts = [tok.syllables for tok in word_toks]
        syllables = sum(counts)
        poly = sum(1 for c in counts if c >= 3)
        complex_words = sum(1 for tok, t in words if ts.is_complex_word(tok, t))
        out["GI"] = 0.4 * (n_words / n_sent + 100.0 * complex_words / n_words)
        out["FK"] = 0.39 * n_words / n_sent + 11.8 * syllables / n_words - 15.59
        out["SMOG"] = 1.0430 * math.sqrt(poly * 30.0 / n_sent) + 3.1291
        out["TTR"] = len({tok.lower for tok in word_toks}) / n_words
        out["avg_wlen"] = sum(len(tok.norm) for tok in word_toks) / n_words
    out["med_depth"] = _median([m[0] for m in metrics]) if metrics else None
    out["med_np_depth"] = _median([m[1] for m in metrics]) if metrics else None
    out["med_vp_depth"] = _median([m[2] for m in metrics]) if metrics else None
    out["flu_coca_d"] = lx.fluency_doc(word_toks, freq)
    out["flu_coca_c"] = lx.fluency_least3(word_toks, freq)
    return out


# the oracle's own quote characters: straight and curly, single and double
_QUOTE_CHARS = set('"\'“”‘’')


def _oracle_stylistic(pairs, n_sent, metrics, cat_counts, stopwords):
    tokens = [tok for tok, _ in pairs]
    words = [tok for tok in tokens if tok.kind == ts.WORD]
    out = {}
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
        out["per_stop"] = None
        out["WPS"] = None
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


def _oracle_psychological(sentences, cat_counts, sentiment):
    out = {name: float(cat_counts.get(name, 0)) for name in PSYCH_CATEGORY_FEATURES}
    if sentences:
        neg, pos = lx.sentiment_strength(sentences, sentiment)
        out["str_neg"], out["str_pos"] = neg, pos
    else:
        out["str_neg"] = out["str_pos"] = None
    return out


def _oracle_extract_all(doc, part, resources):
    text = doc.title if part == "title" else doc.body
    if not text.strip():
        return {name: None for name in CATALOG}
    sentences = ts.split_sentences(text)
    tagged = [pt.tag(s, resources.tagger) for s in sentences]
    metrics = [pt.tree_metrics(pt.chunk(t)) for t in tagged]
    pairs = [pair for t in tagged for pair in t.tokens]
    n_sent = len(sentences)
    cat_counts = lx.match_categories([tok for tok, _ in pairs], resources.categories)
    values = {}
    values.update(_oracle_complexity(pairs, n_sent, metrics, resources.frequency))
    values.update(_oracle_stylistic(pairs, n_sent, metrics, cat_counts, resources.stopwords))
    values.update(_oracle_psychological(sentences, cat_counts, resources.sentiment))
    return {name: values[name] for name in CATALOG}


# pieces of random parts: straight and curly quotes, "!", all-caps words,
# hyphenated words of three or more syllables, NNP/NNPS words, numbers,
# clitics, symbols, stop words and lexicon hits
_PIECES = (
    '" \' “ ” ‘ ’ ! ? . , : ; ( ) -- — $ % & @ '
    "BREAKING NYPD FBI SHOCKING USA A I OK "
    "well-intentioned anti-establishment self-educated hard-working "
    "Washington Clinton Americans Democrats Republicans Reuters Obamacare "
    "42 3.14 1,000 2016 "
    "don't it's we'll they're can't "
    "the a an of not never no we you they she he must always maybe "
    "beautiful education government terrible wonderful horrific disagreed "
    "announced denied said report crisis damn awesome lol why how"
).split()


def _random_part(rng) -> str:
    out = []
    for _ in range(rng.randint(1, 40)):
        piece = rng.choice(_PIECES)
        if rng.random() < 0.15:
            piece = piece.capitalize()
        out.append(piece + (" " if rng.random() < 0.85 else ""))
        if rng.random() < 0.08:
            out.append(rng.choice((". ", "! ", "? ", '." ')))
    return "".join(out)


_FIXED_PARTS = (
    "...!!!", "?!", "--", '""', "“ ”", "42 1,000", "$ % &", "   ", "",
    "The senator announced a new budget. Critics disagreed loudly! Why? \"No,\" he said.",
    "BREAKING: NYPD Blows Whistle on New Hillary Emails!!!",
    "Americans and Democrats met. Republicans didn't. The well-intentioned plan failed.",
)


def _zipf_parts(seed: int, n: int) -> list[str]:
    """``n`` parts drawn from a Zipf law over 3,000 word types that the
    resources mostly do not list: pseudo-words, some ending in a common
    suffix or starting with a lexicon stem's letters, a fifth capitalised
    and a few in capitals, among _PIECES and the golden corpus's words."""
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    types = [*_PIECES]
    while len(types) < 3000:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
        word += rng.choice(("", "", "ing", "ed", "ly", "tion", "s", "er"))
        if rng.random() < 0.1:
            word = rng.choice(("horr", "wonder", "terr", "educat", "govern", "anti-")) + word
        case = rng.random()
        types.append(word.capitalize() if case < 0.2 else word.upper() if case < 0.25 else word)
    weights = [1.0 / (rank + 2.7) ** 1.1 for rank in range(len(types))]
    parts = []
    for _ in range(n):
        words = rng.choices(types, weights, k=rng.randint(1, 120))
        parts.append(" ".join(w + (rng.choice((".", "!", "?", ",")) if rng.random() < 0.08 else "")
                              for w in words))
    return parts


class TestExtractDifferential:
    """extract_all gives the oracle's values bit for bit, in catalog order."""

    @staticmethod
    def _assert_same(doc, part, resources):
        new = extract_all(doc, part, resources)
        old = _oracle_extract_all(doc, part, resources)
        assert repr(list(new.items())) == repr(list(old.items())), (doc.id, part)

    def test_random_and_fixed_parts(self, resources):
        rng = random.Random(20)
        texts = [*_FIXED_PARTS, *(_random_part(rng) for _ in range(400))]
        for i, text in enumerate(texts):
            for part in ("title", "body"):
                doc = _doc(title=text, body=text, id=f"r{i}")
                self._assert_same(doc, part, resources)

    def test_seed3_synthetic_corpus(self, tmp_path, resources):
        corpus, _ = load_corpus(write_synthetic_corpus(
            tmp_path / "corpus", {"real": 12, "fake": 12, "satire": 12}, seed=3), 2)
        for doc in corpus.documents:
            for part in ("title", "body"):
                self._assert_same(doc, part, resources)

    @pytest.mark.parametrize("cap", [None, 5])
    def test_zipf_pseudo_words(self, resources, monkeypatch, cap):
        # most word types are ones the tagger and the lexicons do not list;
        # under a cap of 5 nearly every token has a record of its own
        monkeypatch.setattr(ts, "_types", {})
        if cap is not None:
            monkeypatch.setattr(ts, "TYPE_CAP", cap)
        for i, text in enumerate(_zipf_parts(21, 200)):
            for part in ("title", "body"):
                self._assert_same(_doc(title=text, body=text, id=f"z{i}"), part, resources)
        if cap is None:
            assert len(ts._types) > 1000
        else:
            assert len(ts._types) == cap

    def test_one_call_per_part_to_each_lexicon_function(self, resources, monkeypatch):
        # the benchmark's trace wraps these four through the lexicon module
        # and fails on a span with no calls
        calls = {}
        for name in ("match_categories", "fluency_doc", "fluency_least3", "sentiment_strength"):
            def counting(*args, _fn=getattr(lx, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(lx, name, counting)
        texts = [t for t in _FIXED_PARTS if t.strip()]
        for text in texts:
            extract_all(_doc(body=text), "body", resources)
        extract_all(_doc(body="x."), "title", resources)  # empty: no calls
        assert calls == dict.fromkeys(
            ("match_categories", "fluency_least3", "fluency_doc", "sentiment_strength"),
            len(texts))


class TestWriteMatrixFormats:
    VALUES = (0.0, -0.0, 2.0, 999999999999999.0, 1e15, -1e15, 1e16, 0.1,
              float("inf"), float("-inf"), float("nan"), None)

    def test_every_cell_as_format_value(self, tmp_path):
        names = CATALOG[:len(self.VALUES)]
        rows = [list(self.VALUES), list(self.VALUES[::-1]), list(self.VALUES)]
        m = FeatureMatrix(feature_names=names, doc_ids=("a", "b", "c"),
                          labels=("real", "fake", "real"), part="body", rows=rows)
        p = tmp_path / "m.csv"
        write_matrix(m, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        for line, row in zip(lines[1:], rows):
            assert line.split(",")[3:] == [_format_value(v) for v in row]
        assert lines[1].split(",")[3:] == [
            "0", "0", "2", "999999999999999", "1000000000000000.0", "-1000000000000000.0", "1e+16",
            "0.1",
            "inf", "-inf", "NA", "NA"]


def _stringio_read_matrix(path):
    """``read_matrix`` as it was when it parsed an ``io.StringIO`` of the
    whole text, with one float per cell: the oracle of the line slices and
    the shared floats."""
    reader = csv.reader(io.StringIO(MatrixFormatError.read_text(path), newline=""))
    try:
        header = next(reader)
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
    first_line: dict[str, int] = {}
    part = ""
    for lineno, rec in enumerate(reader, 2):
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
        try:
            row = [None if v == "NA" else float(v) for v in rec[3:]]
        except ValueError as e:
            raise MatrixFormatError(f"{path}:{lineno}: {e}") from None
        if "nan" in ",".join(rec[3:]).lower():
            nan = [n for n, v in zip(names, row) if v != v]
            raise MatrixFormatError(f"{path}:{lineno}: nan in {nan}; an undefined value is NA")
        ids.append(rec[0])
        labels.append(rec[1])
        rows.append(row)
    if not rows:
        raise MatrixFormatError(f"{path}: no rows after the header")
    return FeatureMatrix(
        feature_names=names, doc_ids=tuple(ids), labels=tuple(labels),
        part=part, rows=rows,
    )


def _outcome(read, path):
    """What ``read`` makes of ``path``, with every cell's type and bits."""
    try:
        m = read(path)
    except MatrixFormatError as e:
        return "error", str(e)
    cells = [[None if v is None else (type(v), v.hex()) for v in row] for row in m.rows]
    return m.feature_names, m.doc_ids, m.labels, m.part, cells


_HEADER = "doc_id,label,part,WC,TTR\n"
_ENCODINGS = ["lf", "crlf", "cr", "bom"]


def _encoded(path: Path, text: str, encoding: str) -> Path:
    """``path`` holding ``text`` in UTF-8 with each line break, or a leading
    byte-order mark, as ``encoding`` names."""
    data = text.encode("utf-8")
    if encoding in ("crlf", "cr"):
        data = data.replace(b"\n", b"\r\n" if encoding == "crlf" else b"\r")
    elif encoding == "bom":
        data = b"\xef\xbb\xbf" + data
    path.write_bytes(data)
    return path


class TestReadMatrixDifferential:
    @pytest.mark.parametrize("text", [
        _HEADER + '"a,b",real,body,1,0.5\nc,fake,body,2,1\n',
        _HEADER + '"a\nb",real,body,1,0.5\nc,fake,body,2,1\n',
        *[_HEADER + f'"a{c}b",real,body,1,0.5\na{c}c,fake,body,2,1\n'
          for c in ("\x85", "\u2028", "\x0c", "\x0b", "\x1c")],
        _HEADER + "a,real,body,1,0.5\nb,fake,body,2,1",  # no final newline
        _HEADER + "a,real,body,1,0.5\nb,fake,body,2,1\n\n",  # blank last line
        _HEADER + "a,real,body,1,0.5\n\nb,fake,body,2,1\n",  # blank middle line
        _HEADER + "a,real,body,NA,-0\nb,fake,body,1e5,inf\nc,satire,body,-0,1e5\n",
        _HEADER + "a,real,body,3,3\nb,fake,body,-inf,3.0\nc,real,body,0,-0\n",
        _HEADER + "a,real,body,1,0.5\nb,fake,body,x1,1\n",  # a bad cell
        _HEADER + "a,real,body,1,0.5\nb,fake,body,1,x1\n",  # a bad cell after a shared one
        _HEADER + "a,real,body,1_0,nan\n",
        _HEADER + "a,real,body,1,2\nb,fake,body,NaN,NaN\n",  # the second NaN is a memo hit
        _HEADER,
        "",
    ])
    @pytest.mark.parametrize("encoding", _ENCODINGS)
    def test_same_rows_or_message_as_the_stringio_parse(self, tmp_path, text, encoding):
        p = _encoded(tmp_path / "m.csv", text, encoding)
        assert _outcome(read_matrix, p) == _outcome(_stringio_read_matrix, p)

    # a message names the line where its record ends, as a csv.Error's does;
    # the oracle numbered records, so after a doc_id spanning two lines it
    # named the line before
    @pytest.mark.parametrize("text, message", [
        (_HEADER + '"a\nb",real,body,1,0.5\nc,fake,body,x,1\n',
         "4: could not convert string to float: 'x'"),
        (_HEADER + '"a\nb",real,body,1,0.5\nc,fake,body,2\n', "4: ragged row"),
        (_HEADER + '"a\nb",real,body,1,0.5\na\nb,fake,body,2,1\n', "4: ragged row"),
        (_HEADER + '"a\nb",real,body,1,0.5\nc,fake,body,2,1\nc,real,body,3,1\n',
         "5: duplicate doc_id 'c' (first on line 4)"),
        (_HEADER + 'a,real,body,1,0.5\n"a\nb",fake,body,2,1\n"a\nb",fake,body,3,1\n',
         "6: duplicate doc_id 'a\\nb' (first on line 4)"),
    ])
    @pytest.mark.parametrize("encoding", _ENCODINGS)
    def test_message_names_the_line_after_a_two_line_id(self, tmp_path, text, message,
                                                        encoding):
        p = _encoded(tmp_path / "m.csv", text, encoding)
        assert _outcome(read_matrix, p) == ("error", f"{p}:{message}")

    def test_equal_integral_texts_share_one_float(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(_HEADER + "a,real,body,3,-0\nb,fake,body,3,0\nc,real,body,-0,0.5\n"
                     "d,fake,body,0.5,1e5\ne,real,body,1e5,0\n")
        m = read_matrix(p)
        wc, ttr = m.column("WC"), m.column("TTR")
        assert wc[0] is wc[1]
        assert ttr[0] is wc[2] and math.copysign(1.0, ttr[0]) == -1.0
        assert ttr[1] is ttr[4] and math.copysign(1.0, ttr[1]) == 1.0
        assert wc[4] is ttr[3] == 1e5


def _counts_matrix(path: Path, rows: int, seed: int) -> Path:
    """A body matrix of every catalog column, holding counts and a few NA
    cells, as ``write_matrix`` writes them."""
    rng = random.Random(seed)
    lines = ["doc_id,label,part," + ",".join(CATALOG)]
    for i in range(rows):
        cells = ["NA" if rng.random() < 0.01 else str(int(rng.expovariate(1 / 30)))
                 for _ in CATALOG]
        lines.append(f"doc{i:05d},{('real', 'fake', 'satire')[i % 3]},body," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_read_matrix_memory_is_bounded_by_the_file_size(tmp_path):
    # a string of the whole text at 4 bytes per character, or a float object
    # per count cell, breaks these bounds
    p = _counts_matrix(tmp_path / "m.csv", 1500, 0)
    size = p.stat().st_size
    read_matrix(p)  # the first call's imports and caches are not the matrix's
    tracemalloc.start()
    try:
        m = read_matrix(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.rows) == 1500
    assert held <= 4 * size, held / size
    assert peak - held <= 2 * size, (peak - held) / size


class TestNoVectorKept:
    def test_write_matrix_takes_each_row_of_a_generator_once(self, tmp_path):
        refs, reads, alive = [], [], []

        class Row(list):
            """A row that notes, as it is written, which earlier rows live."""
            def __iter__(self):
                i = int(self[0])
                reads.append(i)
                alive.append([r() is not None for r in refs[:i]])
                return super().__iter__()

        def make(i):
            row = Row([float(i)] * len(CATALOG))
            refs.append(weakref.ref(row))
            return row

        p = tmp_path / "m.csv"
        rows = (make(i) for i in range(4))
        assert write_matrix(FeatureMatrix(
            feature_names=CATALOG, doc_ids=("d0", "d1", "d2", "d3"), labels=("real",) * 4,
            part="body", rows=rows), p) == 4
        assert reads == [0, 1, 2, 3]
        assert alive == [[False] * i for i in range(4)]
        m = read_matrix(p)
        assert m.doc_ids == ("d0", "d1", "d2", "d3")
        assert [row[0] for row in m.rows] == [0.0, 1.0, 2.0, 3.0]

    def test_extract_holds_no_earlier_values(self, tmp_path, monkeypatch):
        import newsstyle.features as ft

        corpus = write_synthetic_corpus(tmp_path / "c", {"real": 3, "fake": 3}, seed=1)
        refs, alive = [], []
        extract = ft.extract_all

        class Values(dict):
            """Weakly referable, unlike a dict."""

        def traced(doc, part, resources):
            alive.append(sum(r() is not None for r in refs))
            values = Values(extract(doc, part, resources))
            refs.append(weakref.ref(values))
            return values

        monkeypatch.setattr(ft, "extract_all", traced)
        out = tmp_path / "b.csv"
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1",
                     "--part", "body", "--out", str(out)]) == 0
        assert alive == [0] * 6
        assert len(read_matrix(out).rows) == 6


class TestOneRowHeld:
    """``extract`` writes each row as it is made: the memory it holds does
    not grow with the document count, and a run that fails leaves ``--out``
    as it was."""

    @staticmethod
    def _extract_peak(tmp_path, monkeypatch, per_label):
        """tracemalloc's peak over an ``extract --part title`` of a synthetic
        corpus, loaded before tracing starts; a title's row is as long as a
        body's."""
        loaded = load_corpus(write_synthetic_corpus(
            tmp_path / f"c{per_label}", dict.fromkeys(LABELS, per_label), seed=5), 2)
        monkeypatch.setattr(cp, "load_corpus", lambda *args: loaded)
        out = tmp_path / f"b{per_label}.csv"
        tracemalloc.start()
        try:
            assert main(["extract", "--corpus", "unused", "--dataset-id", "2",
                         "--part", "title", "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(read_matrix(out).rows) == 3 * per_label
        return peak

    def test_held_memory_does_not_grow_with_the_document_count(self, tmp_path, monkeypatch):
        # a matrix held until it is written adds about 1.4 MiB to the peak
        # from 90 to 900 rows; rows written as they are made, under 0.1 MiB
        self._extract_peak(tmp_path, monkeypatch, 10)  # fills the caches and the type table
        small = self._extract_peak(tmp_path, monkeypatch, 30)
        large = self._extract_peak(tmp_path, monkeypatch, 300)
        assert large - small < 0.25 * 2**20, (small, large)

    @pytest.mark.parametrize("existed", [False, True])
    def test_failure_after_the_first_rows_leaves_out_as_it_was(self, tmp_path, monkeypatch,
                                                               capsys, existed):
        import newsstyle.features as ft

        corpus = write_synthetic_corpus(tmp_path / "c", {"real": 3, "fake": 3}, seed=1)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "b.csv"
        if existed:
            out.write_bytes(b"an earlier matrix\n")
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        extract, made, new_files = ft.extract_all, [], []

        def failing(doc, part, resources):
            made.append(doc.id)
            if len(made) == 3:
                # the first two rows have gone to a new file beside --out
                new_files.extend(sorted(p.name for p in out_dir.iterdir() if p.name not in before))
                raise OSError("disk gone")
            return extract(doc, part, resources)

        monkeypatch.setattr(ft, "extract_all", failing)
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2",
                     "--part", "body", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk gone\n"
        assert len(new_files) == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def _assert_shared(records):
    """Records with the same tagger entry parts hold one entry, and records
    with the same hits one pair, and some records share them."""
    entries = [tok.tagging for tok in records if tok.tagging is not None]
    pairs = [tok.categories for tok in records if tok.categories is not None]

    def parts(entry):
        """What an entry holds: each part by identity, the shape rows one by one."""
        model, fixed, scores, shape, pw, nw = entry
        return id(model), fixed, id(scores), tuple(map(id, shape)), id(pw), id(nw)

    assert len({id(e) for e in entries}) == len({parts(e) for e in entries}) < len(entries)
    assert len({id(p) for p in pairs}) == len({(id(p[0]), p[1]) for p in pairs}) < len(pairs)


def test_records_share_one_entry_and_one_hit_pair_per_content(tmp_path, monkeypatch, resources):
    monkeypatch.setattr(ts, "_types", {})
    corpus, _ = load_corpus(write_synthetic_corpus(
        tmp_path / "corpus", {"real": 12, "fake": 12, "satire": 12}, seed=3), 2)
    for doc in corpus.documents:
        for part in ("title", "body"):
            extract_all(doc, part, resources)
    _assert_shared(list(ts._types.values()))


@pytest.mark.parametrize("cap", [None, 5])
def test_pseudo_word_records_share_one_entry_and_one_hit_pair_per_content(
        monkeypatch, resources, cap):
    # the records of every sentence extracted, those past the cap included
    monkeypatch.setattr(ts, "_types", {})
    if cap is not None:
        monkeypatch.setattr(ts, "TYPE_CAP", cap)
    records = {}

    def recording(text, _split=ts.split_sentences):
        sentences = _split(text)
        records.update((id(tok), tok) for sent in sentences for tok in sent.tokens)
        return sentences

    monkeypatch.setattr(ts, "split_sentences", recording)
    for text in _zipf_parts(22, 150):
        for part in ("title", "body"):
            extract_all(_doc(title=text, body=text), part, resources)
    if cap is None:
        assert len(records) == len(ts._types)
    else:
        assert len(records) > 2 * len(ts._types)
    _assert_shared(list(records.values()))
