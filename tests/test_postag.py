import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass

import pytest

import build_tagger_model
from build_tagger_model import (
    CORPUS as TAGGED_CORPUS,
    load_closed_class,
    load_pretagged,
    save_model,
    train_tagger,
)
from conftest import write_synthetic_corpus
import newsstyle.postag
from newsstyle.postag import (
    NOUN_TAGS,
    TAGSET,
    VERB_TAGS,
    TaggedSentence,
    TaggerError,
    TaggerModel,
    chunk,
    default_model,
    tag,
    tree_metrics,
)
from newsstyle.corpus import load_corpus
from newsstyle.features import Resources, extract_all
import newsstyle.textseg
from newsstyle.textseg import WORD, Sentence, Token, split_sentences, token, tokenize


def _sent(text):
    tokens, spans = zip(*tokenize(text))
    return Sentence(tokens=tokens, spans=spans)


def _tagged(pairs):
    toks = []
    for text, t in pairs:
        toks.append((Token(text=text, kind="word" if text[0].isalpha() else "punctuation",
                           is_all_caps=len(text) >= 2 and text.isalpha() and text.isupper()), t))
    return TaggedSentence(tokens=tuple(toks))


class TestTrainTagger:
    def test_memorizes_single_sentence(self):
        ts = _tagged([("dogs", "NNS"), ("chase", "VBP"), ("cats", "NNS")])
        model = train_tagger([ts, ts], epochs=5, seed=1, backoff={})
        sent = Sentence(tokens=tuple(t for t, _ in ts.tokens))
        assert tag(sent, model).tags() == ["NNS", "VBP", "NNS"]

    def test_deterministic_for_seed(self):
        data = load_pretagged(TAGGED_CORPUS)[:200]
        m1 = train_tagger(data, epochs=2, seed=9)
        m2 = train_tagger(data, epochs=2, seed=9)
        assert m1.weights == m2.weights

    def test_empty_training_set(self):
        with pytest.raises(TaggerError):
            train_tagger([], epochs=1, seed=0)

    def test_unknown_tag_rejected(self):
        ts = _tagged([("x", "BOGUS")])
        with pytest.raises(TaggerError, match="BOGUS"):
            train_tagger([ts], epochs=1, seed=0)

    def test_unknown_backoff_tag_rejected(self):
        # a model trained with it would tag "The" as ZZ, and its saved file
        # would fail TaggerModel.load
        ts = _tagged([("The", "DT"), ("dogs", "NNS")])
        with pytest.raises(TaggerError, match="tag 'ZZ' not in tagset"):
            train_tagger([ts], epochs=1, seed=0, backoff={"the": "ZZ", "a": "DT"})

    def test_reproduces_shipped_model(self):
        # tools/build_tagger_model.py trains the shipped model this way, through
        # the same scorer that tag() uses
        model = train_tagger(load_pretagged(TAGGED_CORPUS), epochs=5, seed=7)
        shipped = default_model()
        assert model.weights == shipped.weights
        assert model.vocab == shipped.vocab
        assert model.lexical_backoff == shipped.lexical_backoff

    def test_heldout_accuracy(self):
        data = load_pretagged(TAGGED_CORPUS)
        assert sum(len(s.tokens) for s in data) >= 10_000
        cut = int(len(data) * 0.9)
        model = train_tagger(data[:cut], epochs=5, seed=7)
        correct = total = 0
        for ts in data[cut:]:
            sent = Sentence(tokens=tuple(t for t, _ in ts.tokens))
            for (_, gold), (_, pred) in zip(ts.tokens, tag(sent, model).tokens):
                total += 1
                correct += gold == pred
        assert correct / total >= 0.90


class TestBuildTool:
    def test_regenerates_the_checked_in_files_byte_for_byte(self, tmp_path, monkeypatch):
        # the tool's own run, with its two outputs redirected: the corpus it
        # generates and the model it trains on that corpus and saves
        corpus, model = tmp_path / "tagged_corpus.tsv", tmp_path / "tagger_model.json"
        monkeypatch.setattr(build_tagger_model, "CORPUS", corpus)
        monkeypatch.setattr(build_tagger_model, "MODEL", model)
        build_tagger_model.main()
        assert corpus.read_bytes() == TAGGED_CORPUS.read_bytes()
        shipped = newsstyle.postag._RESOURCE_DIR / "tagger_model.json"
        assert model.read_bytes() == shipped.read_bytes()


class TestTag:
    def test_closed_class_backoff(self):
        model = default_model()
        tags = tag(_sent("the dog"), model).tags()
        assert tags[0] == "DT"

    def test_unknown_all_caps_is_nnp(self):
        model = default_model()
        tags = tag(_sent("NYPD spoke"), model).tags()
        assert tags[0] == "NNP"

    def test_number_is_cd(self):
        model = default_model()
        assert tag(_sent("35 dogs"), model).tags()[0] == "CD"

    def test_deterministic(self):
        model = default_model()
        s = _sent("The senator announced a new budget plan.")
        assert tag(s, model).tokens == tag(s, model).tokens

    def test_order_invariant_counts(self):
        model = default_model()
        s1 = _sent("The dog ran. The cat sat.")
        from collections import Counter

        def counts(text):
            from newsstyle.textseg import split_sentences
            c = Counter()
            for s in split_sentences(text):
                c.update(tag(s, model).tags())
            return c

        assert counts("The dog ran. The cat sat.") == counts("The cat sat. The dog ran.")


# the tagging loop as it was before the per-token work was cut: feature
# strings, a defaultdict of scores and a key-function argmax
def _old_features(tokens, i, prev, prev2):
    tok = tokens[i]
    w, low = tok.norm, tok.lower
    feats = [
        "bias", f"w={w}", f"lw={low}", f"suf1={low[-1:]}", f"suf2={low[-2:]}",
        f"suf3={low[-3:]}", f"p1={prev}", f"p2={prev2}|{prev}",
        f"pw={tokens[i - 1].lower if i > 0 else '<s>'}",
        f"nw={tokens[i + 1].lower if i + 1 < len(tokens) else '</s>'}",
    ]
    if tok.is_all_caps:
        feats.append("allcaps")
    if tok.kind == "number":
        feats.append("num")
    if w[:1].isupper():
        feats.append("cap")
    return feats


def _old_predict(model, feats):
    scores = defaultdict(float)
    for f in feats:
        for t, w in model.weights.get(f, {}).items():
            scores[t] += w
    if not scores:
        return "NN"
    return min(scores, key=lambda t: (-scores[t], t))


def _old_tag(sentence, model):
    tokens = list(sentence.tokens)
    prev, prev2 = "<s>", "<s2>"
    out = []
    for i, tok in enumerate(tokens):
        if tok.kind in ("punctuation", "symbol"):
            t = "PUNCT"
        elif tok.lower in model.lexical_backoff:
            t = model.lexical_backoff[tok.lower]
        elif tok.kind == "number":
            t = "CD"
        elif tok.lower not in model.vocab and tok.is_all_caps:
            t = "NNP"
        else:
            t = _old_predict(model, _old_features(tokens, i, prev, prev2))
        out.append(t)
        prev2, prev = prev, t
    return out


def _random_text(rng, vocab):
    words = []
    for _ in range(rng.randint(1, 40)):
        kind = rng.random()
        if kind < 0.5:
            w = rng.choice(vocab)
            words.append(w.capitalize() if rng.random() < 0.2 else w)
        elif kind < 0.65:  # unknown word
            words.append("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                                 for _ in range(rng.randint(1, 11))))
        elif kind < 0.72:
            words.append(rng.choice(vocab).upper())
        elif kind < 0.78:
            words.append(str(rng.randint(0, 10**6)) + rng.choice(["", ".5", ",000"]))
        elif kind < 0.86:
            words.append(rng.choice(vocab) + rng.choice(["n't", "'s", "’s", "’re", "'ll", "’d"]))
        elif kind < 0.93:
            words.append(rng.choice(["“", "”", "‘", "’", '"', "(", ")", ",", ";", "—", "$"]))
        else:
            words.append(rng.choice([".", "!", "?"]))
    return " ".join(words)


class TestTagDifferential:
    def test_matches_old_loop_on_random_sentences(self):
        model = default_model()
        vocab = sorted(model.vocab)
        rng = random.Random(20170103)
        n_tokens = 0
        for _ in range(400):
            for sent in split_sentences(_random_text(rng, vocab)):
                assert tag(sent, model).tags() == _old_tag(sent, model)
                n_tokens += len(sent.tokens)
        assert n_tokens > 5000

    def test_matches_old_loop_when_scores_tie(self):
        # integer weights make equal top scores and zero scores common, so
        # the tie rule (smallest tag name) decides many tokens
        data = load_pretagged(TAGGED_CORPUS)[:60]
        model = train_tagger(data, epochs=1, seed=3)
        model = TaggerModel(tagset=model.tagset,
                            weights={f: {t: round(w) for t, w in tw.items()}
                                     for f, tw in model.weights.items()},
                            lexical_backoff=model.lexical_backoff, version=model.version,
                            vocab=model.vocab)
        rng = random.Random(5)
        vocab = sorted(model.vocab)
        for _ in range(200):
            for sent in split_sentences(_random_text(rng, vocab)):
                assert tag(sent, model).tags() == _old_tag(sent, model)


def _fresh_model():
    """The shipped model in a new object, so no record holds an entry for it."""
    shipped = default_model()
    return TaggerModel(tagset=shipped.tagset, weights=shipped.weights,
                       lexical_backoff=shipped.lexical_backoff, vocab=shipped.vocab)


def _entries(model):
    """The records of the type table that hold an entry for the model."""
    return [tok for tok in newsstyle.textseg._types.values()
            if tok.tagging is not None and tok.tagging[0] is model]


class TestWordScoreMemo:
    def test_lexical_word_and_unknown_suffix_keep_their_own_scores(self):
        # "new" has w=/lw= weights; "zqnew" has none and shares its last
        # three letters. Their tags differ, so an entry keyed by suffix for
        # both would give the second word seen the first one's scores, in
        # either order.
        for lexical, context in [("new", "The {} was here ."), ("old", "The {} was here ."),
                                 ("met", "They {} it ."), ("won", "They {} it .")]:
            pair = [_sent(context.format(w)) for w in (lexical, "zq" + lexical)]
            for order in (pair, pair[::-1]):
                model = _fresh_model()
                tags = [tag(s, model).tags() for s in order]
                assert tags == [_old_tag(s, model) for s in order]
                assert tags[0] != tags[1]

    def test_lexical_words_come_from_the_weights(self):
        # "Zqx" has only a case-sensitive w= weight, and the vocab does not
        # list it: it is still a lexical word, and its unknown lowercase form
        # and "aazqx" score on their suffixes alone
        model = TaggerModel(tagset=("NN", "VB"), lexical_backoff={}, vocab={"aazqx"},
                            weights={"bias": {"NN": 1.0}, "w=Zqx": {"VB": 5.0}})
        sents = [_sent(text) for text in ("aazqx", "Zqx", "zqx", "Zqx aazqx")]
        assert [tag(s, model).tags() for s in sents] == [_old_tag(s, model) for s in sents]
        assert [_old_tag(s, model) for s in sents] == [["NN"], ["VB"], ["NN"], ["VB", "NN"]]

    def test_short_words_and_casing_variants_match_old_loop(self):
        model = _fresh_model()
        words = ["q", "zq", "Q", "ZQ", "x", "ox", "qox", "new", "New", "NEW", "nEw", "neW",
                 "old", "Old", "OLD", "zqold", "Zqold", "w", "lw", "suf"]
        rng = random.Random(11)
        for _ in range(300):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) + " ."
            for sent in split_sentences(text):
                assert tag(sent, model).tags() == _old_tag(sent, model)

    def test_reassigned_weights_are_used(self):
        model = _fresh_model()
        vocab = sorted(model.vocab)
        rng = random.Random(8)
        sents = [s for _ in range(100) for s in split_sentences(_random_text(rng, vocab))]
        shipped_tags = [tag(s, model).tags() for s in sents]
        model = TaggerModel(tagset=model.tagset,
                            weights=train_tagger(load_pretagged(TAGGED_CORPUS)[:60],
                                                 epochs=1, seed=3).weights,
                            lexical_backoff=model.lexical_backoff, version=model.version,
                            vocab=model.vocab)
        new_tags = [tag(s, model).tags() for s in sents]
        assert new_tags == [_old_tag(s, model) for s in sents]
        assert new_tags != shipped_tags

    def test_reassigned_vocab_and_backoff_are_used(self):
        # the fixed tags of an entry read the backoff and the vocab
        model = _fresh_model()
        sent = _sent("the NYPD said the BBC lied")
        nypd = sent.tokens[1]
        assert tag(sent, model).tags() == _old_tag(sent, model)
        assert tag(sent, model).tags()[0] == "DT"
        assert nypd.tagging[1] == "NNP"  # unknown and all-caps: a fixed tag
        model = TaggerModel(tagset=model.tagset, weights=model.weights,
                            lexical_backoff={**model.lexical_backoff, "the": "PDT"},
                            version=model.version, vocab=model.vocab | {"nypd"})
        assert tag(sent, model).tags() == _old_tag(sent, model)
        assert tag(sent, model).tags()[0] == "PDT"
        assert nypd.tagging[0] is model and nypd.tagging[1] is None  # scored

    def test_cap_bounds_the_memo_and_keeps_the_tags(self, monkeypatch):
        # entries live on the type table's records, so its cap bounds them;
        # the score tables they share grow with the model's features only
        monkeypatch.setattr(newsstyle.textseg, "_types", {})
        monkeypatch.setattr(newsstyle.textseg, "TYPE_CAP", 5)
        model = _fresh_model()
        vocab = sorted(model.vocab)
        rng = random.Random(12)
        for _ in range(100):
            for sent in split_sentences(_random_text(rng, vocab)):
                assert tag(sent, model).tags() == _old_tag(sent, model)
                assert len(newsstyle.textseg._types) <= 5
        assert len(newsstyle.textseg._types) == 5
        assert 0 < len(_entries(model)) <= 5
        assert len(model._tables) <= len(model.weights)

    def test_warm_and_fresh_models_give_the_same_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(newsstyle.textseg, "_types", {})
        corpus, _ = load_corpus(write_synthetic_corpus(
            tmp_path / "corpus", {"real": 6, "fake": 6, "satire": 6}, seed=4), 2)
        shipped = Resources.default()
        resources = Resources(tagger=_fresh_model(), categories=shipped.categories,
                              frequency=shipped.frequency, sentiment=shipped.sentiment,
                              stopwords=shipped.stopwords)

        def rows():
            return [extract_all(doc, part, resources)
                    for doc in corpus.documents for part in ("title", "body")]

        cold = rows()
        assert _entries(resources.tagger)
        assert rows() == cold
        resources.tagger = _fresh_model()
        assert rows() == cold

    def test_equal_word_scores_are_shared(self):
        model = _fresh_model()
        tag(_sent("zzqing"), model)
        # same last three letters, no word weights: one table
        assert model._entry(token("yyqing", WORD))[2] is model._entry(token("zzqing", WORD))[2]
        # suffixes the model has no suf3 or suf2 weight for, the same last
        # letter: two types, the same weighted features, one table
        for suffix in ("qxs", "zxs"):
            assert f"suf3={suffix}" not in model.weights
        assert "suf2=xs" not in model.weights
        a, b = model._entry(token("aaqxs", WORD)), model._entry(token("aazxs", WORD))
        assert a is b and a[2] is b[2]


class TestChunk:
    def test_np_vp_o(self):
        ts = _tagged([("Dogs", "NN"), ("bark", "VB"), (".", "PUNCT")])
        assert chunk(ts) == (("NP", 0, 1, None), ("VP", 1, 2, None))

    def test_all_punct(self):
        ts = _tagged([(".", "PUNCT"), ("!", "PUNCT")])
        assert chunk(ts) == ()

    def test_np_of_three(self):
        ts = _tagged([("the", "DT"), ("big", "JJ"), ("dog", "NN"), ("ran", "VBD")])
        assert chunk(ts) == (("NP", 0, 3, None), ("VP", 3, 4, None))

    def test_vp_with_np_complement(self):
        ts = _tagged([("dogs", "NNS"), ("chase", "VBP"), ("cats", "NNS")])
        assert chunk(ts) == (("NP", 0, 1, None), ("VP", 1, 3, "NP"))

    def test_vp_with_pp_complement(self):
        ts = _tagged([("soon", "RB"), ("sat", "VBD"), ("on", "IN"), ("the", "DT"),
                      ("mat", "NN")])
        assert chunk(ts) == (("VP", 0, 5, "PP"),)

    def test_pp(self):
        ts = _tagged([("in", "IN"), ("the", "DT"), ("house", "NN")])
        assert chunk(ts) == (("PP", 0, 3, "NP"),)

    def test_unfinished_phrases_are_skipped(self):
        # a determiner, an adverb or a preposition with no head after it
        # starts no phrase, but the scan still finds the next one
        ts = _tagged([("the", "DT"), ("very", "RB"), ("of", "IN"), (",", "PUNCT"),
                      ("big", "JJ"), ("news", "NN"), ("broke", "VBD"), ("in", "IN"),
                      (".", "PUNCT")])
        assert chunk(ts) == (("NP", 4, 6, None), ("VP", 6, 7, None))

    def test_phrases_tile_in_order(self):
        rng = random.Random(4)
        for _ in range(2000):
            seq = [(f"w{i}", rng.choice(TAGSET)) for i in range(rng.randint(0, 20))]
            end = 0
            for label, start, stop, complement in chunk(_tagged(seq)):
                assert end <= start < stop <= len(seq)
                assert (label, complement) in {("NP", None), ("PP", "NP"), ("VP", None),
                                               ("VP", "NP"), ("VP", "PP")}
                end = stop


class TestTreeMetrics:
    def test_basic(self):
        ts = _tagged([("Dogs", "NN"), ("bark", "VB"), (".", "PUNCT")])
        depth, np_d, vp_d, vps = tree_metrics(chunk(ts))
        assert (depth, np_d, vp_d, vps) == (2, 1, 1, 1)

    def test_flat_o_leaves(self):
        ts = _tagged([(".", "PUNCT"), (",", "PUNCT")])
        assert tree_metrics(chunk(ts)) == (1, 0, 0, 0)

    def test_nested_np_in_vp(self):
        ts = _tagged([("dogs", "NNS"), ("chase", "VBP"), ("cats", "NNS")])
        depth, _, vp_d, vps = tree_metrics(chunk(ts))
        assert vp_d == 2
        assert depth == 3
        assert vps == 1

    def test_phrase_depths(self):
        assert tree_metrics(()) == (1, 0, 0, 0)
        assert tree_metrics((("NP", 0, 1, None),)) == (2, 1, 0, 0)
        assert tree_metrics((("PP", 0, 2, "NP"),)) == (3, 1, 0, 0)
        assert tree_metrics((("VP", 0, 1, None),)) == (2, 0, 1, 1)
        assert tree_metrics((("VP", 0, 2, "NP"),)) == (3, 1, 2, 1)
        assert tree_metrics((("VP", 0, 3, "PP"), ("VP", 3, 4, None))) == (4, 1, 3, 2)


# The tree chunker and the tree-metrics recursion that chunk/tree_metrics
# replaced: the differential tests below hold the flat scan to them.
@dataclass(frozen=True)
class _OldNode:
    label: str
    children: tuple


def _old_match_np(tags, i):
    j = i
    if j < len(tags) and tags[j] in ("DT", "PRP$"):
        j += 1
    while j < len(tags) and tags[j] in ("JJ", "JJR", "JJS"):
        j += 1
    head = j
    while j < len(tags) and (tags[j] in NOUN_TAGS or tags[j] in ("PRP", "CD")):
        j += 1
    return j if j > head else None


def _old_match_pp(tags, i):
    if i >= len(tags) or tags[i] != "IN":
        return None
    np_end = _old_match_np(tags, i + 1)
    if np_end is None:
        return None
    return i + 1, np_end


def _old_match_vp(tags, i):
    j = i
    while j < len(tags) and tags[j] in ("RB", "RBR", "RBS"):
        j += 1
    head = j
    while j < len(tags) and tags[j] in VERB_TAGS:
        j += 1
    if j == head:
        return None
    verb_end = j
    pp = _old_match_pp(tags, j)
    np_end = _old_match_np(tags, j)
    pp_end = pp[1] if pp else None
    best = max(e for e in (np_end, pp_end, j) if e is not None)
    return verb_end, j, best


def _old_chunk(ts):
    leaves = list(ts.tokens)
    tags = [t for _, t in leaves]
    children = []
    i = 0
    while i < len(leaves):
        candidates = []
        vp = _old_match_vp(tags, i)
        if vp is not None:
            verb_end, inner_start, end = vp
            kids = list(leaves[i:verb_end])
            if end > inner_start:
                if tags[inner_start] == "IN":
                    np_start, np_end = inner_start + 1, end
                    pp_kids = [leaves[inner_start], _OldNode("NP", tuple(leaves[np_start:np_end]))]
                    kids.append(_OldNode("PP", tuple(pp_kids)))
                else:
                    kids.append(_OldNode("NP", tuple(leaves[inner_start:end])))
            candidates.append((end, _OldNode("VP", tuple(kids))))
        pp = _old_match_pp(tags, i)
        if pp is not None:
            np_start, end = pp
            node = _OldNode("PP", (leaves[i], _OldNode("NP", tuple(leaves[np_start:end]))))
            candidates.append((end, node))
        np_end = _old_match_np(tags, i)
        if np_end is not None:
            candidates.append((np_end, _OldNode("NP", tuple(leaves[i:np_end]))))
        if candidates:
            end, node = max(candidates, key=lambda c: c[0])
            children.append(node)
            i = end
        else:
            children.append(leaves[i])
            i += 1
    return _OldNode("S", tuple(children))


def _old_tree_metrics(tree):
    np_depth = vp_depth = vp_count = 0

    def depth(node):
        nonlocal np_depth, vp_depth, vp_count
        d = 1 + max((depth(c) for c in node.children if isinstance(c, _OldNode)), default=0)
        if node.label == "NP":
            np_depth = max(np_depth, d)
        elif node.label == "VP":
            vp_depth = max(vp_depth, d)
            vp_count += 1
        return d

    return depth(tree), np_depth, vp_depth, vp_count


def _old_spans(tree):
    """(label, start, end) of each top-level phrase of an old tree."""
    spans, i = [], 0
    for node in tree.children:
        if isinstance(node, _OldNode):
            n = sum(1 for _ in _old_leaves(node))
            spans.append((node.label, i, i + n))
            i += n
        else:
            i += 1
    return spans


def _old_complements(tree):
    """The nested phrase's label of each top-level phrase of an old tree
    (a VP's NP or PP, a PP's NP), or None."""
    return [next((c.label for c in node.children if isinstance(c, _OldNode)), None)
            for node in tree.children if isinstance(node, _OldNode)]


def _old_leaves(node):
    for c in node.children:
        if isinstance(c, _OldNode):
            yield from _old_leaves(c)
        else:
            yield c


_GRAMMAR_TAGS = ("DT", "PRP$", "JJ", "JJS", "NN", "NNS", "NNP", "PRP", "CD", "VB", "VBD",
                 "VBZ", "VBG", "RB", "RBR", "IN", "TO", "CC", "PUNCT")


class TestTreeMetricsDifferential:
    """The flat scan against the tree chunker and recursion it replaced."""

    def _check(self, ts):
        phrases = chunk(ts)
        old = _old_chunk(ts)
        assert tree_metrics(phrases) == _old_tree_metrics(old)
        assert [p[:3] for p in phrases] == _old_spans(old)
        assert [p[3] for p in phrases] == _old_complements(old)

    def test_chunked_sequences(self):
        rng = random.Random(11)
        for _ in range(20_000):
            # half the sequences draw from the tags the grammar reads, so
            # long phrases and VP complements are common
            pool = TAGSET if rng.random() < 0.5 else _GRAMMAR_TAGS
            self._check(_tagged([(f"w{i}", rng.choice(pool))
                                 for i in range(rng.randint(0, 25))]))

    def test_synthetic_corpus_sentences(self, tmp_path):
        corpus = write_synthetic_corpus(tmp_path, {"real": 8, "fake": 8, "satire": 8}, seed=3)
        model = default_model()
        n_sent = 0
        for path in sorted(corpus.rglob("*.txt")):
            for sent in split_sentences(path.read_text(encoding="utf-8")):
                self._check(tag(sent, model))
                n_sent += 1
        assert n_sent > 200


class TestLoadPretagged:
    def test_two_sentences(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("the\tDT\ndog\tNN\n\nit\tPRP\nran\tVBD\n")
        sents = load_pretagged(f)
        assert len(sents) == 2
        assert sents[0].tags() == ["DT", "NN"]

    def test_bad_tag(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("the\tNOPE\n")
        with pytest.raises(TaggerError, match="NOPE"):
            load_pretagged(f)

    def test_malformed_line_number(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("the\tDT\nbroken line here\n")
        with pytest.raises(TaggerError, match=":2:"):
            load_pretagged(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("")
        assert load_pretagged(f) == []

    def test_not_utf8(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_bytes("the\tDT\ncaf\u00e9\tNN\n".encode("latin-1"))
        with pytest.raises(TaggerError, match=r"t\.tsv: not UTF-8 \(line 2: "):
            load_pretagged(f)


class TestLoadClosedClass:
    def test_shipped_list_loads(self):
        backoff = load_closed_class()
        assert backoff["the"] == "DT"
        assert set(backoff.values()) <= set(TAGSET)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "cc.tsv"
        f.write_text("# closed class\n\nThe\tDT\n  of\tIN  \n")
        assert load_closed_class(f) == {"the": "DT", "of": "IN"}

    @pytest.mark.parametrize("line", ["the DT", "the\tDT\tx"])
    def test_malformed_line(self, tmp_path, line):
        # used to end in a bare ValueError from unpacking the split
        f = tmp_path / "cc.tsv"
        f.write_text(f"of\tIN\n{line}\n")
        with pytest.raises(TaggerError, match=r"cc\.tsv:2: expected word<TAB>tag, got "):
            load_closed_class(f)

    def test_unknown_tag(self, tmp_path):
        f = tmp_path / "cc.tsv"
        f.write_text("of\tIN\nthe\tZZ\n")
        with pytest.raises(TaggerError, match=r"cc\.tsv:2: tag 'ZZ' not in tagset"):
            load_closed_class(f)

    def test_repeated_word_rejected(self, tmp_path):
        # the lowercased word is the key; the last tag used to win silently
        f = tmp_path / "cc.tsv"
        f.write_text("the\tDT\nof\tIN\nThe\tNN\n")
        with pytest.raises(TaggerError, match=r"cc\.tsv:3: duplicate word 'the'"):
            load_closed_class(f)


_VALID_MODEL = {"format": "newsstyle-tagger", "tagset": ["NN", "DT"],
                "weights": {"bias": {"NN": 1.0, "DT": -1}}, "lexical_backoff": {"the": "DT"},
                "version": "1", "vocab": ["dog"]}


class TestTaggerModelLoad:
    def _load(self, tmp_path, **changes):
        f = tmp_path / "model.json"
        f.write_text(json.dumps(_VALID_MODEL | changes), encoding="utf-8")
        return TaggerModel.load(f)

    def test_valid_file_loads(self, tmp_path):
        model = self._load(tmp_path)
        assert model.tagset == ("NN", "DT")
        assert model.weights == {"bias": {"NN": 1.0, "DT": -1}}
        assert model.lexical_backoff == {"the": "DT"}
        assert model.vocab == {"dog"}

    def test_fields_cannot_be_assigned(self):
        # a model is a value: the tables tag() fills belong to it, so a new value
        # is a new model
        model = default_model()
        names = TaggerModel.__slots__
        assert {"tagset", "weights", "lexical_backoff", "version", "vocab",
                "_tables", "_p1"} <= set(names)
        for name in names:
            before = getattr(model, name)
            with pytest.raises(AttributeError):
                setattr(model, name, {})
            with pytest.raises(AttributeError):
                delattr(model, name)
            assert getattr(model, name) is before

    def test_shipped_model_round_trips(self, tmp_path):
        shipped = default_model()
        save_model(shipped, tmp_path / "m.json")
        assert TaggerModel.load(tmp_path / "m.json") == shipped

    @pytest.mark.parametrize("value", [5, "NN", [1], ["NN", None], {"NN": 1}])
    def test_tagset_not_list_of_strings(self, tmp_path, value):
        with pytest.raises(TaggerError, match=r"model\.json: tagset must be a list of strings"):
            self._load(tmp_path, tagset=value)

    @pytest.mark.parametrize("value", [5, [], {"bias": 5}, {"bias": {"NN": "1"}},
                                       {"bias": {"NN": True}}, {"bias": {"NN": None}}])
    def test_weights_not_object_of_objects_of_numbers(self, tmp_path, value):
        # 5 used to load and then fail inside tag() with AttributeError
        with pytest.raises(TaggerError,
                           match=r"model\.json: weights must be an object of objects of numbers"):
            self._load(tmp_path, weights=value)

    @pytest.mark.parametrize("value", [5, ["the"], {"the": 1}, {"the": None}])
    def test_lexical_backoff_not_string_map(self, tmp_path, value):
        with pytest.raises(TaggerError, match=r"model\.json: lexical_backoff must be an object "
                                              r"mapping strings to strings"):
            self._load(tmp_path, lexical_backoff=value)

    @pytest.mark.parametrize("value", [5, "dog", [3], {"dog": 1}])
    def test_vocab_not_list_of_strings(self, tmp_path, value):
        with pytest.raises(TaggerError, match=r"model\.json: vocab must be a list of strings"):
            self._load(tmp_path, vocab=value)

    @pytest.mark.parametrize("value", [1, 1.0, None, ["1"]])
    def test_version_not_string(self, tmp_path, value):
        with pytest.raises(TaggerError, match=r"model\.json: version must be a string"):
            self._load(tmp_path, version=value)

    def test_not_utf8(self, tmp_path):
        f = tmp_path / "model.json"
        f.write_bytes(json.dumps(_VALID_MODEL | {"vocab": ["caf\u00e9"]},
                                 ensure_ascii=False).encode("latin-1"))
        with pytest.raises(TaggerError, match=r"model\.json: not UTF-8 \(line 1: "):
            TaggerModel.load(f)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_weight_not_finite(self, tmp_path, value):
        # json.dumps writes NaN, Infinity and -Infinity, and json.loads reads
        # them back; a NaN weight used to load and change the tags
        with pytest.raises(TaggerError, match=r"model\.json: weights must be finite numbers$"):
            self._load(tmp_path, weights={"bias": {"NN": 1.0, "DT": value}})

    @pytest.mark.parametrize("changes", [
        {"weights": {"bias": {"NN": 1.0, "ZZ": 2.0}}},
        {"lexical_backoff": {"the": "ZZ"}},
    ])
    def test_tag_not_in_tagset(self, tmp_path, changes):
        with pytest.raises(TaggerError, match=r"model\.json: tag 'ZZ' not in tagset$"):
            self._load(tmp_path, **changes)

    def test_shipped_model_tags_in_its_tagset(self):
        shipped = default_model()
        used = {t for row in shipped.weights.values() for t in row}
        assert used | set(shipped.lexical_backoff.values()) <= set(shipped.tagset)
