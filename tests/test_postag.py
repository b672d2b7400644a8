import random
from collections import defaultdict
from pathlib import Path

import pytest

import newsstyle.postag

TAGGED_CORPUS = Path(newsstyle.postag.__file__).parent / "resources" / "tagged_corpus.tsv"

from newsstyle.postag import (
    ChunkNode,
    TaggedSentence,
    TaggerError,
    chunk,
    default_model,
    leaf_count,
    load_pretagged,
    tag,
    train_tagger,
    tree_metrics,
)
from newsstyle.textseg import Sentence, Token, split_sentences, tokenize


def _sent(text):
    return Sentence(tokens=tuple(tokenize(text)), index=0)


def _tagged(pairs):
    toks = []
    pos = 0
    for text, t in pairs:
        toks.append((Token(text=text, kind="word" if text[0].isalpha() else "punctuation",
                           span=(pos, pos + len(text)),
                           is_all_caps=len(text) >= 2 and text.isalpha() and text.isupper()), t))
        pos += len(text) + 1
    return TaggedSentence(tokens=tuple(toks))


class TestTrainTagger:
    def test_memorizes_single_sentence(self):
        ts = _tagged([("dogs", "NNS"), ("chase", "VBP"), ("cats", "NNS")])
        model = train_tagger([ts, ts], epochs=5, seed=1, backoff={})
        sent = Sentence(tokens=tuple(t for t, _ in ts.tokens), index=0)
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
            sent = Sentence(tokens=tuple(t for t, _ in ts.tokens), index=0)
            for (_, gold), (_, pred) in zip(ts.tokens, tag(sent, model).tokens):
                total += 1
                correct += gold == pred
        assert correct / total >= 0.90


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
        model.weights = {f: {t: round(w) for t, w in tw.items()} for f, tw in model.weights.items()}
        rng = random.Random(5)
        vocab = sorted(model.vocab)
        for _ in range(200):
            for sent in split_sentences(_random_text(rng, vocab)):
                assert tag(sent, model).tags() == _old_tag(sent, model)


class TestChunk:
    def test_np_vp_o(self):
        ts = _tagged([("Dogs", "NN"), ("bark", "VB"), (".", "PUNCT")])
        tree = chunk(ts)
        labels = [c.label if hasattr(c, "label") else "leaf" for c in tree.children]
        assert labels == ["NP", "VP", "leaf"]

    def test_all_punct(self):
        ts = _tagged([(".", "PUNCT"), ("!", "PUNCT")])
        tree = chunk(ts)
        assert all(not hasattr(c, "label") for c in tree.children)

    def test_np_of_three(self):
        ts = _tagged([("the", "DT"), ("big", "JJ"), ("dog", "NN"), ("ran", "VBD")])
        tree = chunk(ts)
        np_node, vp_node = tree.children
        assert np_node.label == "NP" and len(np_node.children) == 3
        assert vp_node.label == "VP" and len(vp_node.children) == 1

    def test_vp_with_np_complement(self):
        ts = _tagged([("dogs", "NNS"), ("chase", "VBP"), ("cats", "NNS")])
        tree = chunk(ts)
        vp = tree.children[1]
        assert vp.label == "VP"
        assert any(hasattr(c, "label") and c.label == "NP" for c in vp.children)

    def test_pp(self):
        ts = _tagged([("in", "IN"), ("the", "DT"), ("house", "NN")])
        tree = chunk(ts)
        assert tree.children[0].label == "PP"

    def test_no_token_loss(self):
        random.seed(4)
        tags = ["DT", "JJ", "NN", "VBD", "IN", "NNP", "RB", "PUNCT", "CD", "PRP"]
        for _ in range(50):
            seq = [(f"w{i}", random.choice(tags)) for i in range(random.randint(1, 12))]
            ts = _tagged(seq)
            assert leaf_count(chunk(ts)) == len(seq)


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

    def test_arbitrary_labels(self):
        leaf = (Token(text="deep", kind="word", span=(0, 4)), "NN")
        tree = ChunkNode("ROOT", (ChunkNode("X", (ChunkNode("Y", (leaf,)),)),))
        assert tree_metrics(tree) == (3, 0, 0, 0)
        assert leaf_count(tree) == 1


def _old_node_depth(node):
    if not isinstance(node, ChunkNode):
        return 0
    if not node.children:
        return 1
    return 1 + max(_old_node_depth(c) for c in node.children)


def _old_walk(node):
    yield node
    if isinstance(node, ChunkNode):
        for c in node.children:
            yield from _old_walk(c)


def _old_tree_metrics(tree):
    """The two-pass version: a depth recursion per NP/VP node over a full walk."""
    depth = _old_node_depth(tree)
    np_depth = vp_depth = vp_count = 0
    for node in _old_walk(tree):
        if isinstance(node, ChunkNode):
            if node.label == "NP":
                np_depth = max(np_depth, _old_node_depth(node))
            elif node.label == "VP":
                vp_depth = max(vp_depth, _old_node_depth(node))
                vp_count += 1
    return depth, np_depth, vp_depth, vp_count


def _old_leaf_count(tree):
    return sum(1 for n in _old_walk(tree) if not isinstance(n, ChunkNode))


def _random_tree(rng, depth):
    """Arbitrary labels, empty nodes and leaves at any level."""
    kids = []
    for _ in range(rng.randint(0, 4)):
        if depth > 0 and rng.random() < 0.5:
            kids.append(_random_tree(rng, depth - 1))
        else:
            kids.append((Token(text="w", kind="word", span=(0, 1)), "NN"))
    return ChunkNode(rng.choice(["S", "NP", "VP", "PP", "O", "ROOT", "X"]), tuple(kids))


class TestTreeMetricsDifferential:
    """The one-pass walk against the two-pass version it replaced."""

    def test_chunked_sequences(self):
        rng = random.Random(11)
        tags = ["DT", "PRP$", "JJ", "NN", "NNS", "NNP", "PRP", "CD", "VBD", "VBZ", "VB",
                "RB", "IN", "TO", "CC", "PUNCT"]
        for _ in range(2000):
            seq = [(f"w{i}", rng.choice(tags)) for i in range(rng.randint(1, 25))]
            tree = chunk(_tagged(seq))
            assert tree_metrics(tree) == _old_tree_metrics(tree)
            assert leaf_count(tree) == _old_leaf_count(tree) == len(seq)

    def test_arbitrary_label_trees(self):
        rng = random.Random(12)
        for _ in range(2000):
            tree = _random_tree(rng, rng.randint(0, 6))
            assert tree_metrics(tree) == _old_tree_metrics(tree)
            assert leaf_count(tree) == _old_leaf_count(tree)


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
