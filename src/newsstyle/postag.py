"""Part-of-speech tagging and shallow chunking.

A greedy averaged-perceptron tagger over a Penn-style tagset, a
longest-match chunk grammar producing flat NP/VP/PP phrases, and a loader for
externally tagged input (token<TAB>tag lines), used to train the tagger.
"""

from __future__ import annotations

import json
import random
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import InputError
from .textseg import NUMBER, PUNCT, SYMBOL, WORD, WORD_MEMO_CAP, Sentence, Token

_RESOURCE_DIR = Path(__file__).parent / "resources"

TAGSET = (
    "NN NNS NNP NNPS PRP PRP$ WP WP$ DT WDT PDT CD RB RBR RBS UH "
    "VB VBD VBG VBN VBP VBZ JJ JJR JJS IN TO MD CC EX POS RP WRB FW "
    "SYM PUNCT"
).split()

VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})
NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})


class TaggerError(ValueError, InputError):
    pass


@dataclass
class TaggerModel:
    tagset: tuple[str, ...]
    weights: dict[str, dict[str, float]]
    lexical_backoff: dict[str, str]
    version: str = "1"
    vocab: set[str] = field(default_factory=set)
    # built by the first tag() over these weights, rebuilt when they are
    # reassigned
    _word_scores: _WordScores | None = field(
        default=None, init=False, compare=False, repr=False)

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "newsstyle-tagger",
            "version": self.version,
            "tagset": list(self.tagset),
            "weights": self.weights,
            "lexical_backoff": self.lexical_backoff,
            "vocab": sorted(self.vocab),
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        try:
            payload = json.loads(TaggerError.read_text(path))
        except json.JSONDecodeError as e:
            raise TaggerError(f"{path}:{e.lineno}: not JSON: {e.msg}") from None
        if not isinstance(payload, dict) or payload.get("format") != "newsstyle-tagger":
            raise TaggerError(f"{path}: not a tagger model file")
        for key, valid, shape in _MODEL_FIELDS:
            if key not in payload:
                raise TaggerError(f"{path}: tagger model file lacks key {key!r}")
            if not valid(payload[key]):
                raise TaggerError(f"{path}: {key} must be {shape}")
        weights = payload["weights"]
        # NaN fails the comparison; an int past the float range would
        # overflow when added to a score
        if not all(abs(w) <= sys.float_info.max for row in weights.values() for w in row.values()):
            raise TaggerError(f"{path}: weights must be finite numbers")
        used = set().union(*weights.values(), payload["lexical_backoff"].values())
        unknown = used - set(payload["tagset"])
        if unknown:
            raise TaggerError(f"{path}: tag {min(unknown)!r} not in tagset")
        return cls(
            tagset=tuple(payload["tagset"]),
            weights=weights,
            lexical_backoff=payload["lexical_backoff"],
            version=payload["version"],
            vocab=set(payload["vocab"]),
        )


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def _is_weight_table(x) -> bool:
    # JSON object keys are always strings; bool is an int but not a weight
    return (isinstance(x, dict) and all(type(row) is dict for row in x.values())
            and {type(w) for row in x.values() for w in row.values()} <= {int, float})


def _is_str_map(x) -> bool:
    return isinstance(x, dict) and all(isinstance(v, str) for v in x.values())


# each key of a model file, what its value must satisfy, and how to say so
_MODEL_FIELDS = (
    ("tagset", _is_str_list, "a list of strings"),
    ("weights", _is_weight_table, "an object of objects of numbers"),
    ("lexical_backoff", _is_str_map, "an object mapping strings to strings"),
    ("version", lambda x: isinstance(x, str), "a string"),
    ("vocab", _is_str_list, "a list of strings"),
)


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[tuple[Token, str], ...]

    def tags(self) -> list[str]:
        return [tag for _, tag in self.tokens]


def load_closed_class(path: str | Path | None = None) -> dict[str, str]:
    """word<TAB>tag backoff list for closed-class words."""
    path = Path(path) if path else _RESOURCE_DIR / "closed_class.tsv"
    backoff = {}
    for lineno, raw in enumerate(TaggerError.read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaggerError(f"{path}:{lineno}: expected word<TAB>tag, got {raw!r}")
        word, t = parts
        if t not in TAGSET:
            raise TaggerError(f"{path}:{lineno}: tag {t!r} not in tagset")
        backoff[word.lower()] = t
    return backoff


def _word_features(tok: Token) -> list[str]:
    """The features of a token's own text: they depend on its norm alone."""
    low = tok.lower
    return ["bias", f"w={tok.norm}", f"lw={low}",
            f"suf1={low[-1:]}", f"suf2={low[-2:]}", f"suf3={low[-3:]}"]


def _context_features(tokens: list[Token], i: int, prev: str, prev2: str) -> list[str]:
    """The features of a token's neighbours and tag history, then its shape."""
    tok = tokens[i]
    feats = [
        f"p1={prev}",
        f"p2={prev2}|{prev}",
        f"pw={tokens[i - 1].lower if i > 0 else '<s>'}",
        f"nw={tokens[i + 1].lower if i + 1 < len(tokens) else '</s>'}",
    ]
    if tok.is_all_caps:
        feats.append("allcaps")
    if tok.kind == NUMBER:
        feats.append("num")
    if tok.norm[:1].isupper():
        feats.append("cap")
    return feats


def _features(tokens: list[Token], i: int, prev: str, prev2: str) -> list[str]:
    return _word_features(tokens[i]) + _context_features(tokens, i, prev, prev2)


def _accumulate(weights: dict[str, dict[str, float]], scores: dict[str, float],
                feats) -> dict[str, float]:
    """Add each feature's weights to ``scores`` in feature order, so each
    tag's score is a left-to-right sum; returns ``scores``."""
    for f in feats:
        tag_weights = weights.get(f)
        if tag_weights:
            for t, w in tag_weights.items():
                scores[t] = scores.get(t, 0.0) + w
    return scores


def _pick(scores: dict[str, float]) -> str:
    """Highest-scoring tag, ties to the smallest tag name; "NN" when no
    feature had a weight. The result does not depend on dict order."""
    best, best_score = "NN", None
    for t, score in scores.items():
        if best_score is None or score > best_score or (score == best_score and t < best):
            best, best_score = t, score
    return best


class _WordScores:
    """Each word's scores over its ``_word_features``, memoized.

    The tag scores are sums in feature order and the word features come
    first, so a copy of these partial scores plus the context features
    gives the same bits as scoring every feature. A word whose lowercase
    form has no ``w=``/``lw=`` weight scores only on ``bias`` and its
    suffixes, all functions of its last three lowercase letters, so it is
    keyed by those in a namespace of its own; other words are keyed by
    their norm, since ``w=`` is case-sensitive. Keys whose weighted word
    features are the same share one score table. At most
    ``WORD_MEMO_CAP`` keys are remembered; past that, new words are
    scored but not kept.
    """

    def __init__(self, weights: dict[str, dict[str, float]]):
        self.weights = weights
        self._lexical = frozenset(
            f[3:] if f.startswith("lw=") else f[2:].lower()
            for f in weights if f.startswith(("w=", "lw=")))
        self._by_norm: dict[str, dict[str, float]] = {}
        self._by_suffix: dict[str, dict[str, float]] = {}
        # the weighted word features -> their scores, one table per set
        self._tables: dict[tuple[str, ...], dict[str, float]] = {}

    def __call__(self, tok: Token) -> dict[str, float]:
        """The partial scores of ``tok``, shared: copy before adding."""
        if tok.lower in self._lexical:
            memo, key = self._by_norm, tok.norm
        else:
            memo, key = self._by_suffix, tok.lower[-3:]
        scores = memo.get(key)
        if scores is None:
            weights = self.weights
            feats = tuple(f for f in _word_features(tok) if weights.get(f))
            scores = _accumulate(weights, {}, feats)
            if len(self._by_norm) + len(self._by_suffix) < WORD_MEMO_CAP:
                scores = memo[key] = self._tables.setdefault(feats, scores)
        return scores


def _fixed_tag(model: TaggerModel, tok: Token) -> str | None:
    """Backoff and fallback rules applied before the perceptron."""
    if tok.kind in (PUNCT, SYMBOL):
        return "PUNCT"
    if tok.lower in model.lexical_backoff:
        return model.lexical_backoff[tok.lower]
    if tok.kind == NUMBER:
        return "CD"
    if tok.lower not in model.vocab and tok.is_all_caps:
        return "NNP"
    return None


def tag(sentence: Sentence, model: TaggerModel) -> TaggedSentence:
    """Greedy left-to-right tagging with closed-class backoff and
    unknown-word fallbacks (all-caps -> NNP, numbers -> CD).

    Scores the features of ``_features``, as ``train_tagger`` does, with
    each word's own part taken from the model's memo for its current
    weights: reassign ``model.weights`` rather than editing it in place.
    """
    weights = model.weights
    word_scores = model._word_scores
    if word_scores is None or word_scores.weights is not weights:
        word_scores = model._word_scores = _WordScores(weights)
    tokens = list(sentence.tokens)
    prev, prev2 = "<s>", "<s2>"
    out = []
    for i, tok in enumerate(tokens):
        t = _fixed_tag(model, tok)
        if t is None:
            scores = dict(word_scores(tok))
            t = _pick(_accumulate(weights, scores, _context_features(tokens, i, prev, prev2)))
        out.append((tok, t))
        prev2, prev = prev, t
    return TaggedSentence(tokens=tuple(out))


def train_tagger(
    annotated: list[TaggedSentence],
    epochs: int = 5,
    seed: int = 0,
    backoff: dict[str, str] | None = None,
) -> TaggerModel:
    """Averaged-perceptron training, deterministic for a fixed seed. A tag
    outside TAGSET, in the sentences or in ``backoff``, raises TaggerError."""
    if not annotated:
        raise TaggerError("empty training set")
    for sent in annotated:
        for _, t in sent.tokens:
            if t not in TAGSET:
                raise TaggerError(f"tag {t!r} not in tagset")
    backoff = dict(backoff) if backoff is not None else load_closed_class()
    unknown = set(backoff.values()) - set(TAGSET)
    if unknown:
        raise TaggerError(f"tag {min(unknown)!r} not in tagset")

    model = TaggerModel(
        tagset=tuple(TAGSET), weights={}, lexical_backoff=backoff, version="1"
    )
    weights: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    totals: dict[tuple[str, str], float] = defaultdict(float)
    stamps: dict[tuple[str, str], int] = defaultdict(int)
    step = 0

    def bump(feat: str, t: str, delta: float) -> None:
        key = (feat, t)
        totals[key] += (step - stamps[key]) * weights[feat][t]
        stamps[key] = step
        weights[feat][t] += delta

    order = list(range(len(annotated)))
    rng = random.Random(seed)
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            sent = annotated[idx]
            tokens = [tok for tok, _ in sent.tokens]
            model.vocab.update(t.lower for t in tokens)
            prev, prev2 = "<s>", "<s2>"
            for i, (tok, gold) in enumerate(sent.tokens):
                fixed = _fixed_tag(model, tok)
                if fixed is not None:
                    guess = fixed
                else:
                    step += 1
                    feats = _features(tokens, i, prev, prev2)
                    guess = _pick(_accumulate(model.weights, {}, feats))
                    if guess != gold:
                        for f in feats:
                            bump(f, gold, +1.0)
                            bump(f, guess, -1.0)
                    # condition on gold history for stable training
                    guess = gold
                prev2, prev = prev, guess
                model.weights = weights  # live weights during training

    averaged: dict[str, dict[str, float]] = {}
    for feat, tagw in weights.items():
        for t, w in tagw.items():
            key = (feat, t)
            total = totals[key] + (step - stamps[key]) * w
            avg = total / max(step, 1)
            if abs(avg) > 1e-12:
                averaged.setdefault(feat, {})[t] = round(avg, 6)
    model.weights = averaged
    return model


# ---------------------------------------------------------------------------
# chunking

_ADVERBS = frozenset({"RB", "RBR", "RBS"})
_ADJECTIVES = frozenset({"JJ", "JJR", "JJS"})
_NP_HEADS = NOUN_TAGS | {"PRP", "CD"}
Phrase = tuple[str, int, int, str | None]  # (label, start, end, complement)

# nesting depth a phrase's complement adds: PP := IN NP, and a VP holds an
# NP or a PP
_COMPLEMENT_DEPTH = {None: 0, "NP": 1, "PP": 2}


def _match_np(tags: list[str], i: int) -> int | None:
    """End of the NP starting at i, or None; ``tags`` ends in a sentinel
    that is in no tag class, so no run needs a bounds check."""
    j = i
    if tags[j] in ("DT", "PRP$"):
        j += 1
    while tags[j] in _ADJECTIVES:
        j += 1
    head = j
    while tags[j] in _NP_HEADS:
        j += 1
    return j if j > head else None


def chunk(ts: TaggedSentence) -> tuple[Phrase, ...]:
    """Longest-match phrase grammar over the tag sequence, in one scan.

    NP := (DT|PRP$)? JJ* (noun|PRP|CD)+
    VP := RB* verb+ (NP|PP)?
    PP := IN NP

    The three phrases start on disjoint tags, and so do a VP's two
    complements, so at most one phrase can start at a position. Returns
    the phrases in order, each over the tokens [start, end): complement
    is "NP" or "PP" for a VP that has one, "NP" for a PP, and None
    otherwise. Tokens in no phrase are left out.
    """
    tags = ts.tags()
    n = len(tags)
    tags.append("")  # ends every run in _match_np and below
    phrases = []
    i = 0
    while i < n:
        t = tags[i]
        if t == "IN":
            end = _match_np(tags, i + 1)
            if end is not None:
                phrases.append(("PP", i, end, "NP"))
                i = end
                continue
        elif t in _ADVERBS or t in VERB_TAGS:
            j = i
            while tags[j] in _ADVERBS:
                j += 1
            verb_end = j
            while tags[verb_end] in VERB_TAGS:
                verb_end += 1
            if verb_end > j:
                if tags[verb_end] == "IN":
                    end, complement = _match_np(tags, verb_end + 1), "PP"
                else:
                    end, complement = _match_np(tags, verb_end), "NP"
                if end is None:
                    end, complement = verb_end, None
                phrases.append(("VP", i, end, complement))
                i = end
                continue
        else:
            end = _match_np(tags, i)
            if end is not None:
                phrases.append(("NP", i, end, None))
                i = end
                continue
        i += 1
    return tuple(phrases)


def tree_metrics(chunks: tuple[Phrase, ...]) -> tuple[int, int, int, int]:
    """(depth, np_depth, vp_depth, vp_count) of the tree the phrases form
    under one sentence root.

    A phrase's depth is 1 plus its complement's: NP 1, PP 2, VP 1, 2 with
    an NP and 3 with a PP. ``depth`` counts the root too; ``np_depth`` is 1
    when any NP exists, inside a PP or a VP as well, and ``vp_depth`` is
    the deepest VP's depth (0 when absent).
    """
    depth = np_depth = vp_depth = vp_count = 0
    for label, _, _, complement in chunks:
        d = 1 + _COMPLEMENT_DEPTH[complement]
        if d > depth:
            depth = d
        if label == "VP":
            vp_count += 1
            if d > vp_depth:
                vp_depth = d
            if complement is not None:
                np_depth = 1
        else:
            np_depth = 1
    return 1 + depth, np_depth, vp_depth, vp_count


# ---------------------------------------------------------------------------
# external input

def load_pretagged(path: str | Path) -> list[TaggedSentence]:
    """token<TAB>tag lines, blank line between sentences."""
    path = Path(path)
    sentences: list[TaggedSentence] = []
    current: list[tuple[Token, str]] = []
    offset = 0
    for lineno, raw in enumerate(TaggerError.read_text(path).splitlines(), 1):
        if not raw.strip():
            if current:
                sentences.append(TaggedSentence(tokens=tuple(current)))
                current = []
            continue
        parts = raw.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise TaggerError(f"{path}:{lineno}: expected token<TAB>tag, got {raw!r}")
        text, t = parts
        if t not in TAGSET:
            raise TaggerError(f"{path}:{lineno}: tag {t!r} not in tagset")
        kind = WORD if text[0].isalpha() else (NUMBER if text[0].isdigit() else PUNCT)
        tok = Token(
            text=text,
            kind=kind,
            span=(offset, offset + len(text)),
            is_all_caps=kind == WORD and len(text) >= 2 and text.isupper(),
        )
        offset += len(text) + 1
        current.append((tok, t))
    if current:
        sentences.append(TaggedSentence(tokens=tuple(current)))
    return sentences


_DEFAULT_MODEL: TaggerModel | None = None


def default_model() -> TaggerModel:
    """The pinned tagger model shipped with the package."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = TaggerModel.load(_RESOURCE_DIR / "tagger_model.json")
    return _DEFAULT_MODEL
