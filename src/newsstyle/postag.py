"""Part-of-speech tagging and shallow chunking.

A greedy averaged-perceptron tagger over a Penn-style tagset, and a
longest-match chunk grammar, one regular expression over tag classes, that
yields flat NP/VP/PP phrases. The package ships one trained model and only
tags with it. ``tools/build_tagger_model.py`` trains models, scoring with
the functions here, and writes the shipped one.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from pathlib import Path

from . import FrozenRecord, InputError, slot_setters
from .textseg import NUMBER, PUNCT, SYMBOL, Sentence, Token

_RESOURCE_DIR = Path(__file__).parent / "resources"

VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})
NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})


class TaggerError(ValueError, InputError):
    pass


class TaggerModel(FrozenRecord):
    """A tagger model is a value: to change a field, build a new model
    from the old one's fields rather than editing one in place. The rows of
    its features that take a value are filed by that value when it is
    made, and the score tables that ``tag`` fills belong to it from its
    construction on.

    A tag's perceptron score is a sum in feature order: the word features
    first, then the context features, then the shape features. The first
    and last depend only on a token's type, so each type's entry holds its
    fixed tag (``_fixed_tag``) or else the partial scores of its weighted
    word features and the weight rows of its shape features; ``tag`` adds
    the context rows between them, which gives the same bits as scoring
    every feature. The entry also holds the rows of the type as a
    neighbour (``pw=``, ``nw=``). Types whose weighted word features are
    the same share one score table, so the tables grow with the model's
    features, not with the types seen; types whose entries hold the same
    fixed tag, score table, shape rows and neighbour rows share one entry
    too. The entry is stored on the token's record, paired with the model.

    Most words of open text are plain: no fixed tag, and no weighted
    ``w=``, ``lw=``, ``pw=`` or ``nw=`` feature. A plain word's entry
    depends only on its shape and on which of its last three, two and one
    letters carry a suffix weight, so plain words with the same five
    values share the entry the full path built for the first of them. The
    memo holds at most one entry per shape for each weighted suffix, and
    one per shape for none, so the model's suffix rows bound it, not the
    words seen.
    """
    __slots__ = ("tagset", "weights", "lexical_backoff", "version", "vocab",
                 "_tables", "_entries", "_plain", "_p1", "_p2", "_pw", "_nw", "_w", "_lw",
                 "_suf1", "_suf2", "_suf3")
    _fields = __slots__[:5]

    def __init__(self, tagset: tuple[str, ...], weights: dict[str, dict[str, float]],
                 lexical_backoff: dict[str, str], version: str = "1",
                 vocab: frozenset[str] = frozenset()):
        object.__setattr__(self, "tagset", tagset)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lexical_backoff", lexical_backoff)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "vocab", vocab)
        # the weighted word features -> their scores, one table per set
        object.__setattr__(self, "_tables", {})
        # the identities of an entry's parts -> the one entry that holds them
        object.__setattr__(self, "_entries", {})
        # a plain word's shape and weighted suffixes -> its entry
        object.__setattr__(self, "_plain", {})
        # the non-empty weight rows of the templates that take a value: the
        # context features p1= by tag, p2= by (tag, tag), pw= and nw= by
        # word, and the word features w=, lw= and suf1= to suf3= by text
        p1, p2, pw, nw, w, lw, suf1, suf2, suf3 = {}, {}, {}, {}, {}, {}, {}, {}, {}
        by_head = {"p1": p1, "p2": p2, "pw": pw, "nw": nw, "w": w, "lw": lw,
                   "suf1": suf1, "suf2": suf2, "suf3": suf3}
        for f, row in self.weights.items():
            head, sep, value = f.partition("=")
            table = by_head.get(head)
            if table is None or not sep or not row:
                continue
            if table is p2:
                # the feature is f"p2={prev2}|{prev}": file it under every cut
                for i, c in enumerate(value):
                    if c == "|":
                        p2[value[:i], value[i + 1:]] = row
            else:
                table[value] = row
        for name, table in (("_p1", p1), ("_p2", p2), ("_pw", pw), ("_nw", nw), ("_w", w),
                            ("_lw", lw), ("_suf1", suf1), ("_suf2", suf2), ("_suf3", suf3)):
            object.__setattr__(self, name, table)

    def _entry(self, tok: Token) -> tuple:
        """(self, fixed tag or None, word scores, shape rows, pw= row, nw=
        row) of ``tok``'s type, stored on its record; the entry and its
        word scores are shared, so copy the scores before adding.

        A plain word takes the short path: its weighted word features are
        ``bias`` and its weighted suffixes, its shape rows follow from
        ``is_all_caps`` and a capital first letter, and it has no
        neighbour rows. Those five values are the key of ``_plain``, which
        holds the entry ``_build_entry`` gave the first plain word with
        them, the very object it gives every other one. Any other word
        takes the full path."""
        fixed = _fixed_tag(self.lexical_backoff, self.vocab, tok)
        low = tok.lower
        if (fixed is None and tok.norm not in self._w and low not in self._lw
                and low not in self._pw and low not in self._nw):
            s3, s2, s1 = low[-3:], low[-2:], low[-1:]
            key = (tok.is_all_caps, tok.norm[:1].isupper(), s3 if s3 in self._suf3 else None,
                   s2 if s2 in self._suf2 else None, s1 if s1 in self._suf1 else None)
            entry = self._plain.get(key)
            if entry is None:
                entry = self._plain[key] = self._build_entry(tok, None)
        else:
            entry = self._build_entry(tok, fixed)
        object.__setattr__(tok, "tagging", entry)
        return entry

    def _build_entry(self, tok: Token, fixed: str | None) -> tuple:
        """The full path of ``_entry``: ``tok``'s entry from its features,
        given its fixed tag."""
        weights = self.weights
        scores, shape = None, ()
        if fixed is None:
            feats = tuple(f for f in _word_features(tok) if weights.get(f))
            scores = self._tables.get(feats)
            if scores is None:
                scores = self._tables[feats] = _accumulate(weights, {}, feats)
            shape = tuple(weights[f] for f in _shape_features(tok) if weights.get(f))
        pw, nw = self._pw.get(tok.lower), self._nw.get(tok.lower)
        # every part is None or an object the model keeps, so its id names it
        key = (fixed, id(scores), id(pw), id(nw), *map(id, shape))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (self, fixed, scores, shape, pw, nw)
        return entry

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
            vocab=frozenset(payload["vocab"]),
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


class TaggedSentence(FrozenRecord):
    __slots__ = _fields = ("tokens",)

    def __init__(self, tokens: tuple[tuple[Token, str], ...]):
        _set_tokens(self, tokens)


[_set_tokens] = slot_setters(TaggedSentence)


def _word_features(tok: Token) -> list[str]:
    """The features of a token's own text: they depend on its norm alone."""
    low = tok.lower
    return ["bias", f"w={tok.norm}", f"lw={low}",
            f"suf1={low[-1:]}", f"suf2={low[-2:]}", f"suf3={low[-3:]}"]


def _shape_features(tok: Token) -> list[str]:
    """The features of a token's shape: they depend on its type alone."""
    feats = []
    if tok.is_all_caps:
        feats.append("allcaps")
    if tok.norm[:1].isupper():
        feats.append("cap")
    return feats


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


def _fixed_tag(backoff: dict[str, str], vocab: frozenset[str] | set[str],
               tok: Token) -> str | None:
    """Backoff and fallback rules applied before the perceptron: a model's
    ``lexical_backoff`` and ``vocab``, or those of a model in training."""
    if tok.kind in (PUNCT, SYMBOL):
        return "PUNCT"
    if tok.lower in backoff:
        return backoff[tok.lower]
    if tok.kind == NUMBER:
        return "CD"
    if tok.lower not in vocab and tok.is_all_caps:
        return "NNP"
    return None


def tag(sentence: Sentence, model: TaggerModel) -> TaggedSentence:
    """Greedy left-to-right tagging with closed-class backoff and
    unknown-word fallbacks (all-caps -> NNP, numbers -> CD).

    Scores a token's word features, then its context features (``p1=``,
    ``p2=``, ``pw=``, ``nw=``), then its shape features, the order that
    training scores them in, with each type's own part taken from its
    entry for the model.
    """
    tokens = sentence.tokens
    entries = []
    for tok in tokens:
        entry = tok.tagging
        if entry is None or entry[0] is not model:
            entry = model._entry(tok)
        entries.append(entry)
    last = len(entries) - 1
    p1, p2 = model._p1.get, model._p2.get
    pw = model._pw.get("<s>")
    prev, prev2 = "<s>", "<s2>"
    out = []
    for i, entry in enumerate(entries):
        t = entry[1]
        if t is None:
            scores = dict(entry[2])
            get = scores.get
            nw = entries[i + 1][5] if i < last else model._nw.get("</s>")
            for row in (p1(prev), p2((prev2, prev)), pw, nw, *entry[3]):
                if row is not None:
                    for u, w in row.items():
                        scores[u] = get(u, 0.0) + w
            t = _pick(scores)
        out.append((tokens[i], t))
        pw = entry[4]
        prev2, prev = prev, t
    return TaggedSentence(tokens=tuple(out))


# ---------------------------------------------------------------------------
# chunking

Phrase = tuple[str, int, int, str | None]  # (label, start, end, complement)

# nesting depth a phrase's complement adds: PP := IN NP, and a VP holds an
# NP or a PP
_COMPLEMENT_DEPTH = {None: 0, "NP": 1, "PP": 2}

# the one-letter class of each tag the phrase grammar reads; any other is O
_TAG_CLASS = {
    **dict.fromkeys(NOUN_TAGS | {"PRP", "CD"}, "N"), **dict.fromkeys(VERB_TAGS, "V"),
    "DT": "D", "PRP$": "D", "JJ": "J", "JJR": "J", "JJS": "J",
    "RB": "R", "RBR": "R", "RBS": "R", "IN": "I",
}
# PP := IN NP, VP := RB* verb+ (PP|NP)?, NP := (DT|PRP$)? JJ* (noun|PRP|CD)+,
# over the classes; the last group a match closes (none for a bare VP)
# names its phrase and complement
_PHRASE_RE = re.compile(r"(ID?J*N+)|R*V+(?:(ID?J*N+)|(D?J*N+))?|(D?J*N+)")
_LABEL_BY_GROUP = {1: ("PP", "NP"), 2: ("VP", "PP"), 3: ("VP", "NP"), None: ("VP", None),
                   4: ("NP", None)}


def chunk(ts: TaggedSentence) -> tuple[Phrase, ...]:
    """The phrases of ``_PHRASE_RE``'s longest-match grammar, in order.

    The three phrases start on disjoint classes, and so do a VP's two
    complements, so at most one phrase can start at a position. Each
    phrase is over the tokens [start, end): complement is "NP" or "PP" for
    a VP that has one, "NP" for a PP, and None otherwise. Tokens in no
    phrase are left out.
    """
    classes = "".join([_TAG_CLASS.get(t, "O") for _, t in ts.tokens])
    phrases = []
    for m in _PHRASE_RE.finditer(classes):
        label, complement = _LABEL_BY_GROUP[m.lastindex]
        phrases.append((label, m.start(), m.end(), complement))
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


@functools.cache
def default_model() -> TaggerModel:
    """The pinned tagger model shipped with the package."""
    return TaggerModel.load(_RESOURCE_DIR / "tagger_model.json")
