"""Seeded workload generators for the pipeline benchmark.

Every generator is a pure function of its seed: the same seed writes the
same bytes. The benchmark owns these generators (and the word lists under
``data/``), so edits to the test suite or to the package resources cannot
move a workload; ``tree_sha256`` records what was generated.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

_DATA = Path(__file__).parent / "data"

LABELS = ("real", "fake", "satire")

# Pinned copy of newsstyle.features.CATALOG: the header every feature
# matrix must carry, and the columns of the generated matrix.
CATALOG = (
    "GI", "SMOG", "FK", "med_depth", "med_np_depth", "med_vp_depth",
    "flu_coca_c", "flu_coca_d", "TTR", "avg_wlen",
    "WC", "WPS",
    "NN", "NNP", "PRP", "PRP$", "WP", "DT", "WDT", "CD", "RB", "UH",
    "VB", "JJ", "VBD", "VBG", "VBN", "VBP", "VBZ",
    "focuspast", "focusfuture", "i", "we", "you", "shehe", "quant",
    "compare", "negate", "swear", "netspeak", "interrog",
    "exclaim", "all_caps", "per_stop", "allPunc", "quotes", "#vps",
    "analytic", "insight", "cause", "discrep", "tentat", "certain",
    "differ", "affil", "power", "reward", "risk", "personal", "tone",
    "affect",
    "str_neg", "str_pos",
)


@dataclass
class Corpus:
    """What a generated corpus directory should load as."""
    files: int = 0                  # .txt files written
    doc_ids: list[str] = field(default_factory=list)   # well-formed documents, sorted
    labels: dict[str, str] = field(default_factory=dict)  # doc id -> label
    titled: list[str] = field(default_factory=list)    # documents with a non-empty title
    malformed: list[str] = field(default_factory=list)  # paths relative to the run directory
    body_tokens: int = 0


def tree_sha256(root: Path) -> str:
    """Hash of every file under root: relative path and bytes, in order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# Token rule of newsstyle.textseg at the time the benchmark was written
# (ASCII words with treebank clitic splits, numbers, one-character
# punctuation and symbols). Throughput is reported per token of this fixed
# rule, so a change to the tokenizer does not change the denominator.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:[.,]\d+)*)|(?P<word>[A-Za-z]+(?:[-'][A-Za-z]+)*)|(?P<other>\S)"
)
_CLITIC_RE = re.compile(r".(n't|'s|'re|'ve|'ll|'d|'m)$", re.IGNORECASE)


def count_tokens(text: str) -> int:
    n = 0
    for m in _TOKEN_RE.finditer(text.translate({0x2019: "'", 0x2018: "'"})):
        n += 1
        if m.lastgroup == "word" and _CLITIC_RE.search(m.group()):
            n += 1
    return n


# ---------------------------------------------------------------------------
# corpus-narrow: byte-for-byte the synthetic corpus of the test suite's
# write_synthetic_corpus, so the ROADMAP baseline stays reproducible.

_COMMON = (
    "the a an and of in on at for with about from into during after said "
    "report plan city state government year week group member time people"
).split()
_NOUNS = (
    "story election campaign policy budget economy market leader official "
    "court debate proposal meeting speech agreement crisis program decision"
).split()
_PROPER = (
    "Washington Clinton Trump Congress Senate Reuters Texas Boston Chicago "
    "Johnson Smith Wilson Carter Europe Germany France"
).split()
_VERBS = "announced reported claimed denied approved rejected visited warned".split()
_ADJS = "new political economic federal local serious major recent".split()


def narrow_sentence(rng: random.Random, style: str) -> str:
    words = []
    for _ in range(rng.randint(6, 14)):
        r = rng.random()
        if style == "real":
            pool = _COMMON if r < 0.5 else (_NOUNS if r < 0.8 else _ADJS)
        elif style == "fake":
            pool = _COMMON if r < 0.3 else (_PROPER if r < 0.6 else _NOUNS)
        else:
            pool = _COMMON if r < 0.35 else (_NOUNS if r < 0.6 else _PROPER)
        words.append(rng.choice(pool))
    words.append(rng.choice(_VERBS))
    text = " ".join(words).capitalize() + "."
    if style == "real" and rng.random() < 0.4:
        text += ' "' + rng.choice(_NOUNS).capitalize() + ' continues," he said.'
    return text


def _narrow_title(rng: random.Random, style: str) -> str:
    if style == "fake":
        caps = [rng.choice(_PROPER).upper() for _ in range(2)]
        rest = [rng.choice(_PROPER) for _ in range(rng.randint(6, 10))]
        return " ".join(caps) + ": " + " ".join(rest)
    parts = [rng.choice(_ADJS).capitalize()] + rng.sample(_NOUNS, 3)
    return " ".join(parts[:2]) + " and the " + " ".join(parts[2:])


def write_narrow_corpus(root: Path, counts: dict[str, int], seed: int) -> Corpus:
    """Small-vocabulary corpus (82 word types) with class-dependent style."""
    rng = random.Random(seed)
    corpus = Corpus()
    for label, n in counts.items():
        d = root / label
        d.mkdir(parents=True, exist_ok=True)
        for i in range(n):
            n_sent = {"real": rng.randint(10, 16), "fake": rng.randint(4, 8),
                      "satire": rng.randint(4, 9)}[label]
            body = " ".join(narrow_sentence(rng, label) for _ in range(n_sent))
            title = _narrow_title(rng, label)
            doc_id = f"{label[0]}{i:03d}"
            (d / f"{doc_id}.txt").write_text(title + "\n\n" + body + "\n", encoding="utf-8")
            corpus.files += 1
            corpus.labels[doc_id] = label
            corpus.body_tokens += count_tokens(body)
    corpus.doc_ids = sorted(corpus.labels)
    corpus.titled = list(corpus.doc_ids)
    return corpus


# ---------------------------------------------------------------------------
# corpus-broad: Zipf-distributed words over a large vocabulary, long-tailed
# article lengths and a few malformed files.

BROAD_DOCS_PER_LABEL = 300
BROAD_SENTENCES = 5500       # body sentences over the whole corpus
BROAD_VOCAB = 40000          # Zipf support, in ranks
_SUFFIXES = ("", "s", "ed", "ing", "er", "ly", "ness", "ment", "ation", "ive")
_ONSETS = ("b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pl", "qu", "r", "s", "sh", "st", "t", "th", "tr", "v", "w", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "io")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ck")


def _read_list(name: str) -> list[str]:
    lines = (_DATA / name).read_text(encoding="utf-8").splitlines()
    return [w for w in (line.strip() for line in lines) if w and not w.startswith("#")]


def broad_vocabulary() -> tuple[list[str], set[str]]:
    """Words by Zipf rank (fixed, independent of the workload seed) and
    the set of them that are proper nouns (always capitalized)."""
    head = _read_list("head_words.txt")
    seen = set(head)
    tail: list[str] = []
    for stem in _read_list("stems.txt"):
        for suffix in _SUFFIXES:
            w = stem + suffix
            if w not in seen:
                seen.add(w)
                tail.append(w)
    rng = random.Random(20170327)
    while len(head) + len(tail) < BROAD_VOCAB:
        w = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                    for _ in range(rng.choice((1, 2, 2, 3, 3, 4))))
        if w not in seen:
            seen.add(w)
            tail.append(w)
    rng.shuffle(tail)
    proper = {w for i, w in enumerate(tail) if i % 7 == 0}
    return head + tail, proper


# mean words per sentence, P(quote), P(!), P(ALL CAPS word). Real articles
# always quote a source and fake ones never do, so fake:real separates on
# quotes and the SVM converges in a few epochs; matrix-large is the
# workload with overlapping classes.
_STYLE = {
    "real": (17, 0.25, 0.00, 0.002),
    "fake": (12, 0.00, 0.08, 0.030),
    "satire": (14, 0.10, 0.03, 0.010),
}


def write_broad_corpus(root: Path, seed: int) -> Corpus:
    """Zipf-distributed words, long-tailed lengths, three malformed files."""
    vocab, proper = broad_vocabulary()
    cum = list(itertools.accumulate(1.0 / (r + 2.7) for r in range(len(vocab))))
    speakers = [w.capitalize() for w in sorted(proper) if len(w) >= 7][:200]
    rng = random.Random(seed)

    def word() -> str:
        w = rng.choices(vocab, cum_weights=cum)[0]
        return w.capitalize() if w in proper else w

    def sentence(label: str, first: bool, doc_len: float) -> str:
        _, p_quote, p_bang, p_caps = _STYLE[label]
        n = max(3, round(rng.gauss(doc_len, 1.0)))
        words = []
        for _ in range(n):
            r = rng.random()
            if r < p_caps:
                words.append(word().upper())
            elif r < p_caps + 0.02:
                words.append(str(rng.randint(2, 2020)))
            else:
                words.append(word())
            if rng.random() < 0.06:
                words[-1] += ","
        words[-1] = words[-1].rstrip(",")
        while len(words[-1]) < 7:  # no initial or abbreviation before the stop
            words[-1] = word()
        words[0] = words[0][:1].upper() + words[0][1:]
        end = "!" if rng.random() < p_bang else ("?" if rng.random() < 0.04 else ".")
        text = " ".join(words) + end
        if rng.random() < p_quote or (first and label == "real"):
            quote = " ".join(word() for _ in range(max(1, round(rng.gauss(doc_len - 2, 1.0)))))
            text += ' "' + quote.capitalize() + '," said ' + rng.choice(speakers) + "."
        return text

    # article lengths: lognormal weights apportioned over a fixed sentence
    # budget, so the tail is long but the corpus size barely moves with seed
    weights = {(label, i): rng.lognormvariate(0.0, 1.0)
               for label in LABELS for i in range(BROAD_DOCS_PER_LABEL)}
    scale = BROAD_SENTENCES / sum(weights.values())
    malformed = set(rng.sample(sorted(weights), 3))
    kinds = iter(("empty", "utf8", "utf8"))

    corpus = Corpus()
    for label in LABELS:
        d = root / label
        d.mkdir(parents=True, exist_ok=True)
        for i in range(BROAD_DOCS_PER_LABEL):
            doc_id = f"{label[0]}{i:03d}"
            path = d / f"{doc_id}.txt"
            n_sent = max(1, round(weights[(label, i)] * scale))
            title = " ".join(word() for _ in range(rng.randint(5, 12)))
            title = title[:1].upper() + title[1:]
            if label == "fake" and rng.random() < 0.5:
                title = title.upper()
            # each author keeps a sentence length of their own, so words per
            # sentence is close to normal within a label (the ANOVA route)
            doc_len = rng.gauss(_STYLE[label][0], 2.5)
            body = " ".join(sentence(label, k == 0, doc_len) for k in range(n_sent))
            corpus.files += 1
            if (label, i) in malformed:
                if next(kinds) == "empty":
                    path.write_text(title + "\n\n", encoding="utf-8")
                else:
                    raw = (title + "\n\n" + body + "\n").encode("utf-8")
                    path.write_bytes(raw[:40] + b"\xff\xfe" + raw[40:])
                corpus.malformed.append(path.relative_to(root.parent).as_posix())
                continue
            path.write_text(title + "\n\n" + body + "\n", encoding="utf-8")
            corpus.labels[doc_id] = label
            corpus.body_tokens += count_tokens(body)
    corpus.doc_ids = sorted(corpus.labels)
    corpus.titled = list(corpus.doc_ids)
    corpus.malformed.sort()
    return corpus


# ---------------------------------------------------------------------------
# matrix-large: a feature matrix written directly, sized so that stats and
# learn do almost all the work.

MATRIX_COUNTS = {"real": 150, "fake": 110, "satire": 2740}

# per-label (log-length shift, rate multiplier): the classes overlap
_MATRIX_SHIFT = {"real": (0.0, 1.00), "fake": (-0.25, 1.04), "satire": (0.35, 0.95)}


def _matrix_row(rng: random.Random, label: str) -> dict[str, float | None]:
    shift, rate = _MATRIX_SHIFT[label]
    length = math.exp(rng.gauss(5.0 + shift, 0.55))           # words
    sentences = 1 + _poisson(rng, length / 16.0)

    def count(r: float) -> float:
        return float(_poisson(rng, length * r * rate))

    row: dict[str, float | None] = {}
    wc = 1 + _poisson(rng, length)
    row["WC"] = float(wc)
    row["WPS"] = wc / sentences
    # planted normal columns, so the ANOVA route is exercised
    row["GI"] = rng.gauss(12.0 + 4 * shift, 2.0)
    row["FK"] = rng.gauss(10.0 + 3 * shift, 2.5)
    row["SMOG"] = rng.gauss(11.5 + 2 * shift, 1.5)
    row["avg_wlen"] = rng.gauss(4.7 - 0.3 * shift, 0.25)
    row["per_stop"] = rng.gauss(42.0 - 10 * shift, 4.0)
    # small integers with many ties
    row["med_depth"] = float(2 + _poisson(rng, 1.2 + shift))
    row["med_np_depth"] = float(1 + _poisson(rng, 0.4))
    row["med_vp_depth"] = float(_poisson(rng, 1.5 + shift))
    # skewed, heavy-tailed continuous columns
    row["flu_coca_c"] = math.exp(rng.gauss(0.5 - shift, 1.6))
    row["flu_coca_d"] = 900.0 * math.exp(rng.gauss(shift, 0.35))
    # nearly a function of length: strongly collinear with the counts
    row["TTR"] = min(1.0, 2.2 * length ** -0.22 * math.exp(rng.gauss(0.0, 0.02)))
    rates = {
        "NN": 0.22, "NNP": 0.09, "PRP": 0.04, "PRP$": 0.01, "WP": 0.004, "DT": 0.09,
        "WDT": 0.004, "CD": 0.02, "RB": 0.04, "UH": 0.0005, "VB": 0.03, "JJ": 0.07,
        "VBD": 0.04, "VBG": 0.015, "VBN": 0.02, "VBP": 0.015, "VBZ": 0.02,
        "focuspast": 0.04, "focusfuture": 0.01, "i": 0.008, "we": 0.006, "you": 0.005,
        "shehe": 0.02, "quant": 0.02, "compare": 0.015, "negate": 0.01, "swear": 0.0008,
        "interrog": 0.008, "exclaim": 0.004, "all_caps": 0.01,
        "allPunc": 0.14, "quotes": 0.012, "#vps": 0.12,
        "analytic": 0.02, "insight": 0.02, "cause": 0.015, "discrep": 0.01,
        "tentat": 0.015, "certain": 0.01, "differ": 0.02, "affil": 0.01, "power": 0.02,
        "reward": 0.01, "risk": 0.005, "personal": 0.015, "tone": 0.03, "affect": 0.04,
    }
    for name, r in rates.items():
        row[name] = count(r)
    row["netspeak"] = 0.0                                     # the constant column
    row["str_neg"] = -1.0 - min(4.0, rng.expovariate(2.0 - 2 * shift))
    row["str_pos"] = 1.0 + min(4.0, rng.expovariate(1.6 + shift))
    if rng.random() < 0.004:
        row["flu_coca_c"] = None
    if rng.random() < 0.002:
        row["WPS"] = None
    return row


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam > 30:
        return max(0, round(rng.gauss(lam, math.sqrt(lam))))
    limit, k, p = math.exp(-lam), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def _fmt(v: float | None) -> str:
    if v is None:
        return "NA"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def write_feature_matrix(path: Path, seed: int) -> dict[str, str]:
    """Body-part matrix with every catalog column; returns doc id -> label."""
    rng = random.Random(seed)
    order = [label for label, n in MATRIX_COUNTS.items() for _ in range(n)]
    rng.shuffle(order)
    labels = {}
    lines = [",".join(["doc_id", "label", "part", *CATALOG])]
    for i, label in enumerate(order):
        row = _matrix_row(rng, label)
        doc_id = f"m{i:05d}"
        labels[doc_id] = label
        lines.append(",".join([doc_id, label, "body", *(_fmt(row[n]) for n in CATALOG)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return labels
