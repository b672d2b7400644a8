"""Train taggers, and regenerate the tagger training corpus and the shipped
tagger model.

The corpus (``tagged_corpus.tsv`` next to this file) is template-generated
news-register English with gold tags (token<TAB>tag, a blank line between
sentences). The shipped model (``src/newsstyle/resources/tagger_model.json``)
is the averaged perceptron trained on it with a fixed seed and the
closed-class backoff list ``closed_class.tsv``. Training scores with
``newsstyle.postag``'s own functions (``_word_features``,
``_shape_features``, ``_accumulate``, ``_pick``, ``_fixed_tag``), so a
model tags as it was trained. The installed package reads neither TSV.

``python3 tools/build_tagger_model.py`` rewrites the corpus and the model.
"""

import json
import random
import sys
from collections import defaultdict
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS_DIR.parent / "src"))

from newsstyle.postag import (  # noqa: E402
    TAGSET,
    TaggedSentence,
    TaggerError,
    TaggerModel,
    _accumulate,
    _fixed_tag,
    _pick,
    _shape_features,
    _word_features,
)
from newsstyle.textseg import NUMBER, PUNCT, WORD, Token, token  # noqa: E402

CORPUS = TOOLS_DIR / "tagged_corpus.tsv"
CLOSED_CLASS = TOOLS_DIR / "closed_class.tsv"
MODEL = TOOLS_DIR.parent / "src" / "newsstyle" / "resources" / "tagger_model.json"

POOLS = {
    "NN": """story report article election campaign government city state country
        president official police court law bill budget tax economy market
        company industry job worker leader minister party vote debate plan
        policy program issue problem question answer statement interview
        decision ruling order proposal meeting visit event speech protest
        attack threat crisis deal agreement war health care hospital school
        student teacher child family house street road building office
        store hotel airport station car truck plane driver accident fire
        emergency storm weather climate energy water food dog cat year
        month week day morning night time money bank fund debt profit cost
        price growth change support effort result effect reason goal
        method process level amount size area region center week group
        member nation border security system service product sale customer
        phone computer website email newspaper television radio""".split(),
    "NNS": """stories reports articles elections campaigns governments cities
        states countries officials laws bills taxes markets companies jobs
        workers leaders parties votes debates plans policies programs
        issues problems questions statements decisions orders proposals
        meetings events speeches protests attacks threats deals agreements
        hospitals schools students teachers children families houses
        streets roads buildings offices stores cars trucks drivers fires
        storms years months weeks days nights funds costs prices changes
        efforts results reasons goals methods levels amounts areas regions
        groups members nations borders systems services products sales
        customers phones computers websites emails voters candidates""".split(),
    "NNP": """Washington London Paris Berlin Moscow Beijing Tokyo Ottawa Canberra
        America Britain France Germany Russia China Japan Canada Australia
        Texas Florida Ohio Virginia Georgia Oregon Boston Chicago Denver
        Seattle Atlanta Houston Dallas Phoenix Miami Congress Senate
        Parliament Pentagon Reuters Clinton Trump Obama Johnson Smith
        Brown Davis Wilson Miller Taylor Anderson Thomas Jackson White
        Harris Martin Thompson Garcia Martinez Robinson Lewis Walker
        Hall Allen Young King Wright Scott Green Baker Adams Nelson
        Carter Mitchell Roberts Turner Phillips Campbell Parker Evans
        Edwards Collins Stewart Morris Rogers Reed Cook Morgan Bell
        Murphy Bailey Rivera Cooper Richardson Cox Howard Ward Hillary
        Monday Tuesday Wednesday Thursday Friday Saturday Sunday January
        February March April June July August September October November
        December Europe Asia Africa Microsoft Google Apple Amazon Boeing
        Ford Toyota Nissan Pennsylvania Michigan Wisconsin Minnesota
        Colorado Nevada Arizona Alabama Tennessee Kentucky Indiana""".split(),
    "VBD": """said told announced reported claimed stated argued denied admitted
        confirmed revealed declared warned promised refused agreed decided
        voted passed signed vetoed proposed rejected approved launched
        started ended won lost gained dropped rose fell increased
        decreased visited met left arrived returned called asked answered
        showed found gave took made went came saw ran walked spoke wrote
        read built bought sold paid raised cut hit struck blew accused
        blamed charged arrested investigated testified appeared happened
        occurred continued stopped began finished helped hurt killed
        died survived escaped attacked defended supported opposed""".split(),
    "VBZ": """says tells announces reports claims states argues denies admits
        confirms reveals declares warns promises refuses agrees decides
        votes passes signs proposes rejects approves launches starts ends
        wins loses gains drops rises falls increases decreases visits
        meets leaves arrives returns calls asks answers shows finds gives
        takes makes goes comes sees runs walks speaks writes reads builds
        buys sells pays raises cuts hits blows accuses blames charges
        arrests continues stops begins finishes helps hurts supports
        opposes believes wants needs plans expects hopes knows thinks""".split(),
    "VBP": """say tell announce report claim state argue deny admit confirm
        reveal declare warn promise refuse agree decide vote pass sign
        propose reject approve launch start end win lose gain drop rise
        fall increase decrease visit meet leave arrive return call ask
        answer show find give take make go come see run walk speak write
        read build buy sell pay raise cut hit blow accuse blame charge
        arrest continue stop begin finish help hurt support oppose
        believe want need plan expect hope know think""".split(),
    "VB": """say tell announce report claim argue deny admit confirm reveal
        declare warn promise refuse agree decide vote pass sign propose
        reject approve launch start end win lose gain drop rise fall
        increase decrease visit meet leave arrive return call ask answer
        show find give take make go come see run walk speak write read
        build buy sell pay raise cut replace repeal reform fund block
        delay review consider discuss address resolve handle prevent""".split(),
    "VBG": """saying telling announcing reporting claiming arguing denying
        confirming revealing warning promising refusing agreeing deciding
        voting passing signing proposing rejecting approving launching
        starting ending winning losing gaining dropping rising falling
        increasing decreasing visiting meeting leaving arriving returning
        calling asking showing finding giving taking making going coming
        seeing running walking speaking writing reading building buying
        selling paying raising cutting laundering blowing breaking""".split(),
    "VBN": """said told announced reported claimed argued denied admitted
        confirmed revealed declared warned promised refused agreed decided
        voted passed signed proposed rejected approved launched started
        ended won lost gained dropped risen fallen increased decreased
        visited met left arrived returned called asked answered shown
        found given taken made gone come seen run spoken written read
        built bought sold paid raised cut replaced repealed reformed
        blocked delayed reviewed considered discussed addressed broken""".split(),
    "JJ": """new old big small large long short high low good bad great poor
        major minor local national federal political economic public
        private social legal illegal military foreign domestic recent
        current former late early modern young strong weak rich serious
        simple difficult easy hard possible impossible likely unlikely
        important special certain clear dark bright heavy light quick
        slow full empty open closed free safe dangerous popular famous
        common rare real fake false true red blue green white black
        republican democratic presidential preexisting financial medical
        environmental industrial commercial residential controversial""".split(),
    "RB": """quickly slowly carefully quietly loudly clearly badly well
        recently finally eventually suddenly immediately directly
        publicly privately officially reportedly allegedly repeatedly
        strongly sharply slightly significantly largely mostly partly
        fully nearly hardly barely really truly actually certainly
        probably possibly apparently seriously successfully angrily""".split(),
    "UH": "oh ah wow hey ouch oops hmm yeah alas huh".split(),
    "CD": "35 75 100 2016 36 233 4000 50 12 7 2.5 1,000 90 45 60 15 20 25 30 80".split(),
}

TEMPLATES = [
    "DT NN VBD IN DT NN .",
    "DT JJ NN VBZ DT JJ NN .",
    "NNP VBD IN NNP .",
    "NNP NNP VBD DT JJ NN .",
    "PRP VBP DT NN IN DT NN .",
    "DT NN IN DT NN VBD JJ .",
    "NNP VBZ IN DT NN IN NNP .",
    "CD NNS VBD IN DT NN .",
    "DT NNS VBP RB JJ .",
    "PRP VBD DT NNS IN NNP .",
    "NNP , DT JJ NN , VBD DT NN .",
    "DT NN VBZ VBG DT NNS .",
    "NNS IN NNP VBP DT NN .",
    "DT JJ NNS VBD RB .",
    "NNP VBD IN PRP VBD DT NN .",
    "IN DT NN , DT NNS VBD .",
    "DT NN MD VB DT NN .",
    "PRP MD RB VB DT JJ NNS .",
    "NNP NNP VBZ DT NN IN DT NNS .",
    "DT NN VBD CD NNS .",
    "NNP VBD IN DT NN VBD JJ .",
    "WP VBD DT NN ?",
    "DT NN VBD : PRP VBD DT NNS .",
    "UH , DT NN VBZ JJ !",
    "NNP VBZ RB VBG DT NN .",
    "DT NNS VBP VBN IN DT NN .",
    "PRP$ NN VBD DT JJ NN IN NNP .",
    "DT JJ JJ NN VBD IN CD NNS .",
    "NNP CC NNP VBD DT NN .",
    "DT NN IN NNS VBZ JJ CC JJ .",
    "EX VBP CD NNS IN DT NN .",
    "VBG DT NN , NNP VBD DT NNS .",
]

CLOSED = {
    "DT": "the the the a a an this that these those".split(),
    "IN": "of in on at by for with about against between into through during before after from".split(),
    "PRP": "he she they we it i you".split(),
    "PRP$": "his her their our its my your".split(),
    "MD": "will would could should may might must can".split(),
    "CC": "and but or".split(),
    "WP": "who what".split(),
    "EX": ["there"],
    "TO": ["to"],
    ".": ["."],
    ",": [","],
    ":": [":"],
    "?": ["?"],
    "!": ["!"],
}

PUNCT_TAGS = {".", ",", ":", "?", "!"}


def generate(n_sentences: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(n_sentences):
        template = rng.choice(TEMPLATES).split()
        first = True
        for slot in template:
            if slot in PUNCT_TAGS:
                word, t = rng.choice(CLOSED[slot]), "PUNCT"
            elif slot in CLOSED:
                word, t = rng.choice(CLOSED[slot]), slot
            else:
                word, t = rng.choice(POOLS[slot]), slot
            if first and slot not in PUNCT_TAGS:
                if t not in ("NNP", "CD") and word.islower():
                    word = word.capitalize()
                first = False
            lines.append(f"{word}\t{t}")
        lines.append("")
    return lines


def load_pretagged(path: str | Path) -> list[TaggedSentence]:
    """token<TAB>tag lines, blank line between sentences."""
    path = Path(path)
    sentences: list[TaggedSentence] = []
    current: list[tuple[Token, str]] = []
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
        current.append((token(text, kind), t))
    if current:
        sentences.append(TaggedSentence(tokens=tuple(current)))
    return sentences


def load_closed_class(path: str | Path = CLOSED_CLASS) -> dict[str, str]:
    """word<TAB>tag backoff list for closed-class words."""
    backoff = {}
    for lineno, line in TaggerError.entries(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaggerError(f"{path}:{lineno}: expected word<TAB>tag, got {line!r}")
        word, t = parts
        if t not in TAGSET:
            raise TaggerError(f"{path}:{lineno}: tag {t!r} not in tagset")
        word = word.lower()
        if word in backoff:
            raise TaggerError(f"{path}:{lineno}: duplicate word {word!r}")
        backoff[word] = t
    return backoff


def _features(tokens: list[Token], i: int, prev: str, prev2: str) -> list[str]:
    """Every feature of ``tokens[i]`` in scoring order: its own text, its
    tag history and neighbours, its shape. ``postag.tag`` scores the same
    features in the same order, split by what they depend on."""
    tok = tokens[i]
    context = [
        f"p1={prev}",
        f"p2={prev2}|{prev}",
        f"pw={tokens[i - 1].lower if i > 0 else '<s>'}",
        f"nw={tokens[i + 1].lower if i + 1 < len(tokens) else '</s>'}",
    ]
    return _word_features(tok) + context + _shape_features(tok)


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

    weights: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    # the words seen so far: a word is unknown until its sentence comes up
    vocab: set[str] = set()
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
            vocab.update(t.lower for t in tokens)
            prev, prev2 = "<s>", "<s2>"
            for i, (tok, gold) in enumerate(sent.tokens):
                fixed = _fixed_tag(backoff, vocab, tok)
                if fixed is not None:
                    guess = fixed
                else:
                    step += 1
                    feats = _features(tokens, i, prev, prev2)
                    guess = _pick(_accumulate(weights, {}, feats))
                    if guess != gold:
                        for f in feats:
                            bump(f, gold, +1.0)
                            bump(f, guess, -1.0)
                    # condition on gold history for stable training
                    guess = gold
                prev2, prev = prev, guess

    averaged: dict[str, dict[str, float]] = {}
    for feat, tagw in weights.items():
        for t, w in tagw.items():
            key = (feat, t)
            total = totals[key] + (step - stamps[key]) * w
            avg = total / max(step, 1)
            if abs(avg) > 1e-12:
                averaged.setdefault(feat, {})[t] = round(avg, 6)
    return TaggerModel(tagset=tuple(TAGSET), weights=averaged, lexical_backoff=backoff,
                       vocab=frozenset(vocab))


def save_model(model: TaggerModel, path: str | Path) -> None:
    """Write ``model`` as a file that ``TaggerModel.load`` reads back."""
    payload = {
        "format": "newsstyle-tagger",
        "version": model.version,
        "tagset": list(model.tagset),
        "weights": model.weights,
        "lexical_backoff": model.lexical_backoff,
        "vocab": sorted(model.vocab),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def main() -> None:
    CORPUS.write_text("\n".join(generate(n_sentences=1600, seed=2016)) + "\n", encoding="utf-8")
    sentences = load_pretagged(CORPUS)
    tokens = sum(len(s.tokens) for s in sentences)
    print(f"corpus: {len(sentences)} sentences, {tokens} tokens")

    model = train_tagger(sentences, epochs=5, seed=7)
    save_model(model, MODEL)
    print(f"model: {len(model.weights)} features, vocab {len(model.vocab)}")


if __name__ == "__main__":
    main()
