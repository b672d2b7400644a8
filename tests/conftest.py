import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from newsstyle.features import Resources

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the tagger training tool, which the tagger tests import as a module
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new process that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


# word pools for synthetic articles
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


def _sentence(rng, style):
    """One synthetic sentence; style shifts stop-word and noun usage."""
    words = []
    n = rng.randint(6, 14)
    for _ in range(n):
        r = rng.random()
        if style == "real":
            pool = _COMMON if r < 0.5 else (_NOUNS if r < 0.8 else _ADJS)
        elif style == "fake":
            pool = _COMMON if r < 0.3 else (_PROPER if r < 0.6 else _NOUNS)
        else:  # satire
            pool = _COMMON if r < 0.35 else (_NOUNS if r < 0.6 else _PROPER)
        words.append(rng.choice(pool))
    words.append(rng.choice(_VERBS))
    text = " ".join(words).capitalize() + "."
    if style == "real" and rng.random() < 0.4:
        text += ' "' + rng.choice(_NOUNS).capitalize() + ' continues," he said.'
    return text


def _title(rng, style):
    if style == "fake":
        caps = [rng.choice(_PROPER).upper() for _ in range(2)]
        rest = [rng.choice(_PROPER) for _ in range(rng.randint(6, 10))]
        return " ".join(caps) + ": " + " ".join(rest)
    parts = [rng.choice(_ADJS).capitalize()] + rng.sample(_NOUNS, 3)
    return " ".join(parts[:2]) + " and the " + " ".join(parts[2:])


def write_synthetic_corpus(root: Path, counts: dict[str, int], seed: int = 0,
                           dataset_id: int = 2) -> Path:
    """Directory-per-label corpus with class-dependent style shifts."""
    rng = random.Random(seed)
    for label, n in counts.items():
        d = root / label
        d.mkdir(parents=True, exist_ok=True)
        for i in range(n):
            n_sent = {"real": rng.randint(10, 16), "fake": rng.randint(4, 8),
                      "satire": rng.randint(4, 9)}[label]
            body = " ".join(_sentence(rng, label) for _ in range(n_sent))
            title = _title(rng, label)
            (d / f"{label[0]}{i:03d}.txt").write_text(
                title + "\n\n" + body + "\n", encoding="utf-8"
            )
    return root


@pytest.fixture(scope="session")
def resources():
    return Resources.default()


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return write_synthetic_corpus(root, {"real": 15, "fake": 15, "satire": 15}, seed=42)
