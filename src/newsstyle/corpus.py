"""Labeled news corpora: loading and validation.

On-disk layout: ``<root>/<label>/<id>.txt`` (UTF-8, first line title,
blank line, body), with an optional ``<id>.meta`` sidecar carrying
``source=<name>`` lines. Both are read with ``newsstyle.decode`` (UTF-8,
a leading byte-order mark dropped). Dataset 1 admits real/fake, dataset 3
real/satire, dataset 2 all three. ``load_corpus`` gives the documents and a
load report of what it skipped: each directory under the root that is not a
label, then each article it could not read or whose body is empty.
``validate_corpus`` gives the repeated ids and the ids under a label the
dataset lacks: ``ingest`` lists both, ``extract`` refuses either.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import FrozenRecord, InputError, Record, decode, slot_setters

REAL = "real"
FAKE = "fake"
SATIRE = "satire"
LABELS = (REAL, FAKE, SATIRE)

DATASET_LABELS = {
    1: (REAL, FAKE),
    2: (REAL, FAKE, SATIRE),
    3: (REAL, SATIRE),
}


class CorpusError(InputError):
    """Structural problem that prevents building a corpus at all."""


class Document(FrozenRecord):
    __slots__ = _fields = ("id", "source", "label", "title", "body")

    def __init__(self, id: str, source: str, label: str, title: str, body: str):
        _set_id(self, id)
        _set_source(self, source)
        _set_label(self, label)
        _set_title(self, title)
        _set_body(self, body)


_set_id, _set_source, _set_label, _set_title, _set_body = slot_setters(Document)


class Corpus(FrozenRecord):
    __slots__ = _fields = ("documents", "dataset_id")

    def __init__(self, documents: tuple[Document, ...], dataset_id: int):
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "dataset_id", dataset_id)


class LoadReport(Record):
    """Per-document load errors; loading continues past them."""
    __slots__ = _fields = ("errors",)

    def __init__(self, errors: list[tuple[str, str]] | None = None):
        self.errors = [] if errors is None else errors  # (path, reason)


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        return decode(fh.read())


def _read_article(path: str) -> tuple[str, str]:
    first, _, rest = _read(path).partition("\n")
    return first.strip(), rest.strip()


def _read_source(meta: str) -> str:
    try:
        lines = _read(meta).splitlines()
    except OSError:
        if os.path.exists(meta):
            raise
        return ""  # a listed name that is a dangling or looping link: no sidecar
    for line in lines:
        if line.startswith("source="):
            return line[len("source="):].strip()
    return ""


def load_corpus(root_dir: str | Path, dataset_id: int) -> tuple[Corpus, LoadReport]:
    """Load every readable article under root_dir, in lexicographic id
    order. A directory under the root whose name is not a label, and an
    unreadable or empty file, go into the load report instead of aborting;
    a missing root or one with no label directory raises CorpusError.

    Each label directory is listed once: its ``*.txt`` names, sorted, are
    the articles, and an article's ``.meta`` sidecar is read only when the
    listing holds its name."""
    root = Path(root_dir)
    if dataset_id not in DATASET_LABELS:
        raise CorpusError(f"unknown dataset_id {dataset_id}")
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    report = LoadReport()
    label_dirs = []
    for d in filter(Path.is_dir, sorted(root.iterdir())):
        if d.name in LABELS:
            label_dirs.append(d)
        else:
            report.errors.append((str(d), f"not a label directory ({', '.join(LABELS)})"))
    if not label_dirs:
        raise CorpusError(f"no label directories under {root}")

    docs: list[Document] = []
    for label_dir in label_dirs:
        label = label_dir.name
        directory = str(label_dir)
        listed = set(os.listdir(directory))
        for name in sorted(n for n in listed if n.endswith(".txt")):
            # the id is Path.stem and the sidecar Path.with_suffix(".meta").name:
            # a suffix starts at the name's last dot unless that dot begins it
            doc_id = name[:-4] if len(name) > 4 else name
            meta = doc_id + ".meta"
            path = reading = os.path.join(directory, name)
            try:
                title, body = _read_article(path)
                if meta in listed:
                    reading = os.path.join(directory, meta)
                    source = _read_source(reading)
                else:
                    source = ""
            except (OSError, UnicodeDecodeError) as e:
                report.errors.append((reading, str(e)))
                continue
            if not body:
                report.errors.append((path, "empty body"))
                continue
            docs.append(Document(doc_id, source, label, title, body))
    docs.sort(key=lambda d: d.id)
    return Corpus(tuple(docs), dataset_id), report


def validate_corpus(corpus: Corpus) -> tuple[list[str], list[str]]:
    """``(duplicate_ids, illegal_labels)``: each repeat of an id, and the
    id of each document under a label the corpus's dataset lacks, both in
    document order."""
    duplicate_ids: list[str] = []
    illegal_labels: list[str] = []
    seen: set[str] = set()
    legal = DATASET_LABELS[corpus.dataset_id]
    for doc in corpus.documents:
        if doc.id in seen:
            duplicate_ids.append(doc.id)
        seen.add(doc.id)
        if doc.label not in legal:
            illegal_labels.append(doc.id)
    return duplicate_ids, illegal_labels
