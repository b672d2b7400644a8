"""Labeled news corpora: loading and validation.

On-disk layout: ``<root>/<label>/<id>.txt`` (UTF-8, first line title,
blank line, body), with an optional ``<id>.meta`` sidecar carrying
``source=<name>`` lines. Both are read with ``newsstyle.decode`` (UTF-8,
a leading byte-order mark dropped). Dataset 1 admits real/fake, dataset 3
real/satire, dataset 2 all three. ``validate_corpus`` finds a document under
a label its dataset lacks: ``ingest`` reports it, ``extract`` refuses it.
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


class Manifest(FrozenRecord):
    __slots__ = _fields = ("dataset_id", "counts")

    def __init__(self, dataset_id: int, counts: dict[str, int]):
        object.__setattr__(self, "dataset_id", dataset_id)
        object.__setattr__(self, "counts", counts)

    def as_text(self) -> str:
        lines = [f"dataset_id={self.dataset_id}"]
        for label in LABELS:
            lines.append(f"{label}={self.counts.get(label, 0)}")
        return "\n".join(lines) + "\n"


class Corpus(FrozenRecord):
    __slots__ = _fields = ("documents", "manifest")

    def __init__(self, documents: tuple[Document, ...], manifest: Manifest):
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "manifest", manifest)


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
    order. Unreadable or empty files go into the load report instead of
    aborting; a missing/empty directory structure raises CorpusError.

    Each label directory is listed once: its ``*.txt`` names, sorted, are
    the articles, and an article's ``.meta`` sidecar is read only when the
    listing holds its name."""
    root = Path(root_dir)
    if dataset_id not in DATASET_LABELS:
        raise CorpusError(f"unknown dataset_id {dataset_id}")
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    label_dirs = [d for d in sorted(root.iterdir()) if d.is_dir() and d.name in LABELS]
    if not label_dirs:
        raise CorpusError(f"no label directories under {root}")

    report = LoadReport()
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
    counts = {label: sum(1 for d in docs if d.label == label) for label in LABELS}
    return Corpus(documents=tuple(docs), manifest=Manifest(dataset_id, counts)), report


class ValidationReport(Record):
    __slots__ = _fields = ("duplicate_ids", "illegal_labels")

    def __init__(self):
        self.duplicate_ids: list[str] = []
        self.illegal_labels: list[str] = []

    def ok(self) -> bool:
        return not (self.duplicate_ids or self.illegal_labels)

    def as_text(self) -> str:
        if self.ok():
            return "validation: clean\n"
        lines = [f"duplicate_id\t{i}" for i in self.duplicate_ids]
        lines += [f"illegal_label\t{i}" for i in self.illegal_labels]
        return "\n".join(lines) + "\n"


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Duplicate ids, each listed once per repeat, and the ids of documents
    under a label the manifest's dataset lacks, both in document order."""
    report = ValidationReport()
    seen: set[str] = set()
    legal = DATASET_LABELS[corpus.manifest.dataset_id]
    for doc in corpus.documents:
        if doc.id in seen:
            report.duplicate_ids.append(doc.id)
        seen.add(doc.id)
        if doc.label not in legal:
            report.illegal_labels.append(doc.id)
    return report
