"""Labeled news corpora: loading and validation.

On-disk layout: ``<root>/<label>/<id>.txt`` (UTF-8, first line title,
blank line, body), with an optional ``<id>.meta`` sidecar carrying
``source=<name>`` lines. Both are read with ``newsstyle.decode`` (UTF-8,
a leading byte-order mark dropped). Dataset 1 admits real/fake, dataset 3
real/satire, dataset 2 all three.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from . import InputError, decode

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


@dataclass(frozen=True)
class Document:
    id: str
    dataset_id: int
    source: str
    label: str
    title: str
    body: str


@dataclass(frozen=True)
class Manifest:
    dataset_id: int
    counts: dict[str, int]

    def as_text(self) -> str:
        lines = [f"dataset_id={self.dataset_id}"]
        for label in LABELS:
            lines.append(f"{label}={self.counts.get(label, 0)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    manifest: Manifest


@dataclass
class LoadReport:
    """Per-document load errors; loading continues past them."""
    errors: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)


def _read_article(path: Path) -> tuple[str, str]:
    first, _, rest = decode(path.read_bytes()).partition("\n")
    return first.strip(), rest.strip()


def _read_source(meta: Path) -> str:
    try:
        lines = decode(meta.read_bytes()).splitlines()
    except OSError:
        if meta.exists():
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
        listed = set(os.listdir(label_dir))
        for name in sorted(n for n in listed if n.endswith(".txt")):
            path = label_dir / name
            reading = path
            try:
                title, body = _read_article(path)
                reading = path.with_suffix(".meta")
                source = _read_source(reading) if reading.name in listed else ""
            except (OSError, UnicodeDecodeError) as e:
                report.errors.append((str(reading), str(e)))
                continue
            if not body:
                report.errors.append((str(path), "empty body"))
                continue
            docs.append(
                Document(
                    id=path.stem,
                    dataset_id=dataset_id,
                    source=source,
                    label=label,
                    title=title,
                    body=body,
                )
            )
    docs.sort(key=lambda d: d.id)
    counts = {label: sum(1 for d in docs if d.label == label) for label in LABELS}
    return Corpus(documents=tuple(docs), manifest=Manifest(dataset_id, counts)), report


@dataclass
class ValidationReport:
    duplicate_ids: list[str] = field(default_factory=list)
    empty_bodies: list[str] = field(default_factory=list)
    illegal_labels: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not (self.duplicate_ids or self.empty_bodies or self.illegal_labels)

    def as_text(self) -> str:
        if self.ok():
            return "validation: clean\n"
        lines = []
        for name, ids in (
            ("duplicate_id", self.duplicate_ids),
            ("empty_body", self.empty_bodies),
            ("illegal_label", self.illegal_labels),
        ):
            for i in ids:
                lines.append(f"{name}\t{i}")
        return "\n".join(lines) + "\n"


def validate_corpus(corpus: Corpus) -> ValidationReport:
    report = ValidationReport()
    seen: set[str] = set()
    legal = set(DATASET_LABELS.get(corpus.manifest.dataset_id, LABELS))
    for doc in corpus.documents:
        if doc.id in seen:
            report.duplicate_ids.append(doc.id)
        seen.add(doc.id)
        if not doc.body.strip():
            report.empty_bodies.append(doc.id)
        if doc.label not in legal:
            report.illegal_labels.append(doc.id)
    return report
