import copy
import pickle
from collections import Counter
from pathlib import Path

import pytest

from newsstyle.corpus import (
    Corpus,
    CorpusError,
    Document,
    load_corpus,
    validate_corpus,
)
from newsstyle.textseg import WORD, Token


def _write(root, label, name, title="A title", body="Some body text. More text."):
    d = root / label
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{name}.txt").write_text(f"{title}\n\n{body}\n", encoding="utf-8")


class TestLoadCorpus:
    def test_dataset1_counts(self, tmp_path):
        for i in range(36):
            _write(tmp_path, "real", f"r{i:02d}")
        for i in range(35):
            _write(tmp_path, "fake", f"f{i:02d}")
        corpus, report = load_corpus(tmp_path, 1)
        assert Counter(d.label for d in corpus.documents) == {"real": 36, "fake": 35}
        assert report.errors == []

    def test_dataset2_counts(self, tmp_path):
        for label in ("real", "fake", "satire"):
            for i in range(5):
                _write(tmp_path, label, f"{label}{i}")
        corpus, _ = load_corpus(tmp_path, 2)
        assert Counter(d.label for d in corpus.documents) == {"real": 5, "fake": 5, "satire": 5}

    def test_empty_directory_is_structural_error(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path, 1)
        _write(tmp_path, "Real", "r1")  # a directory, but not a label
        with pytest.raises(CorpusError, match="no label directories"):
            load_corpus(tmp_path, 1)

    def test_missing_root(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "nope", 1)

    def test_blank_body_goes_to_load_report(self, tmp_path):
        # a body of whitespace alone counts as empty: the load report is the
        # one place a blank article is named
        _write(tmp_path, "real", "good")
        (tmp_path / "real" / "bad.txt").write_text("Title only\n", encoding="utf-8")
        (tmp_path / "real" / "blank.txt").write_text("Title\n\n   \n", encoding="utf-8")
        corpus, report = load_corpus(tmp_path, 1)
        assert [d.id for d in corpus.documents] == ["good"]
        assert [(Path(p).name, reason) for p, reason in report.errors] == [
            ("bad.txt", "empty body"), ("blank.txt", "empty body")]

    def test_non_label_directories_go_to_load_report_first(self, tmp_path):
        # each directory under the root that is not a label is named once,
        # in sorted order, before the article errors; a file there is not
        _write(tmp_path, "real", "good")
        _write(tmp_path, "Fake", "f1")
        _write(tmp_path, "other", "o1")
        (tmp_path / "real" / "bad.txt").write_text("Title only\n", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not an article\n", encoding="utf-8")
        corpus, report = load_corpus(tmp_path, 1)
        assert [d.id for d in corpus.documents] == ["good"]
        reason = "not a label directory (real, fake, satire)"
        assert report.errors == [(str(tmp_path / "Fake"), reason),
                                 (str(tmp_path / "other"), reason),
                                 (str(tmp_path / "real" / "bad.txt"), "empty body")]

    def test_deterministic_order(self, tmp_path):
        for name in ("zeta", "alpha", "mid"):
            _write(tmp_path, "real", name)
        c1, _ = load_corpus(tmp_path, 1)
        c2, _ = load_corpus(tmp_path, 1)
        assert [d.id for d in c1.documents] == ["alpha", "mid", "zeta"]
        assert c1 == c2

    def test_meta_sidecar_source(self, tmp_path):
        _write(tmp_path, "fake", "a1")
        (tmp_path / "fake" / "a1.meta").write_text("source=Ending the Fed\n")
        corpus, _ = load_corpus(tmp_path, 1)
        assert corpus.documents[0].source == "Ending the Fed"

    def test_meta_sidecar_not_utf8_goes_to_load_report(self, tmp_path):
        _write(tmp_path, "fake", "a1")
        _write(tmp_path, "fake", "a2")
        meta = tmp_path / "fake" / "a1.meta"
        meta.write_bytes("source=Café News\n".encode("latin-1"))
        corpus, report = load_corpus(tmp_path, 1)
        assert [d.id for d in corpus.documents] == ["a2"]
        assert len(report.errors) == 1
        path, reason = report.errors[0]
        assert path == str(meta)
        assert "invalid continuation byte" in reason

    def test_empty_title_retained(self, tmp_path):
        _write(tmp_path, "real", "notitle", title="")
        corpus, report = load_corpus(tmp_path, 3)
        assert report.errors == []
        assert corpus.documents[0].title == ""

    def test_byte_order_mark_dropped(self, tmp_path):
        _write(tmp_path, "fake", "plain", title="BREAKING: Senate Votes")
        d = tmp_path / "fake"
        (d / "marked.txt").write_bytes(
            b"\xef\xbb\xbf" + (d / "plain.txt").read_bytes())
        (d / "marked.meta").write_bytes("\ufeffsource=Ending the Fed\n".encode("utf-8"))
        corpus, report = load_corpus(tmp_path, 1)
        assert report.errors == []
        marked, plain = corpus.documents
        assert marked.id == "marked"
        assert (marked.title, marked.body) == (plain.title, plain.body)
        assert marked.title == "BREAKING: Senate Votes"
        assert marked.source == "Ending the Fed"

    def test_marked_title_extracts_as_unmarked(self, tmp_path, resources):
        from newsstyle.features import extract_all

        _write(tmp_path, "fake", "plain", title="Hillary Emails")
        d = tmp_path / "fake"
        (d / "marked.txt").write_bytes(b"\xef\xbb\xbf" + (d / "plain.txt").read_bytes())
        corpus, _ = load_corpus(tmp_path, 1)
        marked, plain = (extract_all(doc, "title", resources) for doc in corpus.documents)
        # a mark read as text is a symbol token tagged PUNCT, which the
        # tagger then sees before "Hillary" instead of the sentence start
        assert marked == plain
        assert (marked["NNP"], marked["NN"]) == (2.0, 0.0)

    def test_bad_byte_without_mark_reported_as_before(self, tmp_path):
        _write(tmp_path, "real", "good")
        bad = tmp_path / "real" / "bad.txt"
        bad.write_bytes(b"Title with a bad byte here: " + b"x" * 12 + b"\xff\n\nBody.\n")
        corpus, report = load_corpus(tmp_path, 1)
        assert [d.id for d in corpus.documents] == ["good"]
        assert report.errors == [(str(bad), "'utf-8' codec can't decode byte 0xff in "
                                            "position 40: invalid start byte")]

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_partial_mark_is_not_utf8(self, tmp_path, data):
        _write(tmp_path, "real", "good")
        (tmp_path / "real" / "bad.txt").write_bytes(data)
        _, report = load_corpus(tmp_path, 1)
        assert len(report.errors) == 1
        assert "unexpected end of data" in report.errors[0][1]

    def test_universal_newlines(self, tmp_path):
        d = tmp_path / "real"
        d.mkdir()
        (d / "crlf.txt").write_bytes(b"A title\r\n\r\nOne line.\r\nTwo lines.\r\n")
        (d / "cr.txt").write_bytes(b"A title\r\rOne line.\rTwo lines.\r")
        (d / "cr.meta").write_bytes(b"x=1\rsource=Mac\r")
        corpus, report = load_corpus(tmp_path, 1)
        assert report.errors == []
        assert [(doc.title, doc.body, doc.source) for doc in corpus.documents] == [
            ("A title", "One line.\nTwo lines.", "Mac"),
            ("A title", "One line.\nTwo lines.", ""),
        ]

    def test_one_listing_keeps_glob_ids_order_and_report(self, tmp_path):
        d = tmp_path / "real"
        for name in ("a.b.txt", ".txt", "B.txt", "a.txt", "c.TXT"):
            _write(tmp_path, "real", name[:-4], title=f"Title {name}")
        (d / "c.txt").rename(d / "c.TXT")
        (d / "a.b.meta").write_text("source=dotted\n", encoding="utf-8")
        (d / ".txt.meta").write_text("source=hidden\n", encoding="utf-8")
        (d / "orphan.meta").write_text("source=orphan\n", encoding="utf-8")
        (d / "d.txt").mkdir()
        (d / "B.meta").mkdir()
        corpus, report = load_corpus(tmp_path, 1)
        # the ids and sources the loader gave when it globbed *.txt and
        # stat-ed each sidecar: c.TXT does not match, a file named .txt
        # keeps its whole name as its id, an orphan sidecar is ignored
        assert [(doc.id, doc.source) for doc in corpus.documents] == [
            (".txt", "hidden"), ("a", ""), ("a.b", "dotted"),
        ]
        assert [doc.id for doc in corpus.documents] == sorted(
            p.stem for p in d.glob("*.txt") if p.is_file() and p.stem != "B")
        assert [(path, reason.split(":")[0]) for path, reason in report.errors] == [
            (str(d / "B.meta"), "[Errno 21] Is a directory"),
            (str(d / "d.txt"), "[Errno 21] Is a directory"),
        ]

    def test_dangling_or_looping_sidecar_link_is_no_sidecar(self, tmp_path):
        _write(tmp_path, "real", "a1")
        _write(tmp_path, "real", "a2")
        (tmp_path / "real" / "a1.meta").symlink_to(tmp_path / "nowhere")
        (tmp_path / "real" / "a2.meta").symlink_to("a2.meta")
        corpus, report = load_corpus(tmp_path, 1)
        assert report.errors == []
        assert [(d.id, d.source) for d in corpus.documents] == [("a1", ""), ("a2", "")]


# names whose ids pathlib and os.path.splitext disagree on: splitext gives
# "..txt" for "..txt", where Path.stem gives "."
_PARITY_NAMES = (".txt", "..txt", "a.b.txt", "x.txt.txt")


@pytest.mark.parametrize("sidecars", [False, True])
@pytest.mark.parametrize("root", ["c", "c/", "./c", "link", "./link/"])
def test_loader_names_match_pathlib(tmp_path, monkeypatch, root, sidecars):
    d = tmp_path / "c" / "real"
    for name in _PARITY_NAMES + ("m.txt",):
        _write(tmp_path / "c", "real", name[:-4], title=f"Title {name}")
        if sidecars:
            (d / name).with_suffix(".meta").write_text(f"source=from {name}\n", encoding="utf-8")
    if sidecars:
        (d / "m.meta").write_bytes("source=Café\n".encode("latin-1"))
    (d / "bad.txt").write_bytes(b"A title\n\nBody \xff.\n")
    (d / "empty.txt").write_text("Title only\n", encoding="utf-8")
    (tmp_path / "link").symlink_to(tmp_path / "c")
    monkeypatch.chdir(tmp_path)

    corpus, report = load_corpus(root, 1)

    label_dir = Path(root) / "real"
    # with sidecars, m.txt's is not UTF-8, so m.txt is not loaded
    loaded = [label_dir / name for name in _PARITY_NAMES + (() if sidecars else ("m.txt",))]
    assert [(doc.id, doc.source) for doc in corpus.documents] == sorted(
        (p.stem, f"from {p.name}" if sidecars else "") for p in loaded)
    errors = [(str(label_dir / "bad.txt"), "'utf-8' codec can't decode byte 0xff in "
                                           "position 14: invalid start byte"),
              (str(label_dir / "empty.txt"), "empty body")]
    if sidecars:
        errors.append((str((label_dir / "m.txt").with_suffix(".meta")),
                       "'utf-8' codec can't decode byte 0xe9 in position 10: "
                       "invalid continuation byte"))
    assert report.errors == errors


def _corpus(docs, dataset_id=2):
    return Corpus(tuple(docs), dataset_id)


def _doc(id, label, title="T", body="A body. Sentences here."):
    return Document(id=id, source="", label=label, title=title, body=body)


class TestValidateCorpus:
    def test_duplicate_id_flagged(self):
        assert validate_corpus(_corpus([_doc("a1", "real"), _doc("a1", "fake")])) == (
            ["a1"], [])

    def test_illegal_label_for_dataset(self):
        assert validate_corpus(_corpus([_doc("x", "satire")], dataset_id=1)) == ([], ["x"])

    def test_clean_corpus(self):
        assert validate_corpus(_corpus([_doc("a", "real"), _doc("b", "fake")])) == ([], [])


def test_frozen_records_copy_and_pickle():
    # a frozen record refuses assignment, so copy and pickle restore its
    # slots another way
    doc = Document("a", "s", "real", "T", "B")
    with pytest.raises(TypeError):
        Document("a", 1, "s", "real", "T", "B")  # no dataset_id: the corpus holds it
    tok = Token("Don’t", WORD)
    for record in (doc, Corpus((doc,), 1), tok):
        for again in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert again == record and again is not record
    assert (copy.copy(tok).lower, pickle.loads(pickle.dumps(tok)).norm) == ("don't", "Don't")
