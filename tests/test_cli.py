import ast
import hashlib
import json
import math
import random
import textwrap
from pathlib import Path

import pytest

from conftest import SRC, run_fresh, write_synthetic_corpus
from newsstyle.cli import _analyze_matrix, main
from newsstyle.corpus import LABELS
from newsstyle.matrix import FeatureMatrix, read_matrix
from newsstyle.stats import compare_feature

SHIPPED_TAGGER_MODEL = Path(SRC) / "newsstyle" / "resources" / "tagger_model.json"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once on a synthetic corpus; share the artifacts."""
    base = tmp_path_factory.mktemp("pipeline")
    corpus = write_synthetic_corpus(base / "corpus", {"real": 15, "fake": 15, "satire": 15},
                                    seed=7)
    out = base / "out"
    out.mkdir()
    assert main(["ingest", "--corpus", str(corpus), "--dataset-id", "2",
                 "--out", str(out / "ingest")]) == 0
    for part in ("body", "title"):
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2",
                     "--part", part, "--out", str(out / f"{part}.csv")]) == 0
    assert main(["analyze", "--matrix", str(out / "body.csv"),
                 "--out", str(out / "analysis")]) == 0
    assert main(["classify", "--matrix", str(out / "body.csv"), "--pair", "real:fake",
                 "--preset", "body4", "--out", str(out / "cv_body.tsv")]) == 0
    assert main(["report", "--matrix", str(out / "body.csv"),
                 "--analysis", str(out / "analysis" / "ordering.tsv"),
                 "--classification", str(out / "cv_body.tsv"),
                 "--out", str(out / "report")]) == 0
    return corpus, out


class TestIngest:
    def test_manifest_counts(self, pipeline):
        _, out = pipeline
        text = (out / "ingest" / "manifest.txt").read_text()
        assert "schema_version=1" in text
        for label in ("real", "fake", "satire"):
            assert f"{label}=15" in text or f"{label}: 15" in text or f"{label}\t15" in text

    def test_validation_written(self, pipeline):
        _, out = pipeline
        assert (out / "ingest" / "validation.txt").exists()

    @pytest.mark.parametrize("dataset_id, stray", [(1, "satire"), (3, "fake")])
    def test_label_outside_dataset_listed(self, tmp_path, dataset_id, stray):
        # ingest reports what extract refuses (TestExtract), and exits 0
        corpus = write_synthetic_corpus(tmp_path / "c", {"real": 3, stray: 2}, seed=1)
        out = tmp_path / "o"
        assert main(["ingest", "--corpus", str(corpus), "--dataset-id", str(dataset_id),
                     "--out", str(out)]) == 0
        s = stray[0]
        assert (out / "validation.txt").read_text() == (
            f"schema_version=1\nillegal_label\t{s}000\nillegal_label\t{s}001\n")
        assert f"{stray}=2" in (out / "manifest.txt").read_text()

    def test_golden_ingest_output(self, tmp_path, capsys):
        # every line kind of both files: an empty body and a non-UTF-8
        # article (load_error), one id under two labels (duplicate_id) and
        # satire/ under dataset 1 (illegal_label, and a non-zero satire=)
        root = tmp_path / "c"
        for label, name, data in [
            ("real", "r1", b"Senate votes\n\nThe Senate voted on Tuesday.\n"),
            ("real", "r2", b"Title only\n"),
            ("real", "dup", b"Same id\n\nUnder real.\n"),
            ("fake", "f1", b"SHOCKING news\n\nYou will not believe it.\n"),
            ("fake", "f2", b"Caf\xe9 title\n\nBody.\n"),
            ("fake", "dup", b"Same id\n\nUnder fake.\n"),
            ("satire", "s1", b"Man wins\n\nA man won a thing.\n"),
        ]:
            (root / label).mkdir(parents=True, exist_ok=True)
            (root / label / f"{name}.txt").write_bytes(data)
        out = tmp_path / "o"
        assert main(["ingest", "--corpus", str(root), "--dataset-id", "1",
                     "--out", str(out)]) == 0
        assert (out / "manifest.txt").read_bytes() == (
            b"schema_version=1\ndataset_id=1\nreal=2\nfake=2\nsatire=1\n")
        assert (out / "validation.txt").read_bytes() == (
            "schema_version=1\n"
            f"load_error\t{root / 'fake' / 'f2.txt'}\t'utf-8' codec can't decode byte 0xe9 "
            "in position 3: invalid continuation byte\n"
            f"load_error\t{root / 'real' / 'r2.txt'}\tempty body\n"
            "duplicate_id\tdup\n"
            "illegal_label\ts1\n").encode("utf-8")
        assert capsys.readouterr().out == "real: 2\nfake: 2\nsatire: 1\n"

    def test_non_label_directory_listed(self, tmp_path, capsys):
        # a misnamed label directory is skipped, and validation.txt says so
        root = tmp_path / "c"
        for label, name in [("Real", "r1"), ("fake", "f1")]:
            (root / label).mkdir(parents=True)
            (root / label / f"{name}.txt").write_text("A title\n\nA body.\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["ingest", "--corpus", str(root), "--dataset-id", "1",
                     "--out", str(out)]) == 0
        assert (out / "validation.txt").read_text(encoding="utf-8") == (
            f"schema_version=1\nload_error\t{root / 'Real'}\t"
            "not a label directory (real, fake, satire)\nvalidation: clean\n")
        assert "real=0\nfake=1\n" in (out / "manifest.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().err == f"1 load error(s), listed in {out / 'validation.txt'}\n"

    def test_missing_corpus_exit_1(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "nope"),
                     "--dataset-id", "1", "--out", str(tmp_path / "o")]) == 1


class TestExtract:
    def test_matrix_row_count(self, pipeline):
        _, out = pipeline
        lines = (out / "body.csv").read_text().splitlines()
        assert len(lines) == 1 + 45  # header + one row per document

    def test_title_matrix(self, pipeline):
        _, out = pipeline
        lines = (out / "title.csv").read_text().splitlines()
        assert len(lines) == 1 + 45

    def test_empty_titles_skipped(self, tmp_path):
        corpus = write_synthetic_corpus(tmp_path / "c", {"real": 6, "fake": 6}, seed=1)
        victim = next((corpus / "real").glob("*.txt"))
        body = victim.read_text().split("\n\n", 1)[1]
        victim.write_text("\n\n" + body)
        out = tmp_path / "t.csv"
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1",
                     "--part", "title", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 11

    @pytest.mark.parametrize("part", ["body", "title"])
    def test_duplicate_doc_id_exit_1(self, tmp_path, capsys, part):
        corpus = write_synthetic_corpus(tmp_path / "c", {"real": 3, "fake": 3}, seed=1)
        (corpus / "fake" / "f001.txt").rename(corpus / "fake" / "r001.txt")
        out = tmp_path / "m.csv"
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1",
                     "--part", part, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: duplicate doc_id 'r001' (under fake/ and "
                                           "real/): matrix rows are keyed by doc_id\n")
        assert not out.exists()

    @pytest.mark.parametrize("dataset_id, stray", [(1, "satire"), (3, "fake")])
    @pytest.mark.parametrize("part", ["body", "title"])
    def test_label_outside_dataset_exit_1(self, tmp_path, capsys, part, dataset_id, stray):
        # the dataset's own labels decide what a matrix may hold, so a stray
        # label directory is refused before any resource loads: the absent
        # tagger model is never opened
        corpus = write_synthetic_corpus(tmp_path / "c", {"real": 3, stray: 5}, seed=1)
        out = tmp_path / "m.csv"
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", str(dataset_id),
                     "--part", part, "--out", str(out),
                     "--tagger-model", str(tmp_path / "absent.json")]) == 1
        legal = "real/, fake/" if dataset_id == 1 else "real/, satire/"
        s = stray[0]
        assert capsys.readouterr().err == (
            f"error: 5 document(s) under a label dataset {dataset_id} lacks (it has {legal} "
            f"only): '{s}000', '{s}001', '{s}002', ...\n")
        assert not out.exists()

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        corpus, out = pipeline
        again = tmp_path / "again.csv"
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2",
                     "--part", "body", "--out", str(again)]) == 0
        assert again.read_bytes() == (out / "body.csv").read_bytes()


class TestAnalyze:
    def test_ordering_tsv_structure(self, pipeline):
        _, out = pipeline
        lines = (out / "analysis" / "ordering.tsv").read_text().splitlines()
        assert lines[0] == "schema_version=1"
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("feature\t"))
        data = lines[header_idx + 1:]
        assert len(data) == 63  # one row per catalog feature

    def test_human_table_written(self, pipeline):
        _, out = pipeline
        text = (out / "analysis" / "ordering.txt").read_text()
        assert "alpha=0.05" in text

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        _, out = pipeline
        again = tmp_path / "a2"
        assert main(["analyze", "--matrix", str(out / "body.csv"),
                     "--out", str(again)]) == 0
        assert (again / "ordering.tsv").read_bytes() == \
            (out / "analysis" / "ordering.tsv").read_bytes()

    def test_strict_degenerate_exit_2(self, tmp_path):
        from newsstyle.matrix import CATALOG
        header = "doc_id,label,part," + ",".join(CATALOG)
        rows = [header]
        for i in range(6):
            label = "real" if i < 3 else "fake"
            rows.append(f"d{i},{label},body," + ",".join(["1"] * len(CATALOG)))
        m = tmp_path / "const.csv"
        m.write_text("\n".join(rows) + "\n")
        assert main(["analyze", "--matrix", str(m), "--strict-degenerate",
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["analyze", "--matrix", str(m),
                     "--out", str(tmp_path / "o2")]) == 0

    def test_bad_matrix_exit_1(self, tmp_path):
        m = tmp_path / "bad.csv"
        m.write_text("doc_id,label,part,BOGUS\nx,real,body,1\n")
        assert main(["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("cell", ["1" * 140_000, "1\x002"], ids=["field-limit", "nul"])
    def test_csv_error_exit_1(self, tmp_path, capsys, cell):
        # a field past csv's size limit, or on 3.10 a NUL byte, stops the
        # csv reader itself; it reports the line it stopped on
        m = tmp_path / "m.csv"
        m.write_text(f"doc_id,label,part,WC\nx,real,body,1\ny,fake,body,{cell}\n")
        assert main(["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")]) == 1
        assert f"{m}:3: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "ordering.tsv").exists()

    def test_unknown_labels_exit_1(self, tmp_path, capsys):
        # labels outside LABELS have no fixed group order, so the sign of a
        # two-group statistic would depend on set iteration order
        m = tmp_path / "ab.csv"
        rows = ["doc_id,label,part,med_vp_depth"]
        rows += [f"d{i},{'alpha' if i < 30 else 'beta'},body,{i % 7 + (i >= 30)}"
                 for i in range(60)]
        m.write_text("\n".join(rows) + "\n")
        assert main(["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")]) == 1
        assert f"{m}:2: label 'alpha'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "ordering.tsv").exists()


def _golden_matrix(path: Path, sizes: dict[str, int], seed: int) -> Path:
    """Seeded matrix whose columns reach each route of the protocol.

    Values come from ``random()``, ``math.fsum`` and float products only,
    rounded to four places, so the CSV bytes depend neither on the host's
    libm nor on the Python version's ``sum``.
    """
    rng = random.Random(seed)
    shift = {"real": 0.0, "fake": 0.6, "satire": 0.3}
    power = {"real": 1, "fake": 3, "satire": 2}

    def near_normal() -> float:  # sum of 12 uniforms, correctly rounded
        return math.fsum(rng.random() for _ in range(12)) - 6.0

    columns = {
        # near-normal in every group -> anova
        "WC": lambda l: near_normal() + shift[l],
        # heavy right skew -> rank test
        "WPS": lambda l: 10.0 * math.prod([rng.random()] * 4) + shift[l],
        # small integer counts: tie-heavy rank test
        "quotes": lambda l: float(int(4 * math.prod([rng.random()] * power[l]))),
        # constant -> degenerate rank test
        "exclaim": lambda l: 0.0,
        # near-normal with ~15% NA cells
        "TTR": lambda l: None if rng.random() < 0.15 else near_normal() + 2.0 * shift[l],
        # defined in one row of the last group only -> skipped
        "all_caps": lambda l: None,
        # overlapping near-normal groups: anova, not significant
        "NN": lambda l: near_normal(),
    }
    last = list(sizes)[-1]
    lines = ["doc_id,label,part," + ",".join(columns)]
    for label, n in sizes.items():
        for i in range(n):
            cells = []
            for name, draw in columns.items():
                v = draw(label)
                if name == "all_caps" and label == last and i == 0:
                    v = 1.0
                cells.append("NA" if v is None else repr(round(v, 4)))
            lines.append(f"{label[0]}{i:03d},{label},body," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# sha256 of analyze's ordering.tsv and ordering.txt for the two seeded
# matrices of `_golden_matrix`; any change to a statistic, p-value, ordering
# or the report format changes them
GOLDEN_ANALYZE_SHA256 = {
    "three_labels": {
        "ordering.tsv": "b027f122e982cd2520dbd3efa32c3776c0bc20bb4c1c02091472028d08ad6107",
        "ordering.txt": "2ef014f1f51dc9c92409f14abe60aebab508a6443c94d2e13494a5878f2a1f07",
    },
    "two_labels": {
        "ordering.tsv": "281c665ac09fd2e262c46b1805535e3b62bc15a92fed3418b5ad836daad6b76b",
        "ordering.txt": "89ea18d31a20c229565cbb091977fdb71e9b303da15f040c271b9f94ecfb7c34",
    },
}
_GOLDEN_ANALYZE_MATRICES = {
    "three_labels": ({"real": 40, "fake": 35, "satire": 30}, 11),
    "two_labels": ({"fake": 25, "real": 22}, 12),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE_SHA256))
def test_golden_analyze_output(tmp_path, name):
    sizes, seed = _GOLDEN_ANALYZE_MATRICES[name]
    m = _golden_matrix(tmp_path / "m.csv", sizes, seed)
    assert main(["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")]) == 0
    tests = [line.split("\t")[1] for line in
             (tmp_path / "o" / "ordering.tsv").read_text().splitlines()[6:]]
    routes = {"three_labels": {"anova", "kruskal", "skipped"},
              "two_labels": {"anova", "ranksum", "skipped"}}[name]
    assert set(tests) == routes
    assert "degenerate" in (tmp_path / "o" / "ordering.tsv").read_text()
    for artifact, expected in GOLDEN_ANALYZE_SHA256[name].items():
        got = hashlib.sha256((tmp_path / "o" / artifact).read_bytes()).hexdigest()
        assert got == expected, (name, artifact)


def test_report_computes_each_t_quantile_once(tmp_path):
    # every confidence interval of one size asks for the same quantile
    from newsstyle.stats import t_ppf

    m = _golden_matrix(tmp_path / "m.csv", {"real": 40, "fake": 35, "satire": 30}, 11)
    t_ppf.cache_clear()
    assert main(["report", "--matrix", str(m), "--ci-features", "WC,WPS,quotes,TTR,NN",
                 "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r" / "ci_plot_data.csv").read_text().splitlines()[1:]
    sizes = {line.split(",")[2] for line in lines}
    calls = t_ppf.cache_info()
    assert len(lines) == 15 and len(sizes) == 6  # TTR's NA cells give it sizes of its own
    assert calls.misses == calls.currsize == len(sizes)
    assert calls.hits + calls.misses == len(lines)


def test_three_labels_rank_each_pair_once(tmp_path, monkeypatch):
    # a three-label analysis runs one Kruskal-Wallis test per feature on that
    # route, and one rank-sum per adjacent pair of each tested ordering
    import newsstyle.stats

    calls = []
    ranksum, kruskal_wallis = newsstyle.stats.ranksum, newsstyle.stats.kruskal_wallis

    def counted_ranksum(a, b):
        calls.append("ranksum")
        return ranksum(a, b)

    def counted_kruskal(groups):
        calls.append("kruskal")
        return kruskal_wallis(groups)

    monkeypatch.setattr(newsstyle.stats, "ranksum", counted_ranksum)
    monkeypatch.setattr(newsstyle.stats, "kruskal_wallis", counted_kruskal)
    sizes, seed = _GOLDEN_ANALYZE_MATRICES["three_labels"]
    rows = _analyze_matrix(read_matrix(_golden_matrix(tmp_path / "m.csv", sizes, seed)), 0.05)
    routes = [r.test_used for r in rows]
    assert routes.count("kruskal") >= 2 and "anova" in routes
    assert calls.count("kruskal") == routes.count("kruskal")
    assert calls.count("ranksum") == 2 * (len(routes) - routes.count("skipped"))


def test_ranked_classify_takes_the_first_significant_rows_of_analyze(tmp_path):
    # the first --top-k significant rows of ordering.tsv, one of them a
    # Kruskal-Wallis row
    import newsstyle.stats

    sizes, seed = _GOLDEN_ANALYZE_MATRICES["three_labels"]
    m = _golden_matrix(tmp_path / "m.csv", sizes, seed)
    rows = _analyze_matrix(read_matrix(m), 0.05)
    routes = {r.feature: r.test_used for r in rows}
    expected = newsstyle.stats.rank_features(rows, 4)
    assert "kruskal" in {routes[f] for f in expected}
    assert main(["analyze", "--matrix", str(m), "--out", str(tmp_path / "a")]) == 0
    significant = [line.split("\t")[0] for line in
                   (tmp_path / "a" / "ordering.tsv").read_text().splitlines()[6:]
                   if line.split("\t")[5] == "1"]
    assert expected == significant[:4]
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", "fake:real", "--out", str(out)]) == 0
    assert f"features={','.join(expected)}" in out.read_text().splitlines()


@pytest.mark.parametrize("name", sorted(_GOLDEN_ANALYZE_MATRICES))
def test_ranked_classify_compares_each_column_once(tmp_path, monkeypatch, name):
    # the ranking runs analyze's protocol, the one compare_feature, once per
    # column of the matrix and in column order; a preset runs none
    import newsstyle.stats

    calls = []
    compare_feature = newsstyle.stats.compare_feature

    def counted(feature, groups, alpha):
        calls.append(feature)
        return compare_feature(feature, groups, alpha)

    monkeypatch.setattr(newsstyle.stats, "compare_feature", counted)
    sizes, seed = _GOLDEN_ANALYZE_MATRICES[name]
    m = _golden_matrix(tmp_path / "m.csv", sizes, seed)
    argv = ["classify", "--matrix", str(m), "--pair", "fake:real", "--out", str(tmp_path / "cv.tsv")]
    assert main(argv) == 0
    assert calls == list(read_matrix(m).feature_names)
    calls.clear()
    assert main(argv + ["--preset", "body4"]) == 0
    assert calls == []


# the features= line of a ranked classify (--pair fake:real, --top-k 4) on
# each matrix of `_golden_matrix`; a change to a test, a p-value or the
# ranking moves it
GOLDEN_RANKED_FEATURES = {
    "three_labels": "TTR,quotes,WC,WPS",
    "two_labels": "quotes,TTR,WC",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RANKED_FEATURES))
def test_golden_ranked_classify_features(tmp_path, name):
    sizes, seed = _GOLDEN_ANALYZE_MATRICES[name]
    m = _golden_matrix(tmp_path / "m.csv", sizes, seed)
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", "fake:real", "--out", str(out)]) == 0
    assert f"features={GOLDEN_RANKED_FEATURES[name]}" in out.read_text().splitlines()


@pytest.mark.parametrize("name", sorted(_GOLDEN_ANALYZE_MATRICES))
def test_analyze_matrix_matches_group_columns(tmp_path, name):
    # rows interleaved across labels: each group must keep matrix row order
    sizes, seed = _GOLDEN_ANALYZE_MATRICES[name]
    m = read_matrix(_golden_matrix(tmp_path / "m.csv", sizes, seed))
    order = list(range(len(m.rows)))
    random.Random(seed).shuffle(order)
    m = FeatureMatrix(feature_names=m.feature_names, doc_ids=tuple(m.doc_ids[i] for i in order),
                      labels=tuple(m.labels[i] for i in order), part=m.part,
                      rows=[m.rows[i] for i in order])
    labels = [label for label in LABELS if label in m.labels]
    expected = [compare_feature(f, {label: m.group_column(f, label) for label in labels}, 0.05)
                for f in m.feature_names]
    rows = _analyze_matrix(m, 0.05)
    assert any(None in m.group_column("TTR", label) for label in labels)
    # float repr round-trips, so equal reprs mean the same bits
    assert [repr(r) for r in rows] == [repr(r) for r in expected]


@pytest.mark.parametrize("command", ["analyze", "classify"])
@pytest.mark.parametrize("bad_row, message", [
    ("d1,fake,body,nan,1,1,1", ":3: nan in ['NN']"),
    ("d0,fake,body,5,1,1,1", ":3: duplicate doc_id 'd0' (first on line 2)"),
    ("d1,fake,body,many,1,1,1", ":3: could not convert string to float: 'many'"),
])
def test_bad_matrix_row_exit_1(tmp_path, capsys, command, bad_row, message):
    m = tmp_path / "m.csv"
    rows = ["doc_id,label,part,NN,TTR,WC,quotes", "d0,real,body,4,0.5,120,2", bad_row]
    rows += [f"d{i},{'real' if i % 2 else 'fake'},body,{i % 9},0.{i % 7},{100 + i},{i % 3}"
             for i in range(2, 40)]
    m.write_text("\n".join(rows) + "\n")
    argv = {"analyze": ["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")],
            "classify": ["classify", "--matrix", str(m), "--pair", "fake:real",
                         "--preset", "body4", "--out", str(tmp_path / "cv.tsv")]}[command]
    assert main(argv) == 1
    assert f"error: {m}{message}" in capsys.readouterr().err
    assert not any(tmp_path.rglob("*.tsv"))


@pytest.mark.parametrize("command", ["analyze", "classify"])
@pytest.mark.parametrize("header, n_rows, message", [
    # a repeated column would give ordering.tsv two rows for one feature
    ("doc_id,label,part,NN,TTR,WC,WC", 40, ":1: repeated feature column(s) ['WC']"),
    # with no rows there is no part, and analyze would write `part=`
    ("doc_id,label,part,NN,TTR,WC,quotes", 0, ": no rows after the header"),
])
def test_bad_matrix_header_exit_1(tmp_path, capsys, command, header, n_rows, message):
    m = tmp_path / "m.csv"
    lines = [header]
    lines += [f"d{i},{'real' if i % 2 else 'fake'},body,{i % 9},0.{i % 7},{100 + i},{i % 3}"
              for i in range(n_rows)]
    m.write_text("\n".join(lines) + "\n")
    argv = {"analyze": ["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")],
            "classify": ["classify", "--matrix", str(m), "--pair", "fake:real",
                         "--preset", "body4", "--out", str(tmp_path / "cv.tsv")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {m}{message}\n"
    assert not any(tmp_path.rglob("*.tsv"))


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--matrix"),
    ("classify", "--matrix"),
    ("report", "--matrix"),
    ("report", "--analysis"),
    ("report", "--classification"),
])
def test_input_file_not_utf8_exit_1(tmp_path, capsys, command, flag):
    # a latin-1 doc_id on line 3: the reader names the file and the line
    # instead of raising UnicodeDecodeError
    matrix = _small_matrix(tmp_path / "m.csv")
    analysis = tmp_path / "ordering.tsv"
    analysis.write_text("schema_version=1\npart=body\n")
    classification = tmp_path / "cv_in.tsv"
    classification.write_text("schema_version=1\npair=fake:real\n")
    files = {"--matrix": matrix, "--analysis": analysis, "--classification": classification}
    bad = tmp_path / "bad"
    bad.write_bytes(matrix.read_bytes().replace(b"\nd1,", b"\nd\xe91,"))
    files[flag] = bad
    out = tmp_path / "out"
    argv = {
        "analyze": ["analyze"],
        "classify": ["classify", "--pair", "fake:real", "--preset", "body4"],
        "report": ["report", "--analysis", str(files["--analysis"]),
                   "--classification", str(files["--classification"])],
    }[command] + ["--matrix", str(files["--matrix"]), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: {bad}: not UTF-8 (line 3: invalid continuation byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("preset, missing", [
    ("body4", ["TTR", "quotes"]),
    ("title4", ["per_stop", "avg_wlen", "FK"]),
])
def test_preset_column_missing_exit_1(tmp_path, capsys, preset, missing):
    m = tmp_path / "m.csv"
    rows = ["doc_id,label,part,WC,NN"]
    rows += [f"d{i},{'real' if i % 2 else 'fake'},body,{100 + i},{i % 9}" for i in range(40)]
    m.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", "fake:real", "--preset", preset,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {m}: no column(s) {missing} for --preset {preset}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, missing", [
    (["--ci-features", "NN,FK,WC,GI"], ["FK", "GI"]),
    ([], ["all_caps", "NNP", "per_stop"]),  # the default list
])
def test_ci_feature_column_missing_exit_1(tmp_path, capsys, flags, missing):
    m = _small_matrix(tmp_path / "m.csv")
    out = tmp_path / "r"
    assert main(["report", "--matrix", str(m), *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {m}: no column(s) {missing} for --ci-features\n"
    assert not out.exists()


def test_ci_feature_repeated_exit_1(tmp_path, capsys):
    # a repeated name used to write its rows of ci_plot_data.csv twice
    m = _small_matrix(tmp_path / "m.csv")
    out = tmp_path / "r"
    assert main(["report", "--matrix", str(m), "--ci-features", "NN,WC,NN,TTR,WC",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: repeated feature(s) ['NN', 'WC'] in --ci-features\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, content, message", [
    ("--frequency-table", "the\t5\nfoo\tabc\n",
     ":2: frequency for 'foo' must be a finite number >= 0, got 'abc'"),
    # nan passes a `< 0` check, and would make flu_coca_d NA on every row with "the"
    ("--frequency-table", "the\tnan\n",
     ":1: frequency for 'the' must be a finite number >= 0, got 'nan'"),
    ("--frequency-table", "the\tinf\n",
     ":1: frequency for 'the' must be a finite number >= 0, got 'inf'"),
    ("--frequency-table", "the\t-2\n",
     ":1: frequency for 'the' must be a finite number >= 0, got '-2'"),
    ("--sentiment-lexicon", "bad\t-3\ngood\tx\n",
     ":2: value for 'good' must be an integer, got 'x'"),
    ("--sentiment-lexicon", "%boosters\nvery\t1.5\n",
     ":2: value for 'very' must be an integer, got '1.5'"),
    # a bare * would give every word its strength
    ("--sentiment-lexicon", "*\t3\n", ":1: wildcard only allowed as trailing * after a stem: '*'"),
    ("--sentiment-lexicon", "da*mn\t-3\n",
     ":1: wildcard only allowed as trailing * after a stem: 'da*mn'"),
    ("--sentiment-lexicon", "%boosters\nvery*\t1\n",
     ":2: wildcard not allowed in %boosters: 'very*'"),
    ("--sentiment-lexicon", "%negators\nnot*\n", ":2: wildcard not allowed in %negators: 'not*'"),
    ("--sentiment-lexicon", "%negators\nnot\t1\n", ":2: expected one negator, got 'not\\t1'"),
    # a repeated key used to keep its last value silently
    ("--sentiment-lexicon", "good\t3\ngood\t-3\n", ":2: duplicate term 'good' in %terms"),
    ("--sentiment-lexicon", "%boosters\nvery\t1\nVery\t2\n",
     ":3: duplicate booster 'very' in %boosters"),
    ("--sentiment-lexicon", "%negators\nnot\nnever\nNOT\n",
     ":4: duplicate negator 'not' in %negators"),
    ("--frequency-table", "the\t5\nof\t3\nThe\t2\n", ":3: duplicate word 'the'"),
    ("--tagger-model", "tagset: [NN]\n", ":1: not JSON: Expecting value"),
    ("--tagger-model", '{"format": "newsstyle-tagger"}',
     ": tagger model file lacks key 'tagset'"),
    ("--tagger-model", "[]", ": not a tagger model file"),
    # latin-1 bytes: each loader names the file instead of raising UnicodeDecodeError
    ("--category-lexicon", "%cause\ncafé\n".encode("latin-1"),
     ": not UTF-8 (line 2: invalid continuation byte)"),
    ("--frequency-table", "the\t5\ncafé\t2\n".encode("latin-1"),
     ": not UTF-8 (line 2: invalid continuation byte)"),
    ("--sentiment-lexicon", "café\t2\n".encode("latin-1"),
     ": not UTF-8 (line 1: invalid continuation byte)"),
    ("--stoplist", "the\ncafé".encode("latin-1"), ": not UTF-8 (line 2: unexpected end of data)"),
    ("--tagger-model", '{"vocab": ["café"]}'.encode("latin-1"),
     ": not UTF-8 (line 1: invalid continuation byte)"),
])
def test_bad_resource_file_exit_1(tmp_path, capsys, flag, content, message):
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 2, "fake": 2}, seed=3)
    res = tmp_path / "resource"
    if isinstance(content, bytes):
        res.write_bytes(content)
    else:
        res.write_text(content, encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1", "--part", "body",
                 "--out", str(out), flag, str(res)]) == 1
    assert capsys.readouterr().err == f"error: {res}{message}\n"
    assert not out.exists()


def test_category_lexicon_without_a_catalog_category_exit_1(tmp_path, capsys):
    # a lexicon without the netspeak block used to exit 0 and write an
    # all-zero netspeak column, which analyze flagged only as degenerate
    text = (Path(SRC) / "newsstyle" / "resources" / "categories.dic").read_text(encoding="utf-8")
    head, *blocks = text.split("\n%")
    res = tmp_path / "categories.dic"
    res.write_text(head + "".join(f"\n%{block}" for block in blocks
                                  if block.split("\n", 1)[0] != "netspeak"), encoding="utf-8")
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 2, "fake": 2}, seed=3)
    out = tmp_path / "m.csv"
    assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1", "--part", "body",
                 "--out", str(out), "--category-lexicon", str(res)]) == 1
    assert capsys.readouterr().err == f"error: {res}: no %category block for ['netspeak']\n"
    assert not out.exists()


@pytest.mark.parametrize("where, value, message", [
    ("weight", math.nan, "weights must be finite numbers"),
    ("weight", math.inf, "weights must be finite numbers"),
    ("weight", -math.inf, "weights must be finite numbers"),
    ("weight tag", "ZZ", "tag 'ZZ' not in tagset"),
    ("backoff tag", "ZZ", "tag 'ZZ' not in tagset"),
])
def test_tagger_model_bad_value_exit_1(tmp_path, capsys, where, value, message):
    # the shipped model with one value changed; json.dumps writes NaN,
    # Infinity and -Infinity, which json.loads reads back, and a NaN weight
    # used to load and change title.csv
    model = json.loads(SHIPPED_TAGGER_MODEL.read_text(encoding="utf-8"))
    if where == "weight":
        model["weights"]["bias"]["NN"] = value
    elif where == "weight tag":
        model["weights"]["bias"][value] = 1.0
    else:
        model["lexical_backoff"]["the"] = value
    res = tmp_path / "model.json"
    res.write_text(json.dumps(model), encoding="utf-8")
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 2, "fake": 2}, seed=3)
    out = tmp_path / "m.csv"
    assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1", "--part", "title",
                 "--out", str(out), "--tagger-model", str(res)]) == 1
    assert capsys.readouterr().err == f"error: {res}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tagger-model", "--category-lexicon", "--frequency-table",
                                  "--sentiment-lexicon", "--stoplist"])
def test_resource_path_is_directory_exit_1(tmp_path, capsys, flag):
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 2, "fake": 2}, seed=3)
    res = tmp_path / "resources"
    res.mkdir()
    out = tmp_path / "m.csv"
    assert main(["extract", "--corpus", str(corpus), "--dataset-id", "1", "--part", "body",
                 "--out", str(out), flag, str(res)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(res) in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("analyze", "--alpha", "7", "--alpha must be in (0, 1), got 7.0"),
    ("analyze", "--alpha", "0", "--alpha must be in (0, 1), got 0.0"),
    ("analyze", "--alpha", "nan", "--alpha must be in (0, 1), got nan"),
    ("analyze", "--bold-p", "1", "--bold-p must be in (0, 1), got 1.0"),
    ("analyze", "--bold-p", "-0.5", "--bold-p must be in (0, 1), got -0.5"),
    ("classify", "--alpha", "1.5", "--alpha must be in (0, 1), got 1.5"),
    ("classify", "--top-k", "-1", "--top-k must be >= 1, got -1"),
    ("classify", "--top-k", "0", "--top-k must be >= 1, got 0"),
    ("classify", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("classify", "--folds", "1", "--folds must be >= 2, got 1"),
    ("classify", "--folds", "-2", "--folds must be >= 2, got -2"),
])
def test_bad_option_value_exit_1(tmp_path, capsys, command, flag, value, message):
    # at --alpha 7 every feature was marked significant, and --top-k -1
    # trained on every significant feature but the last
    m = tmp_path / "m.csv"
    rows = ["doc_id,label,part,NN,TTR,WC,quotes"]
    rows += [f"d{i},{'real' if i % 2 else 'fake'},body,{i % 9 + i % 2},0.{i % 7},{100 + i},{i % 3}"
             for i in range(40)]
    m.write_text("\n".join(rows) + "\n")
    argv = {"analyze": ["analyze", "--matrix", str(m), "--out", str(tmp_path / "o")],
            "classify": ["classify", "--matrix", str(m), "--pair", "fake:real",
                         "--out", str(tmp_path / "cv.tsv")]}[command]
    assert main(argv + [flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.rglob("*.tsv"))


@pytest.mark.parametrize("flag, value, message", [
    ("--folds", "1", "--folds must be >= 2, got 1"),
    ("--C", "0", "--C must be finite and > 0, got 0.0"),
])
def test_classify_checks_options_before_reading_the_matrix(tmp_path, capsys, flag, value,
                                                           message):
    # the matrix does not exist, so reading it first would report that
    # instead; a ranked run used to run the whole analyze protocol first
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(tmp_path / "missing.csv"), "--pair", "fake:real",
                 flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _small_matrix(path: Path) -> Path:
    rows = ["doc_id,label,part,NN,TTR,WC,quotes"]
    rows += [f"d{i},{'real' if i % 2 else 'fake'},body,{i % 9 + i % 2},0.{i % 7},{100 + i},{i % 3}"
             for i in range(40)]
    path.write_text("\n".join(rows) + "\n")
    return path


def _matrix_commands(m: str, tmp_path: Path) -> list[list[str]]:
    """analyze, ranked classify, --preset classify and report on matrix m;
    NN is the one feature of _small_matrix with p < 0.5."""
    return [
        ["analyze", "--matrix", m, "--out", str(tmp_path / "a")],
        ["classify", "--matrix", m, "--pair", "fake:real", "--alpha", "0.5",
         "--out", str(tmp_path / "cv_ranked.tsv")],
        ["classify", "--matrix", m, "--pair", "fake:real", "--preset", "body4",
         "--out", str(tmp_path / "cv_preset.tsv")],
        ["report", "--matrix", m, "--ci-features", "NN,WC", "--out", str(tmp_path / "r")],
    ]


_TEXT_STACK = ("newsstyle.textseg", "newsstyle.lexicon", "newsstyle.postag")
_MATRIX_ONLY = _TEXT_STACK + ("newsstyle.features", "newsstyle.learn", "numpy")
# subcommand -> (modules it must load, modules it must not load)
_LAYERS = {
    "ingest": (("newsstyle.corpus",),
               _TEXT_STACK + ("newsstyle.matrix", "csv", "newsstyle.features",
                              "newsstyle.stats", "newsstyle.learn", "numpy", "json")),
    "extract": (_TEXT_STACK + ("newsstyle.features",),
                ("newsstyle.stats", "newsstyle.learn", "numpy")),
    "analyze": (("newsstyle.matrix", "newsstyle.stats"), _MATRIX_ONLY),
    "classify": (("newsstyle.matrix", "newsstyle.learn"),
                 _TEXT_STACK + ("newsstyle.stats", "numpy")),
    "classify-ranked": (("newsstyle.stats", "newsstyle.learn"), _TEXT_STACK + ("numpy",)),
    "report": (("newsstyle.matrix", "newsstyle.stats"), _MATRIX_ONLY),
}


@pytest.mark.parametrize("command", sorted(_LAYERS))
def test_each_subcommand_loads_only_its_layers(tmp_path, command):
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 2, "fake": 2}, seed=3)
    m = str(_small_matrix(tmp_path / "m.csv"))
    argv = {
        "ingest": ["ingest", "--corpus", str(corpus), "--dataset-id", "1",
                   "--out", str(tmp_path / "i")],
        "extract": ["extract", "--corpus", str(corpus), "--dataset-id", "1", "--part", "title",
                    "--out", str(tmp_path / "t.csv")],
        "analyze": ["analyze", "--matrix", m, "--out", str(tmp_path / "a")],
        "classify": ["classify", "--matrix", m, "--pair", "fake:real", "--preset", "body4",
                     "--out", str(tmp_path / "cv.tsv")],
        "classify-ranked": ["classify", "--matrix", m, "--pair", "fake:real", "--alpha", "0.5",
                            "--out", str(tmp_path / "cv.tsv")],
        "report": ["report", "--matrix", m, "--ci-features", "NN,WC", "--out", str(tmp_path / "r")],
    }[command]
    modules = tmp_path / "modules.txt"
    script = textwrap.dedent(f"""
        import sys
        from newsstyle.cli import main
        code = main({argv!r})
        with open({str(modules)!r}, "w") as fh:
            fh.write("\\n".join(sorted(sys.modules)))
        sys.exit(code)
    """)
    proc = run_fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr
    loaded = set(modules.read_text().split())
    needed, unneeded = _LAYERS[command]
    assert set(needed) <= loaded
    assert sorted(loaded & set(unneeded)) == []


def test_every_file_the_chain_reads_or_writes_names_its_encoding(tmp_path):
    # EncodingWarning marks an open() or read_text() that takes the locale's
    # encoding; as an error it fails the subcommand that makes the call
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 20, "fake": 20, "satire": 20},
                                    seed=3)
    sentiment = Path(SRC) / "newsstyle" / "resources" / "sentiment.tsv"
    body, title = str(tmp_path / "body.csv"), str(tmp_path / "title.csv")
    extract = ["extract", "--corpus", str(corpus), "--dataset-id", "2"]
    chain = [
        ["ingest", "--corpus", str(corpus), "--dataset-id", "2", "--out", str(tmp_path / "i")],
        [*extract, "--part", "body", "--out", body],
        [*extract, "--part", "title", "--out", title],
        [*extract, "--part", "body", "--sentiment-lexicon", str(sentiment),
         "--out", str(tmp_path / "body2.csv")],
        ["analyze", "--matrix", body, "--out", str(tmp_path / "a")],
        ["classify", "--matrix", body, "--pair", "fake:real", "--out", str(tmp_path / "r.tsv")],
        ["classify", "--matrix", body, "--pair", "fake:real", "--preset", "body4",
         "--out", str(tmp_path / "p.tsv")],
        ["report", "--matrix", body, "--analysis", str(tmp_path / "a" / "ordering.tsv"),
         "--classification", str(tmp_path / "r.tsv"), str(tmp_path / "p.tsv"),
         "--out", str(tmp_path / "report")],
    ]
    for argv in chain:
        proc = run_fresh(["-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-m", "newsstyle.cli", *argv])
        assert proc.returncode == 0, (argv[0], proc.stderr)
    assert (tmp_path / "body.csv").read_bytes() == (tmp_path / "body2.csv").read_bytes()


def test_no_package_module_imports_dataclasses_or_typing():
    # the record classes are plain classes and annotations stay strings, so
    # no subcommand pays at start-up for either module or what they import
    for path in sorted(Path(SRC, "newsstyle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            tops = {name.split(".")[0] for name in names}
            assert not tops & {"dataclasses", "typing"}, f"{path.name}:{node.lineno}"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S: no site module, which on some interpreters loads typing and more
    script = textwrap.dedent("""
        import sys
        unwanted = {"dataclasses", "inspect"}
        assert not unwanted & set(sys.modules), sorted(unwanted & set(sys.modules))
        import newsstyle.cli, newsstyle.features, newsstyle.stats, newsstyle.learn
        print(" ".join(sorted(unwanted & set(sys.modules))) or "none")
    """)
    proc = run_fresh(["-S", "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["none"]


def test_no_subcommand_loads_numpy(tmp_path):
    m = str(_small_matrix(tmp_path / "m.csv"))
    script = textwrap.dedent(f"""
        import sys
        from newsstyle.cli import main
        assert "numpy" not in sys.modules
        for argv in {_matrix_commands(m, tmp_path)!r}:
            assert main(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
    """)
    proc = run_fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr
    for out in ("cv_ranked.tsv", "cv_preset.tsv"):
        assert (tmp_path / out).read_text().startswith("schema_version=1\n")


def test_classify_runs_where_numpy_cannot_be_imported(tmp_path):
    m = str(_small_matrix(tmp_path / "m.csv"))
    script = textwrap.dedent(f"""
        import sys

        class RefuseNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError(f"{{name}} is blocked")
                return None

        sys.meta_path.insert(0, RefuseNumpy())
        try:
            import numpy
        except ImportError:
            pass
        else:
            sys.exit("numpy was imported")
        from newsstyle.cli import main
        for argv in {_matrix_commands(m, tmp_path)[1:3]!r}:
            assert main(argv) == 0, argv
    """)
    proc = run_fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr
    for out in ("cv_ranked.tsv", "cv_preset.tsv"):
        assert (tmp_path / out).read_text().startswith("schema_version=1\n")



def test_input_errors_share_one_base():
    from newsstyle import InputError
    from newsstyle.cli import CliError
    from newsstyle.corpus import CorpusError
    from newsstyle.learn import LearnError
    from newsstyle.lexicon import LexiconFormatError
    from newsstyle.matrix import MatrixFormatError
    from newsstyle.postag import TaggerError

    for error in (CliError, CorpusError):
        assert issubclass(error, InputError)
    for error in (MatrixFormatError, LexiconFormatError, TaggerError, LearnError):
        assert issubclass(error, InputError) and issubclass(error, ValueError)


@pytest.mark.parametrize("error", ["CliError", "CorpusError", "MatrixFormatError",
                                   "MatrixFormatError-not-UTF-8", "LexiconFormatError",
                                   "TaggerError", "LearnError"])
def test_input_error_exit_1_in_a_fresh_process(tmp_path, error):
    # main catches every input error without importing the layer that raises it
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 2, "fake": 2}, seed=3)
    bad = tmp_path / "bad"
    extract = ["extract", "--corpus", str(corpus), "--dataset-id", "1", "--part", "body",
               "--out", str(tmp_path / "b.csv")]
    argv, message = {
        "CliError": (["analyze", "--matrix", str(_small_matrix(tmp_path / "m.csv")),
                      "--alpha", "7", "--out", str(tmp_path / "a")], "--alpha must be in (0, 1)"),
        "CorpusError": (["ingest", "--corpus", str(tmp_path / "none"), "--dataset-id", "1",
                         "--out", str(tmp_path / "i")], "is not a directory"),
        "MatrixFormatError": (["report", "--matrix", str(bad), "--out", str(tmp_path / "r")],
                              f"{bad}: bad header"),
        "MatrixFormatError-not-UTF-8": (
            ["analyze", "--matrix", str(bad), "--out", str(tmp_path / "a")],
            f"{bad}: not UTF-8 (line 1: unexpected end of data)"),
        "LexiconFormatError": (extract + ["--stoplist", str(bad)], f"{bad}: not UTF-8"),
        "TaggerError": (extract + ["--tagger-model", str(bad)], f"{bad}:1: not JSON"),
        "LearnError": (["classify", "--matrix", str(_small_matrix(tmp_path / "m.csv")),
                        "--pair", "fake:real", "--preset", "body4", "--folds", "21",
                        "--out", str(tmp_path / "cv.tsv")],
                       "need at least k=21 samples per class; class 'fake' has 20"),
    }[error]
    bad.write_bytes(b"x\xe9" if "not UTF-8" in message else b"doc,label,part\n")
    proc = run_fresh(["-m", "newsstyle.cli", *argv])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr


def _inf_matrix(path: Path, cells: dict[tuple[int, str], str]) -> Path:
    names = ["NN", "TTR", "WC", "quotes", "exclaim"]
    rows = ["doc_id,label,part," + ",".join(names)]
    for i in range(40):
        label = "satire" if i == 39 else ("real" if i % 2 else "fake")
        values = [str(i % 9 + i % 2), f"0.{i % 7}", str(100 + i), str(i % 3), str(i % 4)]
        for (row, name), value in cells.items():
            if row == i:
                values[names.index(name)] = value
        rows.append(f"d{i},{label},body," + ",".join(values))
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("cells, message", [
    ({(5, "quotes"): "inf", (9, "NN"): "-inf"}, ":7: inf in ['quotes']"),
    ({(9, "NN"): "-inf"}, ":11: inf in ['NN']"),
    ({(3, "quotes"): "inf", (3, "WC"): "-inf"}, ":5: inf in ['WC', 'quotes']"),
])
def test_infinite_cell_in_a_selected_column_exit_1(tmp_path, capsys, cells, message):
    # one inf made a column's training mean infinite, every weight nan and
    # every fold score the 50% baseline
    m = _inf_matrix(tmp_path / "m.csv", cells)
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", "fake:real", "--preset", "body4",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {m}{message}\n"
    assert not out.exists()


def test_infinite_cell_after_a_two_line_doc_id_names_its_line(tmp_path, capsys):
    # the first doc_id spans lines 2 and 3, so the fifth row is on line 7
    m = _inf_matrix(tmp_path / "inf.csv", {(4, "TTR"): "inf"})
    m.write_text(m.read_text().replace("\nd0,", '\n"d\n0",', 1))
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", "fake:real", "--preset", "body4",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {m}:7: inf in ['TTR']\n"
    assert not out.exists()


@pytest.mark.parametrize("cells", [
    {(5, "exclaim"): "inf"},  # not a body4 column
    {(39, "NN"): "-inf"},  # a satire row, outside the pair
])
def test_infinite_cell_outside_the_training_data_exit_0(tmp_path, cells):
    m = _inf_matrix(tmp_path / "m.csv", cells)
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", "fake:real", "--preset", "body4",
                 "--out", str(out)]) == 0
    assert "mean_accuracy=" in out.read_text()


def test_report_gives_an_infinite_cell_an_unbounded_interval(tmp_path):
    # an infinite mean used to give the interval nan bounds
    m = _small_matrix(tmp_path / "m.csv")
    lines = m.read_text().splitlines()
    assert lines[2:4] == ["d1,real,body,2,0.1,101,1", "d2,fake,body,2,0.2,102,2"]
    lines[2:4] = ["d1,real,body,inf,0.1,101,1", "d2,fake,body,2,-inf,102,2"]  # NN, TTR
    m.write_text("\n".join(lines) + "\n")
    assert main(["report", "--matrix", str(m), "--ci-features", "NN,TTR",
                 "--out", str(tmp_path / "r")]) == 0
    ci = (tmp_path / "r" / "ci_plot_data.csv").read_text().splitlines()
    assert "NN,real,20,inf,-inf,inf" in ci
    assert "TTR,fake,20,-inf,-inf,inf" in ci
    assert [line for line in ci if "nan" in line] == []


def test_report_gives_an_overflowing_variance_an_unbounded_interval(tmp_path):
    # the two squared deviations sum to 2.88e308: the variance used to end
    # report in an OverflowError
    m = tmp_path / "m.csv"
    m.write_text("doc_id,label,part,NN\nd1,real,body,-1.2e154\nd2,real,body,1.2e154\n")
    assert main(["report", "--matrix", str(m), "--ci-features", "NN",
                 "--out", str(tmp_path / "r")]) == 0
    ci = (tmp_path / "r" / "ci_plot_data.csv").read_text().splitlines()
    assert ci == ["feature,label,n,mean,ci_lower,ci_upper", "NN,real,2,0,-inf,inf"]


def _title_matrix_with_nnp(tmp_path, value, rows):
    """The title matrix of a seed-3 synthetic corpus, 22 docs per label,
    with the NNP cell of each fake row in ``rows`` (1 is the first) set to
    ``value``."""
    corpus = write_synthetic_corpus(tmp_path / "c", {"real": 22, "fake": 22, "satire": 22},
                                    seed=3)
    title = tmp_path / "title.csv"
    assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2", "--part", "title",
                 "--out", str(title)]) == 0
    lines = title.read_text().splitlines()
    j = lines[0].split(",").index("NNP")
    for i in rows:
        cells = lines[i].split(",")
        if cells[1] == "fake":
            cells[j] = value
            lines[i] = ",".join(cells)
    m = tmp_path / "m.csv"
    m.write_text("\n".join(lines) + "\n")
    return m


def _nnp_test(m, out):
    """The test name and p-value ``analyze`` gives NNP."""
    assert main(["analyze", "--matrix", str(m), "--out", str(out)]) == 0
    row = next(line.split("\t") for line in (out / "ordering.tsv").read_text().splitlines()
               if line.startswith("NNP\t"))
    return row[1], float(row[3])


def _nnp_fake_ci(m, out):
    """The NNP fake line of ``report``'s ci_plot_data.csv."""
    assert main(["report", "--matrix", str(m), "--out", str(out)]) == 0
    ci = (out / "ci_plot_data.csv").read_text().splitlines()
    return next(line for line in ci if line.startswith("NNP,fake,"))


def test_huge_finite_cell_goes_to_a_rank_test(tmp_path):
    # squaring the deviation of a 1e200 cell used to end analyze and report
    # in an OverflowError traceback
    m = _title_matrix_with_nnp(tmp_path, "1e200", [1])
    assert m.read_text().count("1e200") == 1
    test, p = _nnp_test(m, tmp_path / "a")
    assert test == "kruskal" and p < 1e-6
    line = _nnp_fake_ci(m, tmp_path / "r")
    assert line.startswith("NNP,fake,22,") and line.endswith(",-inf,inf")


def test_finite_cells_whose_sum_overflows_have_a_finite_mean(tmp_path):
    # the float sum of 22 cells of 1.7e308 is inf; the mean used to be inf
    # and both confidence bounds nan
    m = _title_matrix_with_nnp(tmp_path, "1.7e308", range(1, 67))
    assert m.read_text().count("1.7e308") == 22
    assert _nnp_test(m, tmp_path / "a")[0] == "kruskal"
    assert _nnp_fake_ci(m, tmp_path / "r") == "NNP,fake,22,1.7e+308,1.7e+308,1.7e+308"


@pytest.mark.parametrize("preset", [["--preset", "body4"], []])
@pytest.mark.parametrize("pair, message", [
    ("fake:satire", "{m}: no rows labelled 'satire' for --pair fake:satire"),
    ("satire:real", "{m}: no rows labelled 'satire' for --pair satire:real"),
    ("fake:fake", "--pair needs two different labels, got 'fake:fake'"),
])
def test_pair_without_two_labelled_groups_exit_1(tmp_path, capsys, monkeypatch, preset,
                                                 pair, message):
    # both used to end in "cross_validate expects a binary task", a ranked
    # run only after the whole ranking
    import newsstyle.stats

    m = _small_matrix(tmp_path / "m.csv")
    monkeypatch.setattr(newsstyle.stats, "normality_test", None)  # no ranking may run
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(m), "--pair", pair, *preset, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(m=m)}\n"
    assert not out.exists()


@pytest.mark.parametrize("pair, message", [
    ("fake-real", "--pair must be label:label from ('real', 'fake', 'satire'), got 'fake-real'"),
    ("fake:bogus", "--pair must be label:label from ('real', 'fake', 'satire'), got 'fake:bogus'"),
    ("real:real", "--pair needs two different labels, got 'real:real'"),
])
def test_bad_pair_reported_before_the_matrix_is_read(tmp_path, capsys, pair, message):
    # the matrix is missing: a --pair typo was reported only after a read,
    # and a missing file hid it
    out = tmp_path / "cv.tsv"
    assert main(["classify", "--matrix", str(tmp_path / "missing.csv"), "--pair", pair,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestClassify:
    def test_cv_artifact(self, pipeline):
        _, out = pipeline
        text = (out / "cv_body.tsv").read_text()
        assert "pair=real:fake" in text
        assert "features=NN,TTR,WC,quotes" in text
        assert "mean_accuracy=" in text
        assert text.count("\n") >= 11 + 5  # header lines + 5 fold rows

    def test_synthetic_classes_learnable(self, pipeline):
        _, out = pipeline
        acc = float(next(l for l in (out / "cv_body.tsv").read_text().splitlines()
                         if l.startswith("mean_accuracy=")).split("=")[1])
        assert acc >= 0.7

    def test_bad_pair_exit_1(self, pipeline, tmp_path):
        _, out = pipeline
        assert main(["classify", "--matrix", str(out / "body.csv"),
                     "--pair", "real:bogus", "--preset", "body4",
                     "--out", str(tmp_path / "x.tsv")]) == 1

    def test_top_k_selection(self, pipeline, tmp_path):
        _, out = pipeline
        dest = tmp_path / "topk.tsv"
        assert main(["classify", "--matrix", str(out / "body.csv"),
                     "--pair", "real:fake", "--top-k", "4",
                     "--out", str(dest)]) == 0
        feats = next(l for l in dest.read_text().splitlines()
                     if l.startswith("features=")).split("=")[1].split(",")
        assert len(feats) == 4

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        _, out = pipeline
        again = tmp_path / "cv2.tsv"
        assert main(["classify", "--matrix", str(out / "body.csv"), "--pair", "real:fake",
                     "--preset", "body4", "--out", str(again)]) == 0
        assert again.read_bytes() == (out / "cv_body.tsv").read_bytes()


class TestReport:
    def test_report_sections(self, pipeline):
        _, out = pipeline
        text = (out / "report" / "report.txt").read_text()
        for section in ("section=inputs", "section=analysis", "section=classification"):
            assert section in text
        assert "input_sha256=" in text

    def test_ci_plot_data(self, pipeline):
        _, out = pipeline
        lines = (out / "report" / "ci_plot_data.csv").read_text().splitlines()
        assert lines[0] == "feature,label,n,mean,ci_lower,ci_upper"
        assert any(l.startswith("all_caps,real,") for l in lines)
        row = next(l for l in lines if l.startswith("NNP,fake,")).split(",")
        assert float(row[4]) <= float(row[3]) <= float(row[5])

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        _, out = pipeline
        again = tmp_path / "rep2"
        assert main(["report", "--matrix", str(out / "body.csv"),
                     "--analysis", str(out / "analysis" / "ordering.tsv"),
                     "--classification", str(out / "cv_body.tsv"),
                     "--out", str(again)]) == 0
        assert (again / "report.txt").read_bytes() == \
            (out / "report" / "report.txt").read_bytes()
