"""Command-line entry point: ingest -> extract -> analyze -> classify ->
report, each emitting deterministic static artifacts.

Exit codes: 0 success, 1 input/structural error, 2 degenerate-statistics
warning escalated by --strict-degenerate.

Each subcommand imports only the layers it runs. All of them load
``corpus``, and all but ``ingest`` load ``matrix``. Only ``extract``
loads the text stack (``textseg``, ``lexicon``, ``postag``) and
``features``; ``analyze``, ``report`` and a ranked ``classify`` load
``stats``; only ``classify`` loads ``learn``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import InputError
from . import corpus as cp

# ``mx`` and ``st`` in an annotation name ``newsstyle.matrix`` and
# ``newsstyle.stats``, which only the subcommands that run them import;
# annotations are never evaluated here

SCHEMA_VERSION = "1"

# named top-4 feature sets for classification
PRESETS = {
    "body4": ("NN", "TTR", "WC", "quotes"),
    "title4": ("per_stop", "NN", "avg_wlen", "FK"),
}


class CliError(InputError):
    pass


def _sha256(path: str | Path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_probability(flag: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise CliError(f"{flag} must be in (0, 1), got {value!r}")


def _check_columns(path: str, matrix: mx.FeatureMatrix, names, flag: str) -> None:
    missing = [n for n in names if n not in matrix.feature_names]
    if missing:
        raise CliError(f"{path}: no column(s) {missing} for {flag}")


def cmd_ingest(args) -> int:
    corpus, load_report = cp.load_corpus(args.corpus, args.dataset_id)
    duplicate_ids, illegal_labels = cp.validate_corpus(corpus)
    counts = {label: 0 for label in cp.LABELS}
    for doc in corpus.documents:
        counts[doc.label] += 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"schema_version={SCHEMA_VERSION}", f"dataset_id={corpus.dataset_id}"]
    lines += [f"{label}={n}" for label, n in counts.items()]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = [f"schema_version={SCHEMA_VERSION}"]
    lines += [f"load_error\t{path}\t{reason}" for path, reason in load_report.errors]
    lines += [f"duplicate_id\t{i}" for i in duplicate_ids]
    lines += [f"illegal_label\t{i}" for i in illegal_labels]
    if not (duplicate_ids or illegal_labels):
        lines.append("validation: clean")
    (out / "validation.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for label, n in counts.items():
        print(f"{label}: {n}")
    if load_report.errors:
        print(f"{len(load_report.errors)} load error(s), listed in {out / 'validation.txt'}",
              file=sys.stderr)
    return 0


def cmd_extract(args) -> int:
    from . import features as ft
    from . import matrix as mx

    corpus, _ = cp.load_corpus(args.corpus, args.dataset_id)
    duplicate_ids, illegal_labels = cp.validate_corpus(corpus)
    if duplicate_ids:
        dup = duplicate_ids[0]
        first, second = [doc.label for doc in corpus.documents if doc.id == dup][:2]
        raise CliError(f"duplicate doc_id {dup!r} (under {first}/ and {second}/): "
                       "matrix rows are keyed by doc_id")
    if illegal_labels:
        legal = "/, ".join(cp.DATASET_LABELS[args.dataset_id])
        raise CliError(f"{len(illegal_labels)} document(s) under a label dataset "
                       f"{args.dataset_id} lacks (it has {legal}/ only): "
                       f"{', '.join(map(repr, illegal_labels[:3]))}"
                       + (", ..." if len(illegal_labels) > 3 else ""))
    resources = ft.Resources.default(args.tagger_model, args.category_lexicon,
                                     args.frequency_table, args.sentiment_lexicon, args.stoplist)

    # unverified/absent titles are skipped, not zeroed
    docs = [doc for doc in corpus.documents if args.part == "body" or doc.title.strip()]
    if not docs:
        raise CliError(f"no documents with a non-empty {args.part}")
    # each row is made as write_matrix asks for it and dropped once written,
    # so no row is kept per document; extract_all's values are in CATALOG
    # order
    rows = (list(ft.extract_all(doc, args.part, resources).values()) for doc in docs)
    n = mx.write_matrix(mx.FeatureMatrix(
        feature_names=mx.CATALOG, doc_ids=[doc.id for doc in docs],
        labels=[doc.label for doc in docs], part=args.part, rows=rows), args.out)
    print(f"wrote {args.out}: {n} rows x {len(mx.CATALOG)} features")
    return 0


def _analyze_matrix(matrix: mx.FeatureMatrix, alpha: float) -> list[st.TestResult]:
    """``compare_feature`` on every column, in column order, its groups in
    ``cp.LABELS`` order."""
    from . import stats as st

    # split the rows by label once and transpose each label's rows, so every
    # group's column is taken once, in matrix row order
    columns = {
        label: list(zip(*[row for row, l in zip(matrix.rows, matrix.labels) if l == label]))
        for label in cp.LABELS if label in matrix.labels
    }
    return [
        st.compare_feature(feature, {label: list(cols[j]) for label, cols in columns.items()}, alpha)
        for j, feature in enumerate(matrix.feature_names)
    ]


def _write_ordering_report(rows: list[st.TestResult], out: Path, part: str, alpha: float,
                           bold_p: float, source_hash: str) -> None:
    """``rows`` in ``st.sorted_rows`` order."""
    lines = [
        f"schema_version={SCHEMA_VERSION}",
        f"part={part}",
        f"alpha={alpha}",
        f"bold_p={bold_p}",
        f"input_sha256={source_hash}",
        "feature\ttest\tstatistic\tp_value\tordering\tsignificant\tbold\tnote",
    ]
    for r in rows:
        if r.test_used == "skipped":
            lines.append(f"{r.feature}\tskipped\t\t\t\t\t\t{r.skipped_reason}")
            continue
        bold = "1" if r.p_value < bold_p else "0"
        note = "degenerate" if r.degenerate else ""
        lines.append(
            f"{r.feature}\t{r.test_used}\t{r.statistic:.6g}\t{r.p_value:.6g}"
            f"\t{r.ordering}\t{int(r.significant)}\t{bold}\t{note}"
        )
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_ordering_table(rows: list[st.TestResult], out: Path, part: str, alpha: float,
                          bold_p: float) -> None:
    """Fixed-width human-readable table of the significant ones of
    ``rows``, which are in ``st.sorted_rows`` order."""
    rows = [r for r in rows if r.test_used != "skipped" and r.significant]
    lines = [f"Features that differ in the {part} (alpha={alpha})", ""]
    lines.append(f"{'Feature':<14}{'Ordering':<28}{'p':<12}{'test':<8}bold")
    for r in rows:
        bold = "*" if r.p_value < bold_p else ""
        lines.append(f"{r.feature:<14}{r.ordering:<28}{r.p_value:<12.4g}{r.test_used:<8}{bold}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_analyze(args) -> int:
    _check_probability("--alpha", args.alpha)
    _check_probability("--bold-p", args.bold_p)
    from . import matrix as mx
    from . import stats as st

    matrix = mx.read_matrix(args.matrix)
    rows = st.sorted_rows(_analyze_matrix(matrix, args.alpha))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source_hash = _sha256(args.matrix)
    _write_ordering_report(rows, out / "ordering.tsv", matrix.part, args.alpha, args.bold_p,
                           source_hash)
    _write_ordering_table(rows, out / "ordering.txt", matrix.part, args.alpha, args.bold_p)
    n_sig = sum(1 for r in rows if r.significant)
    print(f"{n_sig} significant feature(s) at alpha={args.alpha}")
    if args.strict_degenerate and any(r.degenerate for r in rows):
        print("degenerate statistics present", file=sys.stderr)
        return 2
    return 0


def _select_features(matrix: mx.FeatureMatrix, args) -> tuple[str, ...]:
    if args.preset:
        names = PRESETS[args.preset]
        _check_columns(args.matrix, matrix, names, f"--preset {args.preset}")
        return names
    from . import stats as st

    # the first significant rows of analyze's ordering.tsv
    top = st.rank_features(_analyze_matrix(matrix, args.alpha), args.top_k)
    if len(top) < args.top_k:
        print(f"only {len(top)} significant feature(s) available", file=sys.stderr)
    if not top:
        raise CliError("no significant features to classify with")
    return tuple(top)


def cmd_classify(args) -> int:
    _check_probability("--alpha", args.alpha)
    if args.top_k < 1:
        raise CliError(f"--top-k must be >= 1, got {args.top_k}")
    if args.folds < 2:
        raise CliError(f"--folds must be >= 2, got {args.folds}")
    if not 0.0 < args.C < math.inf:
        raise CliError(f"--C must be finite and > 0, got {args.C!r}")
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    pair = tuple(args.pair.split(":"))
    if len(pair) != 2 or not all(p in cp.LABELS for p in pair):
        raise CliError(f"--pair must be label:label from {cp.LABELS}, got {args.pair!r}")
    if pair[0] == pair[1]:
        raise CliError(f"--pair needs two different labels, got {args.pair!r}")
    from . import learn as ln
    from . import matrix as mx

    matrix = mx.read_matrix(args.matrix)
    keep = [i for i, l in enumerate(matrix.labels) if l in pair]
    for label in pair:
        if label not in matrix.labels:
            raise CliError(f"{args.matrix}: no rows labelled {label!r} for --pair {args.pair}")
    names = _select_features(matrix, args)
    cols = [matrix.feature_names.index(n) for n in names]
    X = [[math.nan if matrix.rows[i][j] is None else matrix.rows[i][j] for j in cols]
         for i in keep]
    for i, row in zip(keep, X):
        # one infinite cell makes its column's training mean infinite, and
        # then every weight nan
        infinite = [n for n, v in zip(names, row) if math.isinf(v)]
        if infinite:
            raise CliError(f"{args.matrix}:{matrix.line_numbers[i]}: inf in {infinite}")
    labels = [matrix.labels[i] for i in keep]
    report = ln.cross_validate(X, labels, k=args.folds, C=args.C, seed=args.seed)
    for i, (converged, gap) in enumerate(zip(report.fold_converged, report.fold_gaps)):
        if not converged:
            print(f"fold {i} did not converge to tol within max_epochs "
                  f"(relative duality gap {gap:.3g})", file=sys.stderr)
    lines = [
        f"schema_version={SCHEMA_VERSION}",
        f"part={matrix.part}",
        f"pair={pair[0]}:{pair[1]}",
        f"features={','.join(names)}",
        f"folds={args.folds}",
        f"C={args.C}",
        f"seed={args.seed}",
        f"input_sha256={_sha256(args.matrix)}",
        f"baseline={report.baseline:.6g}",
        f"mean_accuracy={report.mean_accuracy:.6g}",
        "fold\taccuracy",
    ]
    for i, acc in enumerate(report.fold_accuracies):
        lines.append(f"{i}\t{acc:.6g}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"{pair[0]} vs {pair[1]} ({matrix.part}): mean accuracy "
        f"{report.mean_accuracy:.1%} over {report.baseline:.1%} baseline"
    )
    return 0


def cmd_report(args) -> int:
    from . import matrix as mx
    from . import stats as st

    lines = [
        f"schema_version={SCHEMA_VERSION}",
        "section=inputs",
    ]
    for path in [args.matrix, *args.analysis, *args.classification]:
        lines.append(f"input\t{path}\t{_sha256(path)}")
    matrix = mx.read_matrix(args.matrix)
    for section, paths in (("analysis", args.analysis), ("classification", args.classification)):
        lines.append(f"section={section}")
        for path in paths:
            lines += CliError.read_text(path).splitlines()
    ci_features = args.ci_features.split(",")
    _check_columns(args.matrix, matrix, ci_features, "--ci-features")
    repeated = sorted({n for n in ci_features if ci_features.count(n) > 1})
    if repeated:
        raise CliError(f"repeated feature(s) {repeated} in --ci-features")

    ci_lines = ["feature,label,n,mean,ci_lower,ci_upper"]
    labels = [label for label in cp.LABELS if label in matrix.labels]
    for feature in ci_features:
        for label in labels:
            vals = [v for v in matrix.group_column(feature, label) if v is not None]
            if len(vals) < 2:
                continue
            mean, lo, hi = st.confidence_interval(vals)
            ci_lines.append(f"{feature},{label},{len(vals)},{mean:.6g},{lo:.6g},{hi:.6g}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ci_plot_data.csv").write_text("\n".join(ci_lines) + "\n", encoding="utf-8")
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out / 'report.txt'} and {out / 'ci_plot_data.csv'}")
    return 0


def _add_resource_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tagger-model", default=None)
    p.add_argument("--category-lexicon", default=None)
    p.add_argument("--frequency-table", default=None)
    p.add_argument("--sentiment-lexicon", default=None)
    p.add_argument("--stoplist", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsstyle",
        description="Stylometric comparison of fake, real, and satire news",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset-id", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", help="extract the feature matrix for one part")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset-id", type=int, required=True)
    p.add_argument("--part", choices=["title", "body"], required=True)
    p.add_argument("--out", required=True)
    _add_resource_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="run the normality-gated comparison protocol")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bold-p", type=float, default=0.005)
    p.add_argument("--strict-degenerate", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="cross-validate a linear SVM on selected features")
    p.add_argument("--matrix", required=True)
    p.add_argument("--pair", required=True, help="label pair, e.g. fake:real")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="consolidated report plus CI plot data")
    p.add_argument("--matrix", required=True)
    p.add_argument("--analysis", nargs="*", default=[])
    p.add_argument("--classification", nargs="*", default=[])
    p.add_argument("--ci-features", default="all_caps,NNP,per_stop")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
