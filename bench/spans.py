"""In-process span tracing for the per-layer run.

Wrappers are installed around public functions of the newsstyle layers
and removed afterwards; the package itself is not modified. Every module
attribute that refers to a wrapped function is patched, including names
bound by ``from .x import f``, so calls that cross module boundaries are
seen too. Spans stay in memory until the run ends.

Per-word helpers (``count_syllables``, ``is_complex_word``, ``Token.lower``)
are not wrapped: at ~10^5 calls per chain the wrapper would cost more than
the work it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

WRAPPED = {
    "textseg": ("tokenize", "split_sentences"),
    "corpus": ("load_corpus", "validate_corpus"),
    "postag": ("tag", "chunk", "tree_metrics"),
    "lexicon": ("match_categories", "sentiment_strength", "fluency_doc", "fluency_least3"),
    "features": ("extract_all", "write_matrix", "read_matrix"),
    "stats": ("compare_feature", "normality_test", "anova_oneway", "ranksum", "kruskal_wallis"),
    "learn": ("cross_validate", "train_svm"),
}

SUBCOMMANDS = ("ingest", "extract", "analyze", "classify", "report")


class Tracer:
    """Spans as [name, start, end, parent index]; counters by name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.word_types: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED, wherever newsstyle binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "newsstyle" or n.startswith("newsstyle.")]
        for mod_name, funcs in WRAPPED.items():
            module = sys.modules[f"newsstyle.{mod_name}"]
            for fn_name in funcs:
                original = getattr(module, fn_name)
                wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total seconds, self seconds, calls."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return total, self_s, calls

    def top_level(self, modules: tuple[str, ...]) -> float:
        """Seconds covered by spans of these modules, nested ones once."""
        covered = 0.0
        for name, start, end, parent in self.spans:
            if name.split(".")[0] in modules and (
                    parent < 0 or self.spans[parent][0].split(".")[0] not in modules):
                covered += end - start
        return covered


# -- counter hooks: they run after the span closes, so their cost lands in the
# caller's self time and in the tracing overhead, not in the wrapped layer ----

def _after_tokenize(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["textseg.tokens"] += len(result)


def _after_load(tr: Tracer, args, kwargs, result) -> None:
    corpus, report = result
    tr.counters["corpus.docs_loaded"] += len(corpus.documents)
    tr.counters["corpus.docs_skipped"] += len(report.errors)


def _after_split(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["textseg.sentences"] += len(result)
    if tr.inside("features.extract_all"):
        tr.counters["features.extract_all.sentences"] += len(result)
        for sent in result:
            for tok in sent.tokens:
                if tok.kind == "word":
                    tr.counters["lexicon.word_tokens"] += 1
                    tr.word_types.add(tok.lower)


def _after_tag(tr: Tracer, args, kwargs, result) -> None:
    vocab = args[1].vocab
    for tok, _ in result.tokens:
        if tok.kind == "word":
            tr.counters["postag.word_tokens"] += 1
            if tok.lower not in vocab:
                tr.counters["postag.unknown_words"] += 1


def _after_extract(tr: Tracer, args, kwargs, result) -> None:
    doc, part = args[0], args[1]
    if (doc.title if part == "title" else doc.body).strip():
        tr.counters["features.extract_all.parts"] += 1


def _after_compare(tr: Tracer, args, kwargs, result) -> None:
    tr.counters[f"stats.tests.{result.test_used}"] += 1


def _after_train(tr: Tracer, args, kwargs, result) -> None:
    epochs = len(result.dual_objective_history)
    tr.counters["learn.epochs"] += epochs
    if epochs >= kwargs.get("max_epochs", 1000):
        tr.counters["learn.unconverged_folds"] += 1


_HOOKS = {
    "textseg.tokenize": _after_tokenize,
    "textseg.split_sentences": _after_split,
    "corpus.load_corpus": _after_load,
    "postag.tag": _after_tag,
    "features.extract_all": _after_extract,
    "stats.compare_feature": _after_compare,
    "learn.train_svm": _after_train,
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced chain (see README.md)."""
    total, self_s, calls = tr.totals()
    c = tr.counters
    pipeline = sum(total[f"cli.{s}"] for s in SUBCOMMANDS)
    words = c["lexicon.word_tokens"]
    m = {
        "textseg.tokenize.s": total["textseg.tokenize"],
        "textseg.split_sentences.s": total["textseg.split_sentences"],
        "textseg.tokens": c["textseg.tokens"],
        "textseg.sentences": c["textseg.sentences"],
        "corpus.load_corpus.s": total["corpus.load_corpus"],
        "corpus.validate_corpus.s": total["corpus.validate_corpus"],
        "corpus.docs_loaded": c["corpus.docs_loaded"],
        "corpus.docs_skipped": c["corpus.docs_skipped"],
        "postag.tag.s": total["postag.tag"],
        "postag.chunk.s": total["postag.chunk"],
        "postag.tree_metrics.s": total["postag.tree_metrics"],
        "postag.tree_metrics.calls": calls["postag.tree_metrics"],
        "postag.unknown_word_share": c["postag.unknown_words"] / max(1, c["postag.word_tokens"]),
        "lexicon.match_categories.s": total["lexicon.match_categories"],
        "lexicon.match_categories.calls": calls["lexicon.match_categories"],
        "lexicon.sentiment_strength.s": total["lexicon.sentiment_strength"],
        "lexicon.fluency.s": total["lexicon.fluency_doc"] + total["lexicon.fluency_least3"],
        "lexicon.word_types": len(tr.word_types),
        "lexicon.repeat_share": 1.0 - len(tr.word_types) / words if words else 0.0,
        "features.extract_all.s": total["features.extract_all"],
        "features.extract_all.self_s": self_s["features.extract_all"],
        "features.extract_all.calls": calls["features.extract_all"],
        "features.extract_all.parts": c["features.extract_all.parts"],
        "features.extract_all.sentences": c["features.extract_all.sentences"],
        "features.write_matrix.s": total["features.write_matrix"],
        "features.read_matrix.s": total["features.read_matrix"],
        "stats.compare_feature.s": total["stats.compare_feature"],
        "stats.compare_feature.calls": calls["stats.compare_feature"],
        "stats.normality_test.s": total["stats.normality_test"],
        "stats.anova_oneway.s": total["stats.anova_oneway"],
        "stats.rank_tests.s": total["stats.ranksum"] + total["stats.kruskal_wallis"],
        "stats.tests.anova": c["stats.tests.anova"],
        "stats.tests.ranksum": c["stats.tests.ranksum"],
        "stats.tests.kruskal": c["stats.tests.kruskal"],
        "stats.tests.skipped": c["stats.tests.skipped"],
        "learn.cross_validate.s": total["learn.cross_validate"],
        "learn.cross_validate.self_s": self_s["learn.cross_validate"],
        "learn.train_svm.s": total["learn.train_svm"],
        "learn.train_svm.calls": calls["learn.train_svm"],
        "learn.epochs": c["learn.epochs"],
        "learn.unconverged_folds": c["learn.unconverged_folds"],
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = self_s[f"cli.{sub}"]
    m["trace.pipeline_s"] = pipeline
    m["trace.extract_share"] = total["features.extract_all"] / pipeline
    m["trace.stats_learn_share"] = tr.top_level(("stats", "learn")) / pipeline
    return m


def zero_call_functions(tr: Tracer, optional: tuple[str, ...]) -> list[str]:
    """Wrapped functions that no span recorded, except the optional ones."""
    _, _, calls = tr.totals()
    names = [f"{m}.{f}" for m, funcs in WRAPPED.items() for f in funcs]
    return [n for n in names if calls[n] == 0 and n not in optional]
