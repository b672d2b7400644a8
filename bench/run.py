"""Seeded end-to-end benchmark of the newsstyle pipeline.

Run one workload:

    python3 bench/run.py --workload corpus-narrow --seed 1 --seconds 20 --trace 0

generates the workload's inputs from the seed, runs the ``newsstyle``
subcommand chain on them for about ``--seconds`` (at least twice untraced,
once traced), checks every artifact, and prints each metric with its unit. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` every
subcommand runs in a fresh Python process, as ``python -m newsstyle.cli``
would run it, and the metrics are the end-to-end ones of BENCHMARK.json,
in reference seconds (see calibrate.py); with ``--trace 1`` the chain
runs in this process through ``newsstyle.cli.main`` with span wrappers
(spans.py) and the metrics are the per-layer ones. A record of each run,
with input and artifact hashes, goes to ``.bench_results/``.

Compare two sets of records (each a directory of run records):

    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from calibrate import CAL_REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

STEP_TIMEOUT_S = 150
SETUP_SAMPLES = 3          # fresh-process set-up timings per chain
FOLDS = 5                  # classify's default --folds

# Each timed process times the calibration task (calibrate.py) just before
# and after its work, on the same core, and reports all three figures.
SETUP_CODE = """
import time
from calibrate import calibrate
before = calibrate()
start = time.perf_counter()
import newsstyle.cli
from newsstyle.features import Resources
Resources.default()
elapsed = time.perf_counter() - start
print(elapsed, before, calibrate())
"""

# python -c STEP_CODE TIMING_FILE SUBCOMMAND ARGS...: newsstyle.cli as
# ``python -m newsstyle.cli`` runs it, plus the calibration around it
STEP_CODE = """
import sys, time
from calibrate import calibrate
before = calibrate()
start = time.perf_counter()
try:
    from newsstyle.cli import main
    code = main(sys.argv[2:])
finally:
    elapsed = time.perf_counter() - start
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{elapsed!r} {before!r} {calibrate()!r}")
sys.exit(code)
"""

WORKLOADS = ("corpus-narrow", "corpus-broad", "matrix-large")  # why: see BENCHMARK.json


# ---------------------------------------------------------------------------
# workload plans

@dataclass
class Plan:
    """The generated inputs of one workload and the chain to run on them."""
    workload: str
    corpus: wl.Corpus
    steps: list[tuple[str, list[str]]]
    inputs_sha256: dict[str, str]
    cv_files: list[str]
    optional_spans: tuple[str, ...]   # wrapped functions it may not reach


TEXT_STEPS = [
    ("ingest", ["ingest", "--corpus", "corpus", "--dataset-id", "2", "--out", "out/ingest"]),
    ("extract_body", ["extract", "--corpus", "corpus", "--dataset-id", "2",
                      "--part", "body", "--out", "out/body.csv"]),
    ("extract_title", ["extract", "--corpus", "corpus", "--dataset-id", "2",
                       "--part", "title", "--out", "out/title.csv"]),
]


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    counts = {label: 300 for label in wl.LABELS}
    if workload == "corpus-narrow":
        corpus = wl.write_narrow_corpus(work / "corpus", counts, seed)
    elif workload == "corpus-broad":
        corpus = wl.write_broad_corpus(work / "corpus", seed)
    else:
        # a 60-document probe keeps the corpus metrics defined on this
        # workload; its text work is a small share of the chain
        corpus = wl.write_narrow_corpus(work / "corpus", {label: 20 for label in wl.LABELS}, seed)
    inputs = {"corpus": wl.tree_sha256(work / "corpus")}
    steps = list(TEXT_STEPS)
    if workload == "matrix-large":
        wl.write_feature_matrix(work / "matrix.csv", seed)
        inputs["matrix.csv"] = hashlib.sha256((work / "matrix.csv").read_bytes()).hexdigest()
        matrix = "matrix.csv"
        # --C 10: weak regularisation on overlapping classes, so every fold
        # runs dual coordinate descent to max_epochs and the SVM's work does
        # not swing with the seed
        cv = {"out/cv_ranked.tsv": ["--pair", "fake:real", "--C", "10"],
              "out/cv_body4.tsv": ["--pair", "fake:real", "--preset", "body4", "--C", "10"]}
        optional: tuple[str, ...] = ()
    else:
        matrix = "out/body.csv"
        # --C 0.001: the SVM is not under test here; at the default C its
        # epoch count on this separable data swings 2-3x between seeds
        cv = {"out/cv_body4.tsv": ["--pair", "fake:real", "--preset", "body4", "--C", "0.001"]}
        optional = ("stats.anova_oneway",)   # reached only if a feature is normal in every group
    steps.append(("analyze", ["analyze", "--matrix", matrix, "--out", "out/analysis"]))
    for out, flags in cv.items():
        steps.append(("classify", ["classify", "--matrix", matrix, *flags, "--out", out]))
    steps.append(("report", ["report", "--matrix", matrix, "--analysis", "out/analysis/ordering.tsv",
                             "--classification", *cv, "--out", "out/report"]))
    return Plan(workload, corpus, steps, inputs, list(cv), optional)


# ---------------------------------------------------------------------------
# correctness

class Checks:
    """Counts operations attempted and failed; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines() if path.is_file() else []


def _check_matrix(checks: Checks, path: Path, expected: list[str], labels: dict[str, str],
                  part: str) -> None:
    lines = _read_lines(path)
    header = ["doc_id", "label", "part", *wl.CATALOG]
    checks.check(bool(lines) and lines[0].split(",") == header, f"{path.name}: header is not the catalog")
    rows = {}
    for line in lines[1:]:
        doc_id, label, row_part = (line.split(",") + ["", ""])[:3]
        rows[doc_id] = (label, row_part)
    for doc_id in expected:
        checks.check(rows.get(doc_id) == (labels[doc_id], part), f"{path.name}: no row for {doc_id}")
    checks.check(len(rows) == len(expected) == len(lines) - 1,
                 f"{path.name}: {len(lines) - 1} rows, expected {len(expected)}")


def check_artifacts(plan: Plan, work: Path, checks: Checks) -> None:
    out = work / "out"
    corpus = plan.corpus
    manifest = _read_lines(out / "ingest" / "manifest.txt")
    for label in wl.LABELS:
        n = sum(1 for l in corpus.labels.values() if l == label)
        checks.check(f"{label}={n}" in manifest, f"manifest: {label} count is not {n}")
    errors = sorted(line.split("\t")[1] for line in _read_lines(out / "ingest" / "validation.txt")
                    if line.startswith("load_error\t"))
    checks.check(errors == corpus.malformed, f"validation: load errors {errors} != {corpus.malformed}")
    _check_matrix(checks, out / "body.csv", corpus.doc_ids, corpus.labels, "body")
    _check_matrix(checks, out / "title.csv", corpus.titled, corpus.labels, "title")
    ordering = _read_lines(out / "analysis" / "ordering.tsv")
    header = "feature\ttest\tstatistic\tp_value\tordering\tsignificant\tbold\tnote"
    features = ordering[ordering.index(header) + 1:] if header in ordering else []
    checks.check(sorted(line.split("\t")[0] for line in features) == sorted(wl.CATALOG),
                 f"ordering.tsv: {len(features)} feature rows, expected one per catalog feature")
    for name in plan.cv_files:
        lines = _read_lines(work / name)
        folds = lines[lines.index("fold\taccuracy") + 1:] if "fold\taccuracy" in lines else []
        checks.check(f"folds={FOLDS}" in lines and [l.split("\t")[0] for l in folds]
                     == [str(i) for i in range(FOLDS)], f"{name}: not one row per fold")
    for name in ("report.txt", "ci_plot_data.csv"):
        checks.check(bool(_read_lines(out / "report" / name)), f"report/{name} missing or empty")


def artifact_hashes(work: Path) -> dict[str, str]:
    out = work / "out"
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_same(checks: Checks, first: dict[str, str], again: dict[str, str]) -> None:
    for name in sorted(set(first) | set(again)):
        checks.check(first.get(name) == again.get(name), f"{name}: artifact differs between chains")


# ---------------------------------------------------------------------------
# untraced run: one fresh process per subcommand

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    return env


def _scaled(elapsed: float, before: float, after: float) -> float:
    """Seconds at the reference host speed."""
    return elapsed * CAL_REFERENCE_S * 2 / (before + after)


def run_step(argv: list[str], work: Path, env: dict[str, str]) -> tuple[int, float, float, float]:
    """Exit code, scaled and raw seconds of one subcommand in a fresh
    process, and the peak RSS (MiB) of that process and any it waited for."""
    timing = work / "timing.txt"
    timing.unlink(missing_ok=True)
    with open(work / "stderr.txt", "ab") as err:
        proc = subprocess.Popen([sys.executable, "-c", STEP_CODE, str(timing), *argv], cwd=work,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        elapsed, before, after = map(float, timing.read_text().split())
    except (OSError, ValueError):
        return proc.returncode or -1, 0.0, 0.0, 0.0
    return proc.returncode, _scaled(elapsed, before, after), elapsed, usage.ru_maxrss / 1024.0


def setup_sample(env: dict[str, str]) -> tuple[float, float]:
    """Scaled and raw seconds, measured inside a fresh process, to import
    newsstyle.cli and build the default resources."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    elapsed, before, after = map(float, proc.stdout.split())
    return _scaled(elapsed, before, after), elapsed


def chain_untraced(plan: Plan, work: Path, env: dict[str, str], checks: Checks,
                   samples: dict[str, list[float]], raw: dict[str, list[float]]) -> float:
    """One chain of fresh processes. Appends one scaled and one raw sample
    per stage (consecutive steps of a stage summed) and for the whole chain
    to ``samples`` and ``raw``; returns the peak RSS (MiB)."""
    _reset_out(work)
    chain = {"pipeline_s": 0.0}
    chain_raw = {"pipeline_s": 0.0}
    rss = 0.0
    for stage, argv in plan.steps:
        code, seconds, wall, peak = run_step(argv, work, env)
        checks.check(code == 0, f"{argv[0]} ({stage}) exited {code}")
        for acc, value in ((chain, seconds), (chain_raw, wall)):
            acc[stage] = acc.get(stage, 0.0) + value
            acc["pipeline_s"] += value
        if stage.startswith(("extract", "classify")):
            rss = max(rss, peak)
    for acc, out in ((chain, samples), (chain_raw, raw)):
        for stage, value in acc.items():
            out.setdefault(stage, []).append(value)
    return rss


def _reset_out(work: Path) -> None:
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()


# ---------------------------------------------------------------------------
# traced run: the same chain in this process

def chain_in_process(plan: Plan, work: Path, checks: Checks, tracer=None) -> float:
    """Run the chain through newsstyle.cli.main; returns wall seconds."""
    from newsstyle import cli

    _reset_out(work)
    total = 0.0
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for stage, argv in plan.steps:
            sink = io.StringIO()
            span = tracer.begin(f"cli.{argv[0]}") if tracer else None
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            total += time.perf_counter() - start
            if tracer:
                tracer.end(span)
            checks.check(code == 0, f"{argv[0]} ({stage}) returned {code}: {sink.getvalue()[-300:]}")
    finally:
        os.chdir(cwd)
    return total


def run_traced(plan: Plan, work: Path, seconds: float, checks: Checks) -> tuple[dict, dict]:
    import spans

    sys.path.insert(0, str(SRC))
    import newsstyle.cli  # noqa: F401  (loads every layer module)
    from newsstyle.features import Resources

    Resources.default()  # load the cached tagger model before any chain is timed

    per_chain: list[dict[str, float]] = []
    untraced: list[float] = []
    first_hashes: dict[str, str] | None = None
    start = time.perf_counter()
    while not per_chain or _another(start, len(per_chain), seconds):
        untraced.append(chain_in_process(plan, work, checks))
        check_artifacts(plan, work, checks)
        hashes = artifact_hashes(work)
        first_hashes = first_hashes or hashes
        check_same(checks, first_hashes, hashes)

        tracer = spans.Tracer()
        tracer.install()
        try:
            chain_in_process(plan, work, checks, tracer)
        finally:
            tracer.uninstall()
        check_artifacts(plan, work, checks)
        check_same(checks, first_hashes, artifact_hashes(work))
        missing = spans.zero_call_functions(tracer, plan.optional_spans)
        for name in missing:
            print(f"ERROR: traced function {name} recorded no calls on {plan.workload}",
                  file=sys.stderr)
        checks.check(not missing, f"no spans recorded for {missing}")
        per_chain.append(spans.layer_metrics(tracer))
    metrics = {k: statistics.median(m[k] for m in per_chain) for k in per_chain[0]}
    metrics["trace.untraced_pipeline_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - metrics["trace.untraced_pipeline_s"]
    return metrics, first_hashes or {}


# ---------------------------------------------------------------------------

def _another(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, as long as the mean so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args) -> int:
    if not (SRC / "newsstyle" / "cli.py").is_file():
        print(f"error: no newsstyle package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(args, work: Path) -> int:
    units = {m["name"]: m["unit"] for m in _spec()["per_layer" if args.trace else "end_to_end"]}
    checks = Checks()
    plan = make_plan(args.workload, args.seed, work)
    if args.workload == "corpus-narrow" and args.seed == 1:
        checks.check(plan.inputs_sha256["corpus"] == NARROW_SEED1_SHA256,
                     "corpus-narrow at seed 1 differs from the pinned ROADMAP baseline corpus")
    env = _child_env()

    if args.trace:
        metrics, hashes = run_traced(plan, work, args.seconds, checks)
        record_samples: dict = {}
        chains = "traced in-process"
    else:
        setup_sample(env)  # warm-up: byte-compiles the package in a fresh checkout
        samples: dict[str, list[float]] = {"setup_s": []}
        raw: dict[str, list[float]] = {"setup_s": []}
        rss = 0.0
        hashes = {}
        start = time.perf_counter()
        while len(samples.get("pipeline_s", [])) < 2 or _another(
                start, len(samples["pipeline_s"]), args.seconds):
            for _ in range(SETUP_SAMPLES):
                seconds, wall = setup_sample(env)
                samples["setup_s"].append(seconds)
                raw["setup_s"].append(wall)
            rss = max(rss, chain_untraced(plan, work, env, checks, samples, raw))
            check_artifacts(plan, work, checks)
            again = artifact_hashes(work)
            hashes = hashes or again
            check_same(checks, hashes, again)
        best = {stage: statistics.median(v) for stage, v in samples.items()}
        corpus = plan.corpus
        metrics = {
            "setup_s": best["setup_s"],
            "pipeline_s": best["pipeline_s"],
            "ingest_docs_per_s": corpus.files / best["ingest"],
            "body_tokens_per_s": corpus.body_tokens / best["extract_body"],
            "title_docs_per_s": len(corpus.titled) / best["extract_title"],
            "analyze_s": best["analyze"],
            "classify_s": best["classify"],
            "peak_rss_mb": rss,
        }
        record_samples = {"scaled": samples, "raw_wall": raw}
        chains = f"{len(samples['pipeline_s'])} chains"
    metrics = {name: metrics[name] for name in units}

    failed = len(checks.failures)
    error_rate = failed / checks.attempted
    for message in checks.failures[:20]:
        print(f"FAIL: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{chains}")
    for name, sha in plan.inputs_sha256.items():
        print(f"input {name} sha256 {sha}")
    for name, sha in hashes.items():
        print(f"artifact {name} sha256 {sha}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {error_rate:.6g} ({failed} of {checks.attempted} operations failed)")
    print(f"correct = {not failed}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": plan.inputs_sha256, "artifacts_sha256": hashes,
        "samples": record_samples, "metrics": metrics, "attempted": checks.attempted,
        "failed": failed, "failures": checks.failures,
    }
    out = RESULTS / args.workload
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": not failed, "attempted": checks.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failed else 1


# Input hash of corpus-narrow at seed 1 (300 documents per label): the
# corpus tests/conftest.py::write_synthetic_corpus wrote when the benchmark
# was added, and the corpus behind the ROADMAP baseline.
NARROW_SEED1_SHA256 = "7263a0d91456cac35f017febef202fe1b82c3633a5cf2c0dd9dfef3804538264"


# ---------------------------------------------------------------------------
# compare mode

def _load_records(directory: str) -> dict[str, list[dict]]:
    """Untraced, fully correct run records by workload, oldest first."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("*.json"), key=lambda p: p.stat().st_mtime):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0 and not rec.get("failed"):
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    """Runs of the same seed on both sides, paired in order."""
    pairs = []
    for seed in sorted({r["seed"] for r in parent} & {r["seed"] for r in change}):
        p = [r["metrics"][name] for r in parent if r["seed"] == seed]
        c = [r["metrics"][name] for r in change if r["seed"] == seed]
        pairs += zip(p, c)
    return pairs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float) -> tuple[str, float]:
    """improved / no worse / worse / unresolved, and the share of pairs won."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p)) / len(pairs) if pairs else 0.0
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    worse_by = (cmed - pmed) / pmed if lower_better else (pmed - cmed) / pmed
    all_better = all(better(c, p) for c in change for p in parent)
    if pairs and wins >= 0.9 and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        return "improved", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    return "no worse", wins


def compare(parent_dir: str, change_dir: str) -> int:
    spec = _spec()
    parent, change = _load_records(parent_dir), _load_records(change_dir)
    print("workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tpairs won\tverdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name] for r in p_runs]
            cv = [r["metrics"][name] for r in c_runs]
            pairs = _pairs(p_runs, c_runs, name)
            result, wins = verdict(pv, cv, pairs, m["better"] == "lower", m["bound"])
            pq, cq = _quartiles(pv), _quartiles(cv)
            print(f"{workload}\t{name}\t{m['unit']}\t{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                  f"\t{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]\t{wins:.0%} of {len(pairs)}\t{result}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
