"""
End-to-end pipeline via the command line entry point
====================================================

Builds a tiny three-label corpus on disk, then drives the same five
subcommands a shell user would: ingest, extract, analyze, classify,
report. Every artifact is deterministic, so rerunning the script
reproduces the files byte for byte. They live in a temporary directory
that is removed when the script ends.
"""

import sys
import tempfile
from pathlib import Path

from newsstyle.cli import main

ARTICLES = {
    "real": [
        ("City council approves the transit budget",
         'The council voted on the plan. "We are pleased with the outcome," '
         "the mayor said. The budget includes funding for new routes. "
         "Officials expect work to begin in the spring."),
        ("Report examines regional employment trends",
         "The agency released its annual report. Employment grew in most "
         "sectors. Analysts said the numbers matched earlier forecasts. "
         "The report covers the previous fiscal year."),
    ],
    "fake": [
        ("EXPOSED: Mayor SECRETLY Funneling Transit Money",
         "Sources say the money is GONE. Nobody will tell you this. "
         "Share before it gets taken down!"),
        ("SHOCKING Jobs Report They Tried To HIDE",
         "The real numbers are terrifying. The media is silent. "
         "Wake up before it is too late!"),
    ],
    "satire": [
        ("Area Man Heroically Reads Entire Transit Budget",
         "Local resident Brad Jones reportedly read all 400 pages. "
         "Witnesses describe the feat as pointless but impressive. "
         "Jones plans to read the appendix next week."),
        ("Economy Declared Fine By Man Who Owns Three Boats",
         "The declaration came at a press conference on his largest boat. "
         "Experts were reportedly not consulted. The boats were."),
    ],
}

with tempfile.TemporaryDirectory(prefix="newsstyle_demo_") as tmp:
    root = Path(tmp)
    corpus = root / "corpus"

    for label, articles in ARTICLES.items():
        d = corpus / label
        d.mkdir(parents=True)
        for i, (title, body) in enumerate(articles):
            (d / f"{label}{i}.txt").write_text(f"{title}\n\n{body}\n")

    steps = [
        ["ingest", "--corpus", str(corpus), "--dataset-id", "2",
         "--out", str(root / "ingest")],
        ["extract", "--corpus", str(corpus), "--dataset-id", "2",
         "--part", "body", "--out", str(root / "body.csv")],
        ["analyze", "--matrix", str(root / "body.csv"),
         "--out", str(root / "analysis")],
        ["classify", "--matrix", str(root / "body.csv"), "--pair", "real:fake",
         "--preset", "body4", "--folds", "2", "--out", str(root / "cv.tsv")],
        ["report", "--matrix", str(root / "body.csv"),
         "--analysis", str(root / "analysis" / "ordering.tsv"),
         "--classification", str(root / "cv.tsv"),
         "--out", str(root / "report")],
    ]

    for argv in steps:
        print(f"\n$ newsstyle {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            sys.exit(code)

    print(f"\nartifacts under {root}:")
    for p in sorted(root.rglob("*")):
        if p.is_file():
            print(" ", p.relative_to(root))
