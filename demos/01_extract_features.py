"""
Feature extraction on a pair of headlines
=========================================

Walks one fake-style and one real-style headline through the full
pipeline: tokenize, tag, chunk, and read off the stylometric features
that separate the two writing styles.
"""

from newsstyle.corpus import Document
from newsstyle.features import Resources, extract_all
from newsstyle.postag import chunk, tag, tree_metrics
from newsstyle.textseg import split_sentences, tokenize

FAKE = "SHOCKING REPORT: Senator Caught Hiding MILLIONS In Offshore Accounts"
REAL = "Senate committee reviews the annual budget proposal for education"

# tokenization pairs each token's record, shared by every token of its
# type, with its character span in the original string
for tok, (start, end) in tokenize(FAKE)[:6]:
    print(f"{tok.text!r:14} kind={tok.kind:12} all_caps={tok.is_all_caps} span={start}-{end}")

# one shared Resources object: tagger model, lexicons, stop list
resources = Resources.default()

for sentence in split_sentences(REAL):
    tagged = tag(sentence, resources.tagger)
    print([f"{tok.text}/{t}" for tok, t in tagged.tokens])
    # the chunker returns flat phrases over token indices, not a tree
    phrases = chunk(tagged)
    for label, start, end, complement in phrases:
        words = " ".join(tok.text for tok, _ in tagged.tokens[start:end])
        print(f"  {label:2} [{words}]  complement={complement or '-'}")
    depth, np_depth, vp_depth, vps = tree_metrics(phrases)
    print(f"  depth={depth} np_depth={np_depth} vp_depth={vp_depth} vps={vps}")

# the headline contrast the toolkit is built around
for name, title in (("fake-style", FAKE), ("real-style", REAL)):
    doc = Document(id=name, source="", label="real", title=title, body="placeholder.")
    values = extract_all(doc, "title", resources)
    print(f"\n{name}: {title}")
    for feature in ("WC", "all_caps", "NNP", "per_stop", "avg_wlen", "FK"):
        print(f"  {feature:10} = {values[feature]}")
