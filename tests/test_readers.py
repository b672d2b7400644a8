"""Every input file is read one way: ``newsstyle.decode`` (UTF-8 after an
optional byte-order mark, which is dropped) and, in the line formats,
``InputError.entries`` (text after ``#`` is a comment, blank lines are
skipped). Each reader is checked on the same three cases."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from build_tagger_model import load_closed_class, load_pretagged
from newsstyle import InputError, decode
from newsstyle.lexicon import (
    load_category_lexicon,
    load_frequency_table,
    load_sentiment_lexicon,
    load_stopwords,
)
from newsstyle.matrix import read_matrix
from newsstyle.postag import TaggerModel
from newsstyle.textseg import load_abbreviations

BOM = "﻿".encode("utf-8")

_MODEL = {"format": "newsstyle-tagger", "tagset": ["NN", "DT"],
          "weights": {"bias": {"NN": 1.0, "DT": -1}, "p1=DT": {"NN": 2.0}},
          "lexical_backoff": {"the": "DT"}, "version": "1", "vocab": ["dog"]}

# reader, a small valid file of three lines or more, and whether it is a
# line format (one entry per line, # comments)
READERS = {
    "category lexicon": (load_category_lexicon, "%negate\nno\nnever*\n%other\nyes\n", True),
    "frequency table": (load_frequency_table, "the\t50\nof\t20.5\nzebra\t0.1\n", True),
    "sentiment lexicon": (load_sentiment_lexicon,
                          "good\t3\nbad*\t-4\n%boosters\nvery\t1\n%negators\nnot\n", True),
    "stop list": (load_stopwords, "the\nof\nand\n", True),
    "abbreviations": (load_abbreviations, "mr.\ndr.\netc.\n", True),
    "tagger model": (TaggerModel.load, json.dumps(_MODEL, indent=1) + "\n", False),
    "matrix": (read_matrix, "doc_id,label,part,WC,TTR\nd1,real,body,3,0.5\n"
                            "d2,fake,body,4,NA\nd3,fake,body,5,0.25\n", False),
    "pretagged corpus (tool)": (load_pretagged, "the\tDT\ndog\tNN\nran\tVBD\n\nit\tPRP\n",
                                False),
    "closed-class list (tool)": (load_closed_class, "the\tDT\nof\tIN\nand\tCC\n", True),
}
LINE_FORMATS = [name for name, (_, _, line_format) in READERS.items() if line_format]


def _load(tmp_path, name, data: bytes):
    reader = READERS[name][0]
    path = tmp_path / "input"
    path.write_bytes(data)
    return reader(path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_marked_file_reads_like_the_unmarked_one(tmp_path, name):
    # a leading mark used to open the first entry ('﻿the'), drop it
    # or fail the file with a misleading message
    data = READERS[name][1].encode("utf-8")
    assert _load(tmp_path, name, BOM + data) == _load(tmp_path, name, data)


@pytest.mark.parametrize("name", sorted(READERS))
def test_bad_byte_after_a_mark_reports_its_line(tmp_path, name):
    first, second, rest = READERS[name][1].encode("utf-8").split(b"\n", 2)
    data = BOM + first + b"\n" + second + b"\n\xff" + rest
    with pytest.raises(InputError, match=r"input: not UTF-8 \(line 3: invalid start byte\)"):
        _load(tmp_path, name, data)


@pytest.mark.parametrize("name", LINE_FORMATS)
def test_text_after_a_hash_is_a_comment(tmp_path, name):
    text = READERS[name][1]
    noted = "# a leading note\n\n" + text.replace("\n", "  # a note\n")
    assert _load(tmp_path, name, noted.encode("utf-8")) == \
        _load(tmp_path, name, text.encode("utf-8"))


@pytest.mark.parametrize("name", sorted(READERS))
def test_bad_byte_after_carriage_returns_reports_its_line(tmp_path, name):
    # a bad byte's line is counted as entries counts lines, where \r alone
    # ends a line too
    first, second, rest = READERS[name][1].encode("utf-8").split(b"\n", 2)
    data = first + b"\r" + second + b"\r\xff" + rest.replace(b"\n", b"\r")
    with pytest.raises(InputError, match=r"input: not UTF-8 \(line 3: invalid start byte\)"):
        _load(tmp_path, name, data)


# pieces that meet every branch of the codec: a full mark, a partial and a
# doubled one, marks past the start, bytes that are not UTF-8 (a bad start
# byte, a truncated sequence, a surrogate, an overlong form) and each newline
_PIECES = [b"\xef\xbb\xbf", b"\xef\xbb", b"\xef", b"\xbb\xbf", b"\xef\xbb\xbf\xef\xbb\xbf",
           b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xc3\xa9", b"\xe2\x80\xa8",
           b"\r\n", b"\r", b"\n", b"a", b" "]


def _codec_decode(data: bytes) -> str:
    """decode's reference: the utf-8-sig codec, then the newline rule."""
    return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")


def _outcome(fn, data: bytes):
    try:
        return fn(data)
    except UnicodeDecodeError as e:
        return (str(e), e.encoding, e.reason, e.start, e.end, e.object)


@settings(max_examples=1000, deadline=None)
@given(hs.lists(hs.sampled_from(_PIECES) | hs.binary(max_size=3), max_size=8))
def test_decode_matches_the_utf8_sig_codec(pieces):
    # the same text, or the same error: message, reason, span and the bytes
    # after the mark, from which InputError.read_text counts its line
    data = b"".join(pieces)
    assert _outcome(decode, data) == _outcome(_codec_decode, data)
