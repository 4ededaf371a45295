import io
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rleacs import rle
from rleacs.engine import acs, dist
from rleacs.oracle import brute_acs
from rleacs.rle import (
    FIRST_SYMBOL_ID,
    MAX_DECODED_LENGTH,
    MAX_SYMBOL_ID,
    ParseError,
    RleSeq,
    build_text_sequences,
    decode,
    encode,
    parse_fasta,
    parse_rle_text,
    read_fasta_records,
    read_rle_records,
    read_text_record,
)


def test_encode_groups_maximal_runs():
    seq = encode("aabbbc")
    assert seq.runs.dtype == np.int64 and seq.runs.shape == (3, 2)
    assert seq.runs.tolist() == [
        [ord("a") + FIRST_SYMBOL_ID, 2],
        [ord("b") + FIRST_SYMBOL_ID, 3],
        [ord("c") + FIRST_SYMBOL_ID, 1],
    ]


def test_lengths_count_the_runs_only():
    seq = encode("aabbbc")
    assert seq.content_length == 6
    assert seq.run_count == 3
    assert len(seq.runs) == 3
    for gone in ("decoded_length", "sentinel"):
        assert not hasattr(seq, gone)


def test_alphabet_ids_follow_character_order():
    # a character's id is its codepoint plus FIRST_SYMBOL_ID, whatever else
    # is encoded, so ids order as characters do up to the last codepoint
    text = "cab\x00\ud800\U0010ffff"
    assert encode(text).runs[:, 0].tolist() == [ord(ch) + FIRST_SYMBOL_ID for ch in text]
    assert encode("\U0010ffff").runs[:, 0].tolist() == [MAX_SYMBOL_ID]


def test_empty_text_rejected():
    with pytest.raises(ValueError, match="empty sequence"):
        encode("")


def test_terminator_codepoints_are_ordinary_symbols():
    # \x00 and \x01 get ids from FIRST_SYMBOL_ID up like any character, so
    # they never meet the terminators the suffix order appends
    x = "\x00\x00a\x01\x01\x01a\x00"
    y = "a\x01\x00\x00a\x01"
    seqs, symbols = parse_fasta(io.StringIO(f">x\n{x}\n>y\n{y}\n"))
    assert symbols == "\x00\x01a"
    assert seqs[0].runs[0, 0] == FIRST_SYMBOL_ID
    assert [decode(seq) for seq in seqs] == [x, y]
    assert encode(x).runs.tolist() == seqs[0].runs.tolist()
    assert acs(seqs[0], seqs[1]).value == brute_acs(x, y)
    assert acs(seqs[1], seqs[0]).value == brute_acs(y, x)
    result = dist(seqs[0], seqs[1])
    assert (result.acs_xy, result.acs_yx) == (brute_acs(x, y), brute_acs(y, x))


def test_separately_encoded_sequences_compare():
    # no state is shared between the two encodes, and none is needed
    assert acs(encode("abb", "x"), encode("bb", "y")).value == 1 == brute_acs("abb", "bb")
    assert acs(encode("bb", "y"), encode("abb", "x")).value == brute_acs("bb", "abb")


# ASCII letters and three characters past them, the last codepoint included
_TRAP_CHARS = st.sampled_from([*"abAZ", "é", "😀", "\U0010ffff"])
_TRAP_TEXT = st.text(alphabet=_TRAP_CHARS, min_size=1, max_size=30)


@given(_TRAP_TEXT, _TRAP_TEXT)
@example("\U0010ffffa", "\U0010ffff😀\U0010ffff")
def test_separately_encoded_texts_match_brute(x, y):
    first, second = encode(x, "x"), encode(y, "y")
    assert acs(first, second).value == brute_acs(x, y)
    assert acs(second, first).value == brute_acs(y, x)


def test_invalid_run_sequences_rejected():
    with pytest.raises(ValueError, match="empty sequence"):
        RleSeq("s", np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="length must be >= 1"):
        RleSeq("s", [(2, 0)])
    with pytest.raises(ValueError, match="adjacent runs"):
        RleSeq("s", [(2, 1), (2, 3)])
    with pytest.raises(ValueError, match="symbol, length"):
        RleSeq("s", [2, 1, 3, 1])
    # ids below FIRST_SYMBOL_ID belong to the suffix order's terminators
    for low in (-1, 0, 1):
        for runs in ([(low, 1), (3, 1)], [(2, 1), (low, 1), (3, 1)], [(2, 1), (low, 1)]):
            with pytest.raises(ValueError, match=rf"^s: symbol id {low} below 2$"):
                RleSeq("s", runs)
    # ids index per-symbol tables, so they stay within one per codepoint
    with pytest.raises(ValueError, match="symbol id 1099511627776 above"):
        RleSeq("s", [(1 << 40, 1)])
    RleSeq("s", [(MAX_SYMBOL_ID, 1)])
    RleSeq("s", [(FIRST_SYMBOL_ID, 1)])
    # rows must be integers: no rounding, truncating or parsing
    for runs in ([(2, 2.5), (3, 1)], [(2.9, 1)], [("3", 1)], np.array([[2.0, 1.0]])):
        with pytest.raises(ValueError, match="^x: runs must hold integers"):
            RleSeq("x", runs)
    assert RleSeq("x", [(np.int32(2), np.uint8(1))]).runs.tolist() == [[2, 1]]


def test_huge_runs_allowed_up_to_bound():
    big = RleSeq("big", [(2, 10**9)])
    assert big.content_length == 10**9
    # the bound counts the terminator the suffix order appends
    at_bound = RleSeq("at-bound", [(2, MAX_DECODED_LENGTH - 2), (3, 1)])
    assert at_bound.content_length == MAX_DECODED_LENGTH - 1
    message = f"too-big: decoded length {MAX_DECODED_LENGTH + 1} exceeds bound {MAX_DECODED_LENGTH}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        RleSeq("too-big", [(2, MAX_DECODED_LENGTH - 1), (3, 1)])
    # a length no int64 holds
    for runs in ([(2, 1 << 63)], np.array([[2, 1 << 63]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^past-int64: run exceeds bound 4611686018427387904$"):
            RleSeq("past-int64", runs)
    # four runs of 2^62 sum to 2^64, which wraps to 0 in 64 bits
    with pytest.raises(ValueError, match="decoded length 18446744073709551617 exceeds bound"):
        RleSeq("wraps", [(2 + k % 2, 1 << 62) for k in range(4)])


def test_runs_are_read_only():
    seq = encode("aab")
    with pytest.raises(ValueError, match="read-only"):
        seq.runs[0, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        seq.runs[:, 0] += 1
    # the sequence keeps its own copy of the rows it was built from
    rows = np.array([[2, 3]])
    built = RleSeq("own", rows)
    rows[0, 1] = 7
    assert built.runs.tolist() == [[2, 3]]
    assert built.content_length == 3


def test_decode_round_trip():
    seq = encode("mississippi", "m")
    assert decode(seq) == "mississippi"


def test_decode_respects_limit():
    seq = RleSeq("big", [(FIRST_SYMBOL_ID, 100)])
    with pytest.raises(ValueError, match="decode too large"):
        decode(seq, limit=99)


def test_decode_orders_like_internal_ids():
    # every id an RleSeq admits renders, in id order, the extremes included
    ids = [FIRST_SYMBOL_ID, 0xD800 + FIRST_SYMBOL_ID, 0x110000, MAX_SYMBOL_ID]
    texts = [decode(RleSeq("s", [(sym, 2)])) for sym in ids]
    assert texts == sorted(texts)
    assert texts == ["\x00\x00", "\ud800\ud800", "\U0010fffe" * 2, "\U0010ffff" * 2]


def test_parse_rle_text_basic():
    seqs, symbols = parse_rle_text(">one\na2 b3\nc1\n>two\nb1 a1\n")
    assert [s.name for s in seqs] == ["one", "two"]
    assert symbols == "abc"
    one, two = seqs
    assert decode(one) == "aabbbc"
    assert decode(two) == "ba"


def test_parse_rle_text_merges_adjacent_equal_runs():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seqs, _ = parse_rle_text(">s\na2 a3 b1\n")
    assert any("merged" in str(w.message) for w in caught)
    assert decode(seqs[0]) == "aaaaab"
    assert seqs[0].run_count == 2
    # a merged record meets the bound of any sequence: content 2^62 - 1 at most
    edge = MAX_DECODED_LENGTH - 2
    message = f"^s: decoded length {MAX_DECODED_LENGTH + 1} exceeds bound {MAX_DECODED_LENGTH}$"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (seq,), _ = parse_rle_text(f">s\na{edge} a1\n")
        assert seq.content_length == MAX_DECODED_LENGTH - 1
        with pytest.raises(ValueError, match=message):
            parse_rle_text(f">s\na{edge} a2\n")


def test_parse_rle_text_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2: bad run token 'a'"):
        parse_rle_text(">s\na\n")
    with pytest.raises(ParseError, match="line 2: run count must be >= 1"):
        parse_rle_text(">s\na0\n")
    with pytest.raises(ParseError, match="line 1: run data before"):
        parse_rle_text("a2\n")
    with pytest.raises(ParseError, match="line 3: duplicate record name"):
        parse_rle_text(">s\na2\n>s\nb1\n")
    with pytest.raises(ParseError, match="line 1: missing record name"):
        parse_rle_text(">\na2\n")
    with pytest.raises(ParseError, match="empty record s"):
        parse_rle_text(">s\n")
    # counts past the bound are refused with their line, before conversion:
    # one too long for Python's int(), one too large for int64
    with pytest.raises(ParseError, match="^line 3: run count exceeds bound"):
        parse_rle_text(">s\na2\nb" + "9" * 5000 + "\n")
    with pytest.raises(ParseError, match=f"^line 2: run count exceeds bound .*'a{1 << 63}'"):
        parse_rle_text(f">s\nb1 a{1 << 63}\n")
    with pytest.raises(ParseError, match="line 2: run count exceeds bound"):
        parse_rle_text(f">s\na{MAX_DECODED_LENGTH + 1}\n")
    # leading zeros are not significant digits
    seqs, _ = parse_rle_text(">s\na" + "0" * 40 + "7\n")
    assert seqs[0].content_length == 7


def test_read_rle_records_rejects_fancy_tokens():
    with pytest.raises(ParseError, match="bad run token '12'"):
        read_rle_records(">s\n12\n")
    with pytest.raises(ParseError, match="bad run token 'ab2'"):
        read_rle_records(">s\nab2\n")


def test_parse_fasta_basic():
    text = ">alpha\nAAT\nTT\n\n>beta\nGG\n"
    seqs, symbols = parse_fasta(io.StringIO(text))
    assert [s.name for s in seqs] == ["alpha", "beta"]
    assert decode(seqs[0]) == "AATTT"
    assert decode(seqs[1]) == "GG"
    # every record's distinct characters, in id order
    assert symbols == "AGT"


def test_parse_fasta_errors():
    with pytest.raises(ParseError, match="line 1: sequence data before"):
        parse_fasta("ACGT\n")
    with pytest.raises(ValueError, match="empty record beta"):
        parse_fasta(">beta\n>gamma\nAC\n")
    with pytest.raises(ParseError, match="line 1: missing record name"):
        parse_fasta(">  \nAC\n")


@given(
    st.text(
        alphabet=st.characters(min_codepoint=32) | st.sampled_from(["\ud800", "\udfff"]),
        min_size=1,
    )
)
def test_encode_decode_round_trip(text):
    seq = encode(text, "t")
    assert decode(seq, limit=len(text)) == text
    # maximality: adjacent runs never share a symbol
    syms = seq.runs[:, 0].tolist()
    assert all(a != b for a, b in zip(syms, syms[1:]))
    assert seq.content_length == len(text)


@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=12,
    )
)
def test_rle_text_format_round_trip(pairs):
    body = " ".join(f"{ch}{n}" for ch, n in pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seqs, _ = parse_rle_text(f">r\n{body}\n")
    expect = "".join(ch * n for ch, n in pairs)
    assert decode(seqs[0]) == expect


def _reference_runs(lines):
    """groupby runs over the joined stripped lines: the ingest contract."""
    return [[ord(ch), len(list(g))] for ch, g in groupby("".join(line.strip() for line in lines))]


# Symbols for body lines: ASCII, Latin-1 and BMP letters, astral-plane
# emoji, and whitespace that strip() removes at a line's ends but that
# stays inside a line.
_BODY_CHARS = st.sampled_from(["a", "a", "b", "é", "ж", "😀", "𝔸", " ", "\t", "\u00a0"])
_BODY_LINES = st.lists(st.text(alphabet=_BODY_CHARS, max_size=12), max_size=12)


@given(
    st.lists(_BODY_LINES, min_size=1, max_size=3),
    st.sampled_from(["\n", "\r\n"]),
    st.integers(min_value=1, max_value=8),
)
def test_streamed_runs_match_groupby_reference(bodies, newline, block_chars):
    # tiny blocks, so runs cross both line and block boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rle, "BLOCK_CHARS", block_chars)
        lines = [line for body in bodies for line in body]
        text_record = read_text_record(io.StringIO(newline.join(lines) + newline), "t")
        assert text_record.runs.tolist() == _reference_runs(lines)

        fasta = "".join(
            f">r{k}{newline}" + "".join(line + newline for line in body)
            for k, body in enumerate(bodies)
        )
        if all("".join(line.strip() for line in body) for body in bodies):
            records = read_fasta_records(io.StringIO(fasta))
            assert [r.name for r in records] == [f"r{k}" for k in range(len(bodies))]
            for record, body in zip(records, bodies):
                assert record.runs.tolist() == _reference_runs(body)
        else:
            with pytest.raises(ValueError, match="empty record r"):
                read_fasta_records(io.StringIO(fasta))


def test_whitespace_table_is_str_isspace():
    expected = np.array([chr(c).isspace() for c in range(0x110000)])
    for dtype in (np.int64, np.uint32):
        assert (rle._is_space(np.arange(0x110000, dtype=dtype)) == expected).all()
    assert (rle._is_space(np.arange(256, dtype=np.uint8)) == expected[:256]).all()


def _reference_fasta(text):
    """(name, runs) of each FASTA record by the ingest contract, or its ParseError.

    The text is split on "\n" and each line stripped; a line that then starts
    with ">" opens a record named by the rest, stripped. Errors with a line
    come in line order, then the first empty record.
    """
    records = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if line.startswith(">"):
            if not line[1:].strip():
                raise ParseError("missing record name", number)
            records.append((line[1:].strip(), []))
        elif line:
            if not records:
                raise ParseError("sequence data before the first header", number)
            records[-1][1].append(line)
    for name, lines in records:
        if not lines:
            raise ParseError(f"empty record {name}")
    return [(name, _reference_runs(lines)) for name, lines in records]


def _long_run_lines(seed, records, length):
    """FASTA text shaped like the ingest workload: records of length characters
    over acgt in runs of up to 2000, 60 to a line, no whitespace but "\n"."""
    rng = random.Random(seed)
    parts = []
    for k in range(records):
        body, prev = "", ""
        while len(body) < length:
            prev = rng.choice([b for b in "acgt" if b != prev])
            body += prev * rng.randint(1, 2000)
        body = body[:length]
        parts.append(f">r{k}\n" + "".join(body[i : i + 60] + "\n" for i in range(0, length, 60)))
    return "".join(parts)


# What _BODY_CHARS lacks: a lone "\r" (StringIO leaves it as it is), the
# separators "\x1c"-"\x1f", NEL, LINE SEPARATOR and the ideographic space,
# all whitespace to strip(), and ">" anywhere in a line, at its start after
# whitespace too; plus blank lines and header lines.
_EDGE_CHARS = st.sampled_from(
    ["a", "a", "b", "é", ">", " ", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000"]
)
_EDGE_LINES = st.lists(
    st.text(alphabet=_EDGE_CHARS, max_size=10) | st.sampled_from(["", " \r", ">r", "\u3000>s a ", " >"]),
    max_size=16,
)


@settings(max_examples=300)
@given(
    _EDGE_LINES,
    st.booleans(),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.sampled_from([*range(1, 9), 1 << 17]),
)
@example([">r", "", "", "a", "\u3000>s", ""], False, "\n", True, 3)
@example(["", " ", "a\x85>b\r"], True, "\r\n", False, 1)
# shaped like the ingest workload: with 61-character blocks each block is
# one line, with 64 most are two, with 2^17 the text is one block
@example(_long_run_lines(1, 3, 20_001).splitlines(), False, "\n", True, 61)
@example(_long_run_lines(2, 3, 20_002).splitlines(), False, "\n", True, 64)
@example(_long_run_lines(3, 3, 20_003).splitlines(), False, "\n", True, 1 << 17)
def test_ingest_matches_the_line_contract(lines, header_first, newline, newline_last, block_chars):
    # with blocks of 1-8 characters every line starts and ends a block, a
    # header or not; with 2^17 the input is one block
    text = newline.join([">r0", *lines] if header_first else lines) + (newline if newline_last else "")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rle, "BLOCK_CHARS", block_chars)
        raw = read_text_record(io.StringIO(text), "t")
        assert raw.runs.tolist() == _reference_runs(text.split("\n"))
        try:
            expected = _reference_fasta(text)
        except ParseError as error:
            with pytest.raises(ParseError) as caught:
                read_fasta_records(io.StringIO(text))
            assert (str(caught.value), caught.value.line) == (str(error), error.line)
        else:
            records = read_fasta_records(io.StringIO(text))
            assert [(r.name, r.runs.tolist()) for r in records] == expected


@pytest.mark.parametrize("block_chars", [8, 61, 64])
@pytest.mark.parametrize("indent", ["", " ", "\u3000\t"])
def test_header_line_at_every_offset_around_a_block_boundary(block_chars, indent, monkeypatch):
    # a block ends with the line that holds its block_chars-th character;
    # the body line before the header grows one character at a time, so
    # the header line starts, and ends, on every side of that boundary
    monkeypatch.setattr(rle, "BLOCK_CHARS", block_chars)
    for width in range(max(block_chars - 12, 0), block_chars + 4):
        body = "".join("ac"[k // 3 % 2] for k in range(width))
        for tail in ("", " x"):
            text = f">a\ncc\n{body}\n{indent}>b{tail}\ngg \n\n>c\ng\n"
            records = read_fasta_records(io.StringIO(text))
            assert [(r.name, r.runs.tolist()) for r in records] == _reference_fasta(text)
            # the same shape as run-length text: "a0…01" is one token a1
            tokens = f">a\nc2\na{'0' * width}1\n{indent}>b{tail}\ng2 \n\n>c\ng1\n"
            runs = read_rle_records(tokens)
            assert [(r.name, r.runs.tolist()) for r in runs] == _reference_tokens(tokens)


@pytest.mark.parametrize("block_chars", range(1, 9))
def test_rle_line_numbers_and_merges_across_blocks(block_chars, monkeypatch):
    # "b1 c1 d1 a2" is longer than any of these blocks, so "a2" and "a3"
    # sit in different blocks, and record r spans several
    monkeypatch.setattr(rle, "BLOCK_CHARS", block_chars)
    lines = [">r", "b1 c1 d1 a2", "", "a3 b1", "  c2\t", ">s", "b2 a1", "c1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = read_rle_records("\n".join(lines) + "\n")
    assert [str(w.message) for w in caught] == ["record r: merged 1 adjacent equal-symbol runs"]
    a, b, c, d = map(ord, "abcd")
    assert [(r.name, r.runs.tolist()) for r in records] == [
        ("r", [[b, 1], [c, 1], [d, 1], [a, 5], [b, 1], [c, 2]]),
        ("s", [[b, 2], [a, 1], [c, 1]]),
    ]
    # a bad token on line k of either record reports line k (record r warns
    # of its merge when it closes before a bad token of record s)
    for k in range(2, len(lines) + 2):
        text = "\n".join([*lines[: k - 1], "a1 zz9", *lines[k - 1 :]]) + "\n"
        with warnings.catch_warnings(), pytest.raises(ParseError) as caught:
            warnings.simplefilter("ignore")
            read_rle_records(text)
        assert (str(caught.value), caught.value.line) == (f"line {k}: bad run token 'zz9'", k)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("block_chars", [*range(1, 9), 1 << 20])
def test_blank_lines_indented_headers_and_crlf_keep_records_and_lines(
    block_chars, newline, monkeypatch
):
    monkeypatch.setattr(rle, "BLOCK_CHARS", block_chars)

    def text(*lines):
        return newline.join(lines) + newline

    head = ["", " \t", "\u3000"]  # blank and whitespace-only lines
    fasta = read_fasta_records(text(*head, " >a", "AA C ", "", "\t>b x", "C"))
    A, C, space = ord("A"), ord("C"), ord(" ")
    assert [(r.name, r.runs.tolist()) for r in fasta] == [
        ("a", [[A, 2], [space, 1], [C, 1]]),
        ("b x", [[C, 1]]),
    ]
    runs = read_rle_records(text(*head, " >a", " a2 b1", "", "\t>b", "b3"))
    assert [(r.name, r.runs.tolist()) for r in runs] == [
        ("a", [[ord("a"), 2], [ord("b"), 1]]),
        ("b", [[ord("b"), 3]]),
    ]
    raw = read_text_record(text(*head, " >a", "AA C ", ""), "t")
    assert raw.runs.tolist() == [[ord(">"), 1], [ord("a"), 1], [A, 2], [space, 1], [C, 1]]
    # line numbers count the blank lines
    with pytest.raises(ParseError, match="^line 4: sequence data before the first header$"):
        read_fasta_records(text(*head, "AC", ">a", "C"))
    with pytest.raises(ParseError, match="^line 7: missing record name$"):
        read_fasta_records(text(*head, " >a", "AC", "", " > "))
    with pytest.raises(ParseError, match="^line 4: run data before the first record header$"):
        read_rle_records(text(*head, "a1", ">a", "a1"))
    with pytest.raises(ParseError, match="^line 6: bad run token 'b'$"):
        read_rle_records(text(*head, " >a", "a1", "a2 b"))


def test_ingest_errors_keep_their_order():
    # line-numbered parse errors first, in line order
    with pytest.raises(ParseError, match="^line 1: sequence data before the first header$"):
        parse_fasta("A\x00\n>a\n")
    with pytest.raises(ParseError, match="^line 5: missing record name$"):
        parse_fasta(">a\nA\x00\n>b\n\n>\nAC\n")
    # then the first empty record
    with pytest.raises(ValueError, match="^empty record b$"):
        parse_fasta(">a\nA\x00\n>b\n>c\n>d\nAC\n")
    # raw text records: the first empty record
    empty = read_text_record(io.StringIO(" \n\n"), "e")
    with pytest.raises(ValueError, match="^empty record e$"):
        build_text_sequences([empty, read_text_record(io.StringIO("ab\n"), "z")])
    # encode's own messages
    with pytest.raises(ValueError, match="^empty sequence$"):
        encode("")


def _write_long_runs_fasta(path, length):
    """Records x and y of length // 2 characters each, in runs of about 5000."""
    rng = random.Random(5)
    with open(path, "w", encoding="utf-8") as fh:
        for name in ("x", "y"):
            fh.write(f">{name}\n")
            line: list[str] = []
            written = 0
            prev = ""
            while written < length // 2:
                ch = rng.choice([b for b in "acgt" if b != prev])
                prev = ch
                line.append(ch * rng.randint(1, 10_000))
                written += len(line[-1])
            body = "".join(line)[: length // 2]
            fh.writelines(body[k : k + 60] + "\n" for k in range(0, len(body), 60))
            del line, body


def test_fasta_ingest_memory_is_bounded_by_the_block(tmp_path):
    # 4e6 characters in runs of about 5000; with 64 KiB blocks the parse
    # must stay far below the decoded length, which holding a record's
    # whole text (or a list of all its lines) would exceed
    length = 4_000_000
    path = tmp_path / "long.fasta"
    _write_long_runs_fasta(path, length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rle, "BLOCK_CHARS", 1 << 16)
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                seqs, _ = parse_fasta(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sum(s.content_length for s in seqs) == length
    assert peak < length // 8


def test_text_ingest_memory_is_bounded_by_the_block(tmp_path):
    # the same input read as raw text: one record, headers included
    length = 4_000_000
    path = tmp_path / "long.fasta"
    _write_long_runs_fasta(path, length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rle, "BLOCK_CHARS", 1 << 16)
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                seqs, _ = build_text_sequences([read_text_record(fh, "t")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert seqs[0].content_length == length + len(">x>y")
    assert peak < length // 8


def test_str_ingest_memory_is_bounded_by_the_block(tmp_path):
    # the same input passed as a str: read in slices of whole lines, so
    # nothing holds a copy of the whole text
    length = 4_000_000
    path = tmp_path / "long.fasta"
    _write_long_runs_fasta(path, length)
    text = path.read_text(encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rle, "BLOCK_CHARS", 1 << 16)
        tracemalloc.start()
        try:
            seqs, _ = parse_fasta(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sum(s.content_length for s in seqs) == length
    assert peak < length // 8


def _reference_tokens(text):
    """(name, runs) of each run-length record by the format's contract, or its error.

    The text is split on "\n" and each line stripped; a line that then
    starts with ">" opens a record named by the rest, stripped, and unique.
    Any other nonblank line holds tokens split on str.isspace, each checked
    in turn, in this order: one symbol that is no ASCII digit, then ASCII
    digits only; a printable symbol; a count of at least 1; a count within
    MAX_DECODED_LENGTH. Line-numbered errors come in line order. A record
    whose neighbouring tokens share a symbol is merged when it closes, and
    then checked against the bound as a sequence; empty records come last.
    """
    ascii_digits = set("0123456789")
    records = []
    names = set()

    def close():
        if not records:
            return
        name, runs = records[-1]
        merged = [list(run) for run in runs[:1]]
        for sym, count in runs[1:]:
            if sym == merged[-1][0]:
                merged[-1][1] += count
            else:
                merged.append([sym, count])
        if len(merged) < len(runs) and sum(count for _, count in runs) >= MAX_DECODED_LENGTH:
            total = sum(count for _, count in runs) + 1
            raise ValueError(f"{name}: decoded length {total} exceeds bound {MAX_DECODED_LENGTH}")
        records[-1] = (name, merged)

    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if line.startswith(">"):
            close()
            name = line[1:].strip()
            if not name:
                raise ParseError("missing record name", number)
            if name in names:
                raise ParseError(f"duplicate record name {name!r}", number)
            names.add(name)
            records.append((name, []))
        elif line:
            if not records:
                raise ParseError("run data before the first record header", number)
            for token in line.split():
                symbol, digits = token[0], token[1:]
                if symbol in ascii_digits or not digits or not set(digits) <= ascii_digits:
                    raise ParseError(f"bad run token {token!r}", number)
                if not symbol.isprintable():
                    raise ParseError(f"unprintable symbol in token {token!r}", number)
                significant = digits.lstrip("0")
                if not significant:
                    raise ParseError(f"run count must be >= 1 in token {token!r}", number)
                if len(significant) > 19 or int(significant) > MAX_DECODED_LENGTH:
                    message = f"run count exceeds bound {MAX_DECODED_LENGTH} in token {token!r}"
                    raise ParseError(message, number)
                records[-1][1].append((ord(symbol), int(significant)))
    close()
    for name, runs in records:
        if not runs:
            raise ParseError(f"empty record {name}")
    return records


# Symbols: printable ASCII, ">" (a header only at a line's start), Latin-1,
# astral; an ASCII digit; unprintable
# ones (a control character, a format character, an astral tag).
_TOKEN_SYMBOLS = st.sampled_from(
    ["a", "a", "b", "-", ">", "é", "😀", "𝔸", "7", "\x01", "\u200b", "\U000e0001"]
)
# Counts: none, zero, leading zeros, 19 and 20 digits, either side of 2^62,
# and either side of int64's end, where the count parse saturates.
_TOKEN_COUNTS = st.integers(min_value=1, max_value=10**6).map(str) | st.sampled_from(
    [
        "",
        "0",
        "000",
        "007",
        "0" * 30 + "5",
        str(10**18),
        "9" * 19,
        str(10**19),
        "9" * 20,
        str(MAX_DECODED_LENGTH),
        str(MAX_DECODED_LENGTH + 1),
        str(MAX_DECODED_LENGTH - 1),
        "0" + str(MAX_DECODED_LENGTH),
        str(2**63 - 1),
        str(2**63),
        str(2**64 + 3),
        "1x",
    ]
)
_TOKEN = st.builds(str.__add__, _TOKEN_SYMBOLS, _TOKEN_COUNTS)
# token separators: ASCII blanks, NEL, the ideographic space, a lone "\r",
# and the separators on which str.isspace and C's isspace agree (VT, FF) or
# differ (the information separators, NBSP, the line separator)
_TOKEN_GAPS = st.sampled_from(
    [" ", " ", "\t", "  ", "\x85", "\u3000", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2028"]
)
_TOKEN_LINE = st.lists(st.tuples(_TOKEN_GAPS, _TOKEN), max_size=6).map(
    lambda parts: "".join(gap + token for gap, token in parts)
) | st.sampled_from(["", " ", ">r", ">s", "> ", " >r x", "\u3000>t"])


@settings(max_examples=300)
@given(
    st.lists(_TOKEN_LINE, max_size=12),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from([*range(1, 9), 1 << 17]),
)
@example([">r", "a2 a3\x85b1", "", "\u3000c4"], "\n", 3)
@example([">r", f"a{MAX_DECODED_LENGTH - 1} a1", ">s", "b1"], "\n", 1 << 17)
@example(["a1 >2", "b1\t>3 >r", " >s", ">2 a1"], "\n", 4)
def test_token_reader_matches_the_reference(lines, newline, block_chars):
    text = newline.join([">r0", *lines]) + newline
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(rle, "BLOCK_CHARS", block_chars)
        try:
            expected = _reference_tokens(text)
        except ValueError as error:
            with pytest.raises(ValueError) as caught:
                read_rle_records(text)
            assert type(caught.value) is type(error)
            assert (str(caught.value), getattr(caught.value, "line", None)) == (
                str(error),
                getattr(error, "line", None),
            )
        else:
            records = read_rle_records(text)
            assert [(r.name, r.runs.tolist()) for r in records] == expected


@pytest.mark.parametrize(
    "text, error",
    [
        (">s\na3 b0000000002\n  c1\n", None),
        (f">s\n\ta{MAX_DECODED_LENGTH - 1}\n>t\n b{MAX_DECODED_LENGTH - 1} \n", None),
        (">é\n\u00e92 \U0001f6003\tb1\u3000c9\n\n", None),
        # the count parse stops before the first misshapen token, here the
        # first: it reads no count, not the blanks before the token
        (">s\n   a\n", "^line 2: bad run token 'a'$"),
        (">s\n\u3000 7é \n", "^line 2: bad run token '7é'$"),
    ],
)
def test_reading_run_length_text_warns_nothing(text, error):
    # cli.load_sequences prints every warning a read raises, so a warning
    # from the count parse would change the CLI's output
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert read_rle_records(text)
        else:
            with pytest.raises(ParseError, match=error):
                read_rle_records(text)


def test_distinct_lists_each_codepoint_once():
    # a presence table below 4 KiB or the input's length, a sort above
    for values, expected in (
        (np.array([], dtype=np.int64), []),
        (np.array([0x10FFFF, 97, 0x10FFFF, 0], dtype=np.uint32), [0, 97, 0x10FFFF]),
        (np.frombuffer(b"gattaca", dtype=np.uint8), [97, 99, 103, 116]),
        (np.array([5000, 7, 5000], dtype=np.int64), [7, 5000]),
        (np.arange(6000, dtype=np.uint32)[::-1] % 5000 + 1000, list(range(1000, 6000))),
        (np.array([4095, 4095, 0], dtype=np.uint32), [0, 4095]),
    ):
        assert rle._distinct(values).tolist() == expected


def test_building_sequences_with_high_codepoints_allocates_little():
    # a presence table as long as the largest codepoint would take 1.1 MB
    # for one U+10FFFF; a few characters are sorted instead
    for high in ("t", "\U0001f600", "\U0010ffff"):
        records = read_fasta_records(f">a\nacgt{high}acg\n>b\ngattaca\n")
        tracemalloc.start()
        try:
            seqs, symbols = build_text_sequences(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert symbols == "".join(sorted(set("acgt" + high)))
        assert peak < 32 * 1024


def test_run_length_parse_and_dist_load_no_masked_arrays():
    # numpy 2's np.unique imports numpy.ma unless asked for an inverse,
    # about 1.2 MB resident; numpy 1.x loads numpy.ma with numpy itself, so
    # only the modules a bare import leaves out count
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from rleacs.engine import dist\n"
        "from rleacs.rle import parse_rle_text\n"
        "seqs, _ = parse_rle_text('>x\\na3 b2 a1 c4\\n>y\\nb2 a4 c1\\n')\n"
        "dist(*seqs)\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(rle.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


# a record's planted fault: a record past its bound sums to exactly 2^62
FAULTS = (None, None, "empty", "zero", "low", "high", "repeat", "bound", "giant")


@st.composite
def faulty_family(draw):
    """1-6 codepoint-run records over "ab", some with a planted fault; "giant"
    plants a valid record of a few runs near 2^61, so the family's total
    can pass 2^64."""
    records = []
    for j in range(draw(st.integers(1, 6))):
        count = draw(st.integers(1, 5))
        first = draw(st.integers(0, 1))
        syms = [ord("ab"[(first + i) % 2]) for i in range(count)]
        lengths = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
        fault = draw(st.sampled_from(FAULTS))
        at = draw(st.integers(0, count - 1))
        if fault == "zero":
            lengths[at] = draw(st.sampled_from([0, -1]))
        elif fault == "low":
            syms[at] = draw(st.sampled_from([-FIRST_SYMBOL_ID, -1]))
        elif fault == "high":
            syms[at] = draw(st.sampled_from([MAX_SYMBOL_ID - 1, 1 << 40]))
        elif fault == "repeat" and count > 1:
            syms[at] = syms[at - 1]
        elif fault == "bound":
            lengths[at] += MAX_DECODED_LENGTH - sum(lengths)
        elif fault == "giant":
            lengths = [(1 << 61) - length for length in lengths]
        runs = np.array([*zip(syms, lengths)], dtype=np.int64).reshape(-1, 2)
        records.append(rle.RunRecord(f"r{j}", runs[:0] if fault == "empty" else runs))
    return records


@settings(max_examples=300)
@given(faulty_family())
@example([rle.RunRecord("x", np.array([[97, 1]])), rle.RunRecord("y", np.array([[97, 2]]))])
@example([rle.RunRecord("x", np.array([[97, 1]])), rle.RunRecord("y", np.array([[97, 2], [98, 0]]))])
def test_family_check_matches_each_records_own_construction(records):
    # build_text_sequences checks the whole family in one pass; it must
    # raise what the per-record constructions raise first, in record order,
    # and otherwise give the same runs and lengths, as read-only views
    shift = np.array([FIRST_SYMBOL_ID, 0])
    expected = []
    for name, runs in records:
        try:
            if not len(runs):
                raise ValueError(f"empty record {name}")
            expected.append(RleSeq(name, runs + shift))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                build_text_sequences(records)
            assert str(raised.value) == str(exc)
            return
    seqs, _ = build_text_sequences(records)
    assert [seq.name for seq in seqs] == [seq.name for seq in expected]
    for seq, want in zip(seqs, expected):
        assert seq.runs.dtype == np.int64 and np.array_equal(seq.runs, want.runs)
        assert seq.content_length == want.content_length
        assert not seq.runs.flags.writeable
