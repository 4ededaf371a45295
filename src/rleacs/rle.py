"""Run-length encoded sequences and the text formats that carry them.

A sequence's runs are one read-only (N, 2) int64 array: column 0 holds the
symbol ids, column 1 the run lengths. A character's id is its codepoint
plus FIRST_SYMBOL_ID, whatever else is encoded, so ids order as the
characters do and any two sequences compare. A sequence carries no
terminator; the suffix order appends one to each side of a pair when it
builds its token string. The readers produce arrays of the same shape
over raw codepoints (RunRecord), so no layer between a file and the sort
keys walks runs one at a time. They read every input in blocks of whole
lines (BLOCK_CHARS). str.find locates a block's header lines; the text
between two of them is a body piece. A text piece drops its newlines at C
level and is run-encoded once, so every array after that pass has one
entry per true run, not per line-cut run; line stripping is decided on
those runs, and line numbers come from the newlines counted piece by
piece. A token piece's tokens are found by whitespace masks and its counts
read by one C-level parse. A record's pieces are merged once.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

# ids below this are left to the terminators the suffix order appends
FIRST_SYMBOL_ID = 2
# a character's id is its codepoint plus FIRST_SYMBOL_ID; ids index per-symbol tables
MAX_SYMBOL_ID = FIRST_SYMBOL_ID + 0x10FFFF

MAX_DECODED_LENGTH = 1 << 62
DEFAULT_DECODE_LIMIT = 1 << 26

# Input is read in blocks of whole lines of about this many characters, so
# ingest never holds a record's decoded text whole.
BLOCK_CHARS = 1 << 17

_NO_RUNS = np.empty((0, 2), dtype=np.int64)
# added to a (codepoint, length) row, it gives the (symbol id, length) row
_ID_SHIFT = np.array([FIRST_SYMBOL_ID, 0], dtype=np.int64)
# str.isspace of every codepoint up to U+3000, the largest for which it
# holds, and one last entry, False, for every codepoint above
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B)]] = True
_SPACE[[0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True
# each codepoint's byte in the text the run counts are parsed from: an ASCII
# digit stays, every other codepoint, the last entry's too, becomes a space
_COUNT_TEXT = np.full(256, ord(" "), dtype=np.uint8)
_COUNT_TEXT[ord("0") : ord("9") + 1] = np.arange(ord("0"), ord("9") + 1)


class ParseError(ValueError):
    """Input format violation, annotated with a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _content_length(name: str, lengths: np.ndarray) -> int:
    """Exact sum of positive int64 lengths; ValueError once it reaches the bound.

    The bound counts the length-1 terminator the suffix order appends, as
    does the message. Partial sums up to the first one at 2^62 stay below
    2^64, so unsigned cumulative sums see it exactly where a later one wraps.
    """
    partial = np.cumsum(lengths, dtype=np.uint64)
    if (partial >= np.uint64(MAX_DECODED_LENGTH)).any():
        total = sum(lengths.tolist()) + 1
        raise ValueError(f"{name}: decoded length {total} exceeds bound {MAX_DECODED_LENGTH}")
    return int(partial[-1])


@dataclass(frozen=True, eq=False)
class RleSeq:
    """A named sequence stored as maximal (symbol, length) runs.

    runs is a read-only (N, 2) int64 array, built from any (N, 2) array-like
    of ints: column 0 the symbol ids, at least FIRST_SYMBOL_ID, column 1 the
    lengths. Floats and strings are refused, not rounded or parsed.
    content_length is the decoded length, below MAX_DECODED_LENGTH.
    """

    name: str
    runs: np.ndarray
    content_length: int = field(init=False)

    def __post_init__(self) -> None:
        rows = self.runs
        if not isinstance(rows, np.ndarray) or rows.dtype == np.uint64:
            # as Python objects, so no value is rounded, parsed or wrapped
            rows = np.array(rows, dtype=object)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"{self.name}: runs must be (symbol, length) rows")
        if not len(rows):
            raise ValueError(f"{self.name}: empty sequence")
        if rows.dtype.kind not in "iu":
            bad = next((v for v in rows.flat if not isinstance(v, numbers.Integral)), None)
            if bad is not None:
                raise ValueError(f"{self.name}: runs must hold integers, got {bad!r}")
        try:
            runs = np.array(rows, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{self.name}: run exceeds bound {MAX_DECODED_LENGTH}") from None
        syms, lengths = runs.T
        for values, bad, message in (
            (lengths, lengths < 1, "run length must be >= 1, got {}"),
            (syms[1:], syms[1:] == syms[:-1], "adjacent runs share symbol id {}"),
            (syms, syms < FIRST_SYMBOL_ID, f"symbol id {{}} below {FIRST_SYMBOL_ID}"),
            (syms, syms > MAX_SYMBOL_ID, f"symbol id {{}} above {MAX_SYMBOL_ID}"),
        ):
            if bad.any():
                raise ValueError(f"{self.name}: " + message.format(values[bad][0]))
        runs.flags.writeable = False
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "content_length", _content_length(self.name, lengths))

    @property
    def run_count(self) -> int:
        return len(self.runs)


def encode(text: str, name: str = "seq") -> RleSeq:
    """Run-length encode text; a symbol's id is its codepoint plus FIRST_SYMBOL_ID."""
    if not text:
        raise ValueError("empty sequence")
    return RleSeq(name, _codepoint_runs(text) + _ID_SHIFT)


def _codepoints(text: str) -> np.ndarray:
    """The codepoints of text, one array element per character."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _lookup(table: np.ndarray, codepoints: np.ndarray) -> np.ndarray:
    """table's entry at each codepoint of an integer array, its last entry past its end.

    A table has at least 256 entries, so uint8 codepoints need no clipping.
    """
    if codepoints.dtype != np.uint8:
        codepoints = np.minimum(codepoints, len(table) - 1)
    return table.take(codepoints)


def _is_space(codepoints: np.ndarray) -> np.ndarray:
    """str.isspace of each codepoint of an integer array."""
    return _lookup(_SPACE, codepoints)


def _fresh(values: np.ndarray) -> np.ndarray:
    """True at the first entry and at every entry that differs from the one before."""
    fresh = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return fresh


def _run_bounds(values: np.ndarray) -> np.ndarray:
    """Where each maximal run of a nonempty array starts, then its length."""
    return np.append(np.flatnonzero(_fresh(values)), len(values))


def _codepoint_runs(text: str) -> np.ndarray:
    """Maximal runs of a nonempty text as (codepoint, length) rows."""
    cps = _codepoints(text)
    bounds = _run_bounds(cps)
    return np.column_stack((cps[bounds[:-1]], np.diff(bounds)))


def decode(seq: RleSeq, alphabet=None, limit: int = DEFAULT_DECODE_LIMIT) -> str:
    """Inverse of encode: id s renders as chr(s - FIRST_SYMBOL_ID), so the text
    orders its characters as their ids, for every id an RleSeq admits.

    alphabet is not read; it stays for callers that still pass one.
    """
    if seq.content_length > limit:
        raise ValueError(f"decode too large: {seq.content_length} > {limit}")
    return "".join(chr(sym - FIRST_SYMBOL_ID) * n for sym, n in seq.runs.tolist())


class RunRecord(NamedTuple):
    """A parsed record as maximal (codepoint, length) rows, before any symbol id."""

    name: str
    runs: np.ndarray


def _token_runs(piece: str, line: int) -> np.ndarray:
    """The (symbol, count) runs of a body piece's run tokens, all checked at once.

    Whitespace (str.isspace) separates tokens; a token is one printable
    symbol that is not an ASCII digit, then decimal digits. The first bad
    token raises a ParseError on its line: line, the line of the piece's
    first character, plus the newlines before it.

    The counts come from one C-level parse (np.fromstring) of the piece's
    text with every character that is not an ASCII digit made a space
    (_COUNT_TEXT), where a well-formed token leaves exactly its count. The
    parse stops before the first misshapen token, one whose symbol is a
    digit, that has no digits, or that has a character after its symbol
    that is no digit, so it reads whole digit runs only and never warns.
    Leading zeros parse away, and a count past int64 saturates at
    2^63 - 1, so it is still refused against the bound.
    """
    cps = _codepoints(piece)
    solid = np.zeros(len(cps) + 2, dtype=bool)
    solid[1:-1] = ~_is_space(cps)
    flips = np.flatnonzero(solid[1:] != solid[:-1])
    starts, ends = flips[0::2], flips[1::2]
    text = _lookup(_COUNT_TEXT, cps)
    # the characters that are neither digits, nor whitespace, nor a token's symbol
    stray = text == ord(" ")
    stray &= solid[1:-1]
    stray[starts] = False
    del solid, flips
    misshapen = (text[starts] != ord(" ")) | (ends - starts < 2)
    misshapen[np.searchsorted(starts, np.flatnonzero(stray), "right") - 1] = True
    parsed = int(np.argmax(misshapen)) if misshapen.any() else len(starts)
    # the tokens from the first misshapen one on keep count 0; it fails first
    counts = np.zeros(len(starts), dtype=np.int64)
    counts[:parsed] = np.fromstring(text.tobytes(), dtype=np.int64, count=parsed, sep=" ")
    del text, stray
    symbols = cps[starts]

    # isprintable is asked once per distinct token symbol
    unprintable = [c for c in _distinct(symbols).tolist() if not chr(c).isprintable()]

    # the first failing token is reported, by the first check it fails
    checks = (
        (misshapen, "bad run token {!r}"),
        (np.isin(symbols, unprintable), "unprintable symbol in token {!r}"),
        (counts < 1, "run count must be >= 1 in token {!r}"),
        (
            counts > MAX_DECODED_LENGTH,
            f"run count exceeds bound {MAX_DECODED_LENGTH} in token {{!r}}",
        ),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        message = next(message for mask, message in checks if mask[k])
        line += piece.count("\n", 0, starts[k])
        raise ParseError(message.format(piece[starts[k] : ends[k]]), line)
    return np.column_stack((symbols, counts))


def _merge(name: str, pieces: list[np.ndarray], tokens: bool) -> RunRecord:
    """One record from its pieces' runs, equal neighbouring runs merged.

    Text runs meet across line and block breaks and merge silently. Run
    tokens with one symbol merge with a warning, once the record is checked
    against the bound; then no merged sum wraps.
    """
    runs = pieces[0] if len(pieces) == 1 else np.concatenate([_NO_RUNS, *pieces])
    keep = np.flatnonzero(_fresh(runs[:, 0]))
    if len(keep) < len(runs):
        if tokens:
            merged = len(runs) - len(keep)
            warnings.warn(f"record {name}: merged {merged} adjacent equal-symbol runs")
            _content_length(name, runs[:, 1])
        runs = np.column_stack((runs[keep, 0], np.add.reduceat(runs[:, 1], keep)))
    return RunRecord(name, runs)


def _blocks(source) -> Iterator[str]:
    """A str or a text stream as blocks of whole lines, about BLOCK_CHARS characters each.

    A block is the next BLOCK_CHARS characters and the rest of the line the
    last of them ends, as stream.read then stream.readline give it; a str
    is sliced the same way, so it is never copied whole.
    """
    if isinstance(source, str):
        start = 0
        while start < len(source):
            stop = source.find("\n", start + BLOCK_CHARS) + 1 or len(source)
            yield source[start:stop]
            start = stop
    else:
        while block := source.read(BLOCK_CHARS) + source.readline():
            yield block
            del block  # so no block outlives its turn


def _header_lines(block: str) -> list[tuple[int, int]]:
    """Each header line of a block of whole lines as (start, stop): from its
    first character to its newline, or to the block's end.

    A header line is one whose first character that is not whitespace
    (str.isspace) is ">". str.find gives the candidates; once a line has had
    one, the search goes on from its end, so no line is read twice.
    """
    lines = []
    mark = block.find(">")
    while mark >= 0:
        start = block.rfind("\n", 0, mark) + 1
        stop = block.find("\n", mark)
        if stop < 0:
            stop = len(block)
        if not block[start:mark].strip():
            lines.append((start, stop))
        mark = block.find(">", stop)
    return lines


def _text_runs(piece: str) -> tuple[np.ndarray, int]:
    """The runs a piece of whole body lines keeps, as (codepoint, length) rows,
    and the newlines it holds.

    The newlines are dropped first, at C level, so the one run pass and
    every array after it follow the runs of the lines joined. Stripping
    each line then drops exactly the maximal whitespace stretches
    (str.isspace) [a, b) of the joined text that hold a cut c, a <= c <= b:
    a cut is where a newline was, or an end of the piece, which is a line's
    edge too. Only a piece with whitespace runs looks for its newlines.
    Equal runs a dropped stretch leaves side by side merge when the record
    closes (_merge).
    """
    if piece.isascii():
        cps = np.frombuffer(piece.encode("ascii").replace(b"\n", b""), dtype=np.uint8)
    else:
        cps = _codepoints(piece.replace("\n", ""))
    bounds = _run_bounds(cps)
    syms = cps[bounds[:-1]]
    runs = np.column_stack((syms, np.diff(bounds)))
    space = _is_space(syms)
    if space.any():
        # the first and the stop run of every maximal whitespace stretch
        flips = np.flatnonzero(np.diff(space, prepend=False, append=False))
        first, stop = flips[0::2], flips[1::2]
        breaks = np.flatnonzero(_codepoints(piece) == ord("\n"))
        cuts = np.concatenate(([0], breaks - np.arange(len(breaks)), [len(cps)]))
        edge = cuts[np.searchsorted(cuts, bounds[first])] <= bounds[stop]
        mark = np.zeros(len(syms) + 1, dtype=np.int8)
        mark[first[edge]] = 1
        mark[stop[edge]] = -1
        runs = runs[np.cumsum(mark[:-1], dtype=np.int8) == 0]
    return runs, len(piece) - len(cps)


def _read_records(stream, tokens: bool, name: str | None = None) -> list[RunRecord]:
    """Records of a format whose records open with ">name" header lines.

    The input is a str or a text stream. A line ends at "\n", as in a str,
    a StringIO or a text file read with universal newlines. Every line is
    stripped (str.strip), and a line that then starts with ">" is a header.
    The input is read in blocks of whole lines (_blocks), about BLOCK_CHARS
    characters each. str.find finds each block's header lines
    (_header_lines); the text between two of them is a body piece, and
    every piece is read whole: as text its kept runs (_text_runs), as
    tokens by _token_runs, which checks them all at once. So a record's
    first bad token raises before the next header is checked, and every
    line-numbered error comes in line order; line numbers come from the
    newlines counted piece by piece. A record closes through _merge.
    Run-length text (tokens) rejects repeated names; empty records are
    refused last. With name given no line is a header: the whole input is
    that record's body, and it may be empty.
    """
    headed = name is None
    records: list[RunRecord] = []
    names: set[str] = set()
    pieces: list[np.ndarray] | None = None if headed else []
    line = 1  # the line of the next character read
    for block in _blocks(stream):
        heads = _header_lines(block) if headed else []
        start = 0
        # each header line, then the block's end, closes a body piece
        for lo, hi in [*heads, (len(block), None)]:
            piece = block[start:lo]
            if not piece or piece.isspace():
                line += piece.count("\n")
            elif pieces is None:
                message = (
                    "run data before the first record header"
                    if tokens
                    else "sequence data before the first header"
                )
                solid = len(piece) - len(piece.lstrip())
                raise ParseError(message, line + piece.count("\n", 0, solid))
            elif tokens:
                pieces.append(_token_runs(piece, line))
                line += piece.count("\n")
            else:
                runs, newlines = _text_runs(piece)
                pieces.append(runs)
                line += newlines
            if hi is None:
                break
            if pieces is not None:
                records.append(_merge(name, pieces, tokens))
            name = block[lo:hi].lstrip()[1:].strip()
            if not name:
                raise ParseError("missing record name", line)
            if tokens and name in names:
                raise ParseError(f"duplicate record name {name!r}", line)
            names.add(name)
            pieces = []
            start = hi
        del block, piece  # so no block outlives its turn
    if pieces is not None:
        records.append(_merge(name, pieces, tokens))
    for record in records:
        if headed and not len(record.runs):
            raise ParseError(f"empty record {record.name}")
    return records


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array of codepoints, ascending.

    A presence table, one bool per codepoint up to the largest, serves while
    it is no longer than the input or 4 KiB; past that, as for a few
    characters near U+10FFFF, the values are sorted and each one that
    differs from the one before is kept. The 4 KiB floor keeps ASCII and
    low-BMP inputs on the table; it is not measured, as no benchmark
    workload holds a codepoint past ASCII.
    """
    top = int(values.max()) if len(values) else -1
    if top < max(len(values), 1 << 12):
        seen = np.zeros(top + 1, dtype=bool)
        seen[values] = True
        return np.flatnonzero(seen)
    ordered = np.sort(values)
    return ordered[_fresh(ordered)]


def read_rle_records(stream) -> list[RunRecord]:
    """Read the run-length text format into codepoint-run records.

    Records open with ">name"; body lines hold whitespace separated tokens of
    one printable symbol character followed by a decimal count, e.g. "a12 b3".
    Names must be unique. Adjacent tokens with the same symbol are merged
    with a warning.
    """
    return _read_records(stream, True)


def read_fasta_records(stream) -> list[RunRecord]:
    """Read FASTA records as codepoint runs, folding stripped body lines.

    Body pieces are run-encoded a block at a time, so no record's decoded
    text is held whole.
    """
    return _read_records(stream, False)


def read_text_record(stream, name: str) -> RunRecord:
    """Read raw text as one record: every line stripped, then concatenated."""
    return _read_records(stream, False, name=name)[0]


def build_rle_sequences(records: list[RunRecord]) -> tuple[list[RleSeq], str]:
    """build_text_sequences for run-length records, which are codepoint runs like any other."""
    return build_text_sequences(records)


def build_text_sequences(records: list[RunRecord]) -> tuple[list[RleSeq], str]:
    """Encode codepoint-run records, each id its codepoint plus FIRST_SYMBOL_ID,
    and list the records' distinct characters, in id order, as one str."""
    codepoints = np.concatenate([_NO_RUNS[:, 0], *(record.runs[:, 0] for record in records)])
    symbols = "".join(map(chr, _distinct(codepoints).tolist()))
    seqs = []
    for name, runs in records:
        if not len(runs):
            raise ValueError(f"empty record {name}")
        seqs.append(RleSeq(name, runs + _ID_SHIFT))
    return seqs, symbols


def parse_rle_text(stream) -> tuple[list[RleSeq], str]:
    """Parse the run-length text format into sequences plus their distinct characters."""
    return build_rle_sequences(read_rle_records(stream))


def parse_fasta(stream) -> tuple[list[RleSeq], str]:
    """Parse FASTA records and run-length encode each one."""
    return build_text_sequences(read_fasta_records(stream))
