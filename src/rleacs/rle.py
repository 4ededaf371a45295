"""Run-length encoded sequences, alphabets, and the text formats that carry them.

A sequence's runs are one read-only (N, 2) int64 array: column 0 holds the
symbol ids, column 1 the run lengths. A sequence carries no terminator; the
suffix order appends one to each side of a pair when it builds its token
string. The readers produce arrays of the same shape over raw codepoints
(RunRecord), so no layer between a file and the sort keys walks runs one at
a time. They read every input in blocks of whole lines (BLOCK_CHARS), parse
each body piece between headers at once, and merge a record's pieces once.
"""

from __future__ import annotations

import io
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

# ids below this are left to the terminators the suffix order appends
FIRST_SYMBOL_ID = 2
# one id per Unicode codepoint at most; ids index per-symbol tables
MAX_SYMBOL_ID = FIRST_SYMBOL_ID + 0x10FFFF

MAX_DECODED_LENGTH = 1 << 62
DEFAULT_DECODE_LIMIT = 1 << 26

# Input is read in blocks of whole lines of about this many characters, so
# ingest never holds a record's decoded text whole.
BLOCK_CHARS = 1 << 17

_NO_RUNS = np.empty((0, 2), dtype=np.int64)
# 10^k for the 19 decimal places a uint64 holds in full
_POW10 = 10 ** np.arange(19, dtype=np.uint64)


class ParseError(ValueError):
    """Input format violation, annotated with a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Alphabet:
    """Injective map between external characters and internal symbol ids.

    Ids start at FIRST_SYMBOL_ID and follow codepoint order, so comparing ids
    is the same as comparing the characters they stand for. The ids below
    FIRST_SYMBOL_ID are left to the terminators of the suffix order, which
    sort below every symbol.
    """

    to_id: dict[str, int]
    to_char: dict[int, str]

    @classmethod
    def from_symbols(cls, symbols: Iterable[str]) -> "Alphabet":
        ordered = sorted(set(symbols))
        to_id = {ch: FIRST_SYMBOL_ID + k for k, ch in enumerate(ordered)}
        return cls(to_id=to_id, to_char={v: k for k, v in to_id.items()})

    @classmethod
    def for_texts(cls, texts: Iterable[str]) -> "Alphabet":
        seen: set[str] = set()
        for text in texts:
            seen.update(text)
        return cls.from_symbols(seen)

    def __len__(self) -> int:
        return len(self.to_id)

    def ids(self, codepoints: np.ndarray) -> np.ndarray:
        """Symbol id of every codepoint; ValueError names the first one missing."""
        # ids follow codepoint order, so id FIRST_SYMBOL_ID + k is known[k]
        known = np.fromiter(map(ord, sorted(self.to_id)), dtype=np.int64, count=len(self))
        pos = np.searchsorted(known, codepoints)
        hit = pos < len(known)
        hit[hit] = known[pos[hit]] == codepoints[hit]
        if not hit.all():
            raise ValueError(f"symbol {chr(codepoints[np.argmin(hit)])!r} not in alphabet")
        return pos + FIRST_SYMBOL_ID


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


def encode(text: str, name: str = "seq", alphabet: Alphabet | None = None) -> RleSeq:
    """Run-length encode text.

    Sequences that will be compared with each other must share one Alphabet,
    otherwise their internal ids are not mutually ordered.
    """
    if not text:
        raise ValueError("empty sequence")
    return _seq_from_runs(name, _codepoint_runs(text), alphabet)


def _codepoints(text: str) -> np.ndarray:
    """The codepoints of text, one array element per character."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _codepoint_runs(text: str) -> np.ndarray:
    """Maximal runs of a nonempty text as (codepoint, length) rows."""
    cps = _codepoints(text)
    bounds = np.concatenate(([0], np.flatnonzero(cps[1:] != cps[:-1]) + 1, [cps.size]))
    return np.column_stack((cps[bounds[:-1]], np.diff(bounds)))


def _seq_from_runs(name: str, cp_runs: np.ndarray, alphabet: Alphabet | None) -> RleSeq:
    """Map maximal (codepoint, length) runs onto alphabet ids (an own alphabet if None)."""
    codepoints = cp_runs[:, 0]
    if alphabet is None:
        alphabet = Alphabet.from_symbols(map(chr, np.unique(codepoints).tolist()))
    runs = np.column_stack((alphabet.ids(codepoints), cp_runs[:, 1]))
    return RleSeq(name=name, runs=runs)


def decode(seq: RleSeq, alphabet: Alphabet, limit: int = DEFAULT_DECODE_LIMIT) -> str:
    """Inverse of encode."""
    if seq.content_length > limit:
        raise ValueError(f"decode too large: {seq.content_length} > {limit}")
    return "".join(alphabet.to_char[sym] * length for sym, length in seq.runs.tolist())


class RunRecord(NamedTuple):
    """A parsed record as maximal (codepoint, length) rows, before any alphabet."""

    name: str
    runs: np.ndarray


def _text_runs(piece: str, line: int) -> np.ndarray:
    """Maximal codepoint runs of a body piece's lines, concatenated."""
    return _codepoint_runs(piece.replace("\n", ""))


def _token_runs(piece: str, line: int) -> np.ndarray:
    """The (symbol, count) runs of a body piece's run tokens, all checked at once.

    Whitespace separates tokens; a token is one printable symbol that is not
    an ASCII digit, then decimal digits. The first bad token raises a
    ParseError on its line: line plus the newlines before it. A count is read
    from at most its last 19 digits, in uint64, and only after its
    significant digits are counted, so a count past the bound is rejected
    unconverted.
    """
    cps = _codepoints(piece)
    chars, kind = np.unique(cps, return_inverse=True)
    traits = [(chr(c).isspace(), chr(c).isprintable()) for c in chars.tolist()]
    space, printable = np.array(traits).T
    solid = ~space[kind]
    digit = (cps >= ord("0")) & (cps <= ord("9"))
    edges = np.diff(solid.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)

    stray = solid & ~digit
    stray[starts] = False
    bad = digit[starts] | (ends - starts < 2) | np.logical_or.reduceat(stray, starts)
    # significant digits run from a token's first nonzero digit to its end
    nonzero = np.append(np.flatnonzero(digit & (cps != ord("0"))), cps.size)
    sig = ends - nonzero[np.searchsorted(nonzero, starts + 1)]
    pos = np.flatnonzero(digit)
    token = np.searchsorted(starts, pos, side="right") - 1
    place = ends[token] - 1 - pos
    low = place < len(_POW10)
    counts = np.zeros(len(starts), dtype=np.uint64)
    values = (cps[pos[low]] - ord("0")).astype(np.uint64)
    np.add.at(counts, token[low], values * _POW10[place[low]])

    # the first failing token is reported, by the first check it fails
    big = (sig > len(_POW10)) | (counts > np.uint64(MAX_DECODED_LENGTH))
    checks = (
        (bad, "bad run token {!r}"),
        (~printable[kind[starts]], "unprintable symbol in token {!r}"),
        (sig < 1, "run count must be >= 1 in token {!r}"),
        (big, f"run count exceeds bound {MAX_DECODED_LENGTH} in token {{!r}}"),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        message = next(message for mask, message in checks if mask[k])
        line += piece.count("\n", 0, starts[k])
        raise ParseError(message.format(piece[starts[k] : ends[k]]), line)
    return np.column_stack((cps[starts], counts.astype(np.int64)))


def _merge(name: str, pieces: list[np.ndarray], tokens: bool) -> RunRecord:
    """One record from its pieces' runs, equal neighbouring runs merged.

    Text runs meet across line and block breaks and merge silently. Run
    tokens with one symbol merge with a warning, once the record is checked
    against the bound; then no merged sum wraps.
    """
    runs = np.concatenate([_NO_RUNS, *pieces])
    keep = np.flatnonzero(np.diff(runs[:, 0], prepend=-1))
    if len(keep) < len(runs):
        if tokens:
            merged = len(runs) - len(keep)
            warnings.warn(f"record {name}: merged {merged} adjacent equal-symbol runs")
            _content_length(name, runs[:, 1])
        runs = np.column_stack((runs[keep, 0], np.add.reduceat(runs[:, 1], keep)))
    return RunRecord(name, runs)


def _read_records(
    stream, tokens: bool, before_header: str = "", unique: bool = False, name: str | None = None
) -> list[RunRecord]:
    """Records of a format whose records open with ">name" header lines.

    The input is read in blocks of whole lines, about BLOCK_CHARS characters
    each. Every line is stripped and put after a "\n", so a header is a
    "\n>" and a position's line number is the lines before its piece plus
    the newlines before it. Each body piece between headers becomes runs at
    once (_token_runs if tokens, else _text_runs), so a record's first bad
    token raises before the next header is checked and every line-numbered
    error comes in line order; a record closes through _merge. unique
    rejects repeated names; empty records are refused last. With name given
    no line is a header: the whole input is that record's body, and it may
    be empty.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    body_runs = _token_runs if tokens else _text_runs
    headed = name is None
    records: list[RunRecord] = []
    names: set[str] = set()
    pieces: list[np.ndarray] | None = None if headed else []
    line = 0  # lines before the current piece
    while lines := stream.readlines(BLOCK_CHARS):
        block = "\n".join(["", *map(str.strip, lines)])
        del lines
        parts = block.split("\n>") if headed else [block]
        del block
        for k, body in enumerate(parts):
            if k:
                line += 1
                if pieces is not None:
                    records.append(_merge(name, pieces, tokens))
                head = body.partition("\n")[0]
                body = body[len(head) :]
                name = head.strip()
                if not name:
                    raise ParseError("missing record name", line)
                if unique and name in names:
                    raise ParseError(f"duplicate record name {name!r}", line)
                names.add(name)
                pieces = []
            newlines = body.count("\n")
            if len(body) > newlines:
                if pieces is None:
                    raise ParseError(before_header, line + len(body) - len(body.lstrip("\n")))
                pieces.append(body_runs(body, line))
            line += newlines
        del parts, body  # so no block outlives its turn
    if pieces is not None:
        records.append(_merge(name, pieces, tokens))
    for record in records:
        if headed and not len(record.runs):
            raise ParseError(f"empty record {record.name}")
    return records


def read_rle_records(stream) -> list[RunRecord]:
    """Read the run-length text format into codepoint-run records.

    Records open with ">name"; body lines hold whitespace separated tokens of
    one printable symbol character followed by a decimal count, e.g. "a12 b3".
    Names must be unique. Adjacent tokens with the same symbol are merged
    with a warning.
    """
    before = "run data before the first record header"
    return _read_records(stream, True, before, unique=True)


def read_fasta_records(stream) -> list[RunRecord]:
    """Read FASTA records as codepoint runs, folding stripped body lines.

    Body lines are run-encoded a block at a time, so no record's decoded
    text is held whole.
    """
    return _read_records(stream, False, "sequence data before the first header")


def read_text_record(stream, name: str) -> RunRecord:
    """Read raw text as one record: every line stripped, then concatenated."""
    return _read_records(stream, False, name=name)[0]


def build_rle_sequences(
    records: list[RunRecord],
    alphabet: Alphabet | None = None,
) -> tuple[list[RleSeq], Alphabet]:
    """build_text_sequences for run-length records, which are codepoint runs like any other."""
    return build_text_sequences(records, alphabet)


def build_text_sequences(
    records: list[RunRecord],
    alphabet: Alphabet | None = None,
) -> tuple[list[RleSeq], Alphabet]:
    """Encode codepoint-run records over one shared alphabet.

    The alphabet comes from the records' distinct run codepoints.
    """
    if alphabet is None:
        codepoints = np.concatenate([_NO_RUNS[:, 0], *(record.runs[:, 0] for record in records)])
        alphabet = Alphabet.from_symbols(map(chr, np.unique(codepoints).tolist()))
    seqs = []
    for name, runs in records:
        if not len(runs):
            raise ValueError(f"empty record {name}")
        seqs.append(_seq_from_runs(name, runs, alphabet))
    return seqs, alphabet


def parse_rle_text(stream) -> tuple[list[RleSeq], Alphabet]:
    """Parse the run-length text format into sequences plus their alphabet."""
    return build_rle_sequences(read_rle_records(stream))


def parse_fasta(stream) -> tuple[list[RleSeq], Alphabet]:
    """Parse FASTA records and run-length encode each one."""
    return build_text_sequences(read_fasta_records(stream))
