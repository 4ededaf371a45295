"""Run-length encoded sequences, alphabets, and the text formats that carry them."""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

SENTINEL_FIRST = 0
SENTINEL_SECOND = 1
FIRST_SYMBOL_ID = 2

# External characters that would collide with the sentinel rendering of decode_ids.
RESERVED_CHARS = ("\x00", "\x01")

MAX_DECODED_LENGTH = 1 << 62
DEFAULT_DECODE_LIMIT = 1 << 26

# Stripped body lines are run-encoded in blocks of about this many characters,
# so FASTA and raw-text ingest never hold a record's decoded text whole.
BLOCK_CHARS = 1 << 20


class ParseError(ValueError):
    """Input format violation, annotated with a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Run(NamedTuple):
    sym: int
    length: int


@dataclass(frozen=True)
class Alphabet:
    """Injective map between external characters and internal symbol ids.

    Ids start at FIRST_SYMBOL_ID and follow codepoint order, so comparing ids
    is the same as comparing the characters they stand for. Ids 0 and 1 are
    reserved for the two per-sequence sentinels and sort below everything.
    """

    to_id: dict[str, int]
    to_char: dict[int, str]

    @classmethod
    def from_symbols(cls, symbols: Iterable[str]) -> "Alphabet":
        ordered = sorted(set(symbols))
        for ch in RESERVED_CHARS:
            if ch in ordered:
                raise ValueError(f"reserved symbol {ch!r}")
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


@dataclass(frozen=True)
class RleSeq:
    """A named sequence stored as maximal (symbol, length) runs.

    The last run is always a length-1 sentinel whose id is unique to the
    sequence within a pair and smaller than every alphabet id. decoded_length
    counts the sentinel.
    """

    name: str
    runs: tuple[Run, ...]
    decoded_length: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.runs) < 2:
            raise ValueError(f"{self.name}: empty sequence")
        total = 0
        last = len(self.runs) - 1
        prev_sym = None
        for k, (sym, length) in enumerate(self.runs):
            if length < 1:
                raise ValueError(f"{self.name}: run length must be >= 1, got {length}")
            if sym == prev_sym:
                raise ValueError(f"{self.name}: adjacent runs share symbol id {sym}")
            if k < last and sym < FIRST_SYMBOL_ID:
                raise ValueError(f"{self.name}: sentinel id {sym} inside sequence body")
            prev_sym = sym
            total += length
        sent = self.runs[last]
        if sent.sym not in (SENTINEL_FIRST, SENTINEL_SECOND) or sent.length != 1:
            raise ValueError(f"{self.name}: final run must be a length-1 sentinel")
        if total > MAX_DECODED_LENGTH:
            raise ValueError(
                f"{self.name}: decoded length {total} exceeds bound {MAX_DECODED_LENGTH}"
            )
        object.__setattr__(self, "decoded_length", total)

    @property
    def sentinel(self) -> int:
        return self.runs[-1].sym

    @property
    def content_runs(self) -> tuple[Run, ...]:
        """Runs without the sentinel."""
        return self.runs[:-1]

    @property
    def run_count(self) -> int:
        """Number of runs, sentinel excluded."""
        return len(self.runs) - 1

    @property
    def content_length(self) -> int:
        """Decoded length, sentinel excluded."""
        return self.decoded_length - 1


def encode(
    text: str,
    name: str = "seq",
    alphabet: Alphabet | None = None,
    sentinel: int = SENTINEL_FIRST,
) -> RleSeq:
    """Run-length encode text and append the sentinel run.

    Sequences that will be compared with each other must share one Alphabet,
    otherwise their internal ids are not mutually ordered.
    """
    if not text:
        raise ValueError("empty sequence")
    codepoints, lengths = _codepoint_runs(text)
    return _seq_from_runs(name, codepoints, lengths, alphabet, sentinel)


def _codepoint_runs(text: str) -> tuple[list[int], list[int]]:
    """Maximal runs of a nonempty text as (codepoints, lengths) lists of ints."""
    if text.isascii():
        cps = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        cps = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    bounds = np.concatenate(([0], np.flatnonzero(cps[1:] != cps[:-1]) + 1, [cps.size]))
    return cps[bounds[:-1]].tolist(), np.diff(bounds).tolist()


def _seq_from_runs(
    name: str,
    codepoints: list[int],
    lengths: list[int],
    alphabet: Alphabet | None,
    sentinel: int = SENTINEL_FIRST,
) -> RleSeq:
    """Map maximal codepoint runs onto alphabet ids (an own alphabet if None)."""
    symbols = set(codepoints)
    for ch in RESERVED_CHARS:
        if ord(ch) in symbols:
            raise ValueError(f"reserved symbol {ch!r}")
    if alphabet is None:
        alphabet = Alphabet.from_symbols(map(chr, symbols))
    ids = {ord(ch): sym for ch, sym in alphabet.to_id.items()}
    try:
        runs = [Run(ids[cp], length) for cp, length in zip(codepoints, lengths)]
    except KeyError as exc:
        raise ValueError(f"symbol {chr(exc.args[0])!r} not in alphabet") from None
    runs.append(Run(sentinel, 1))
    return RleSeq(name=name, runs=tuple(runs))


def decode(seq: RleSeq, alphabet: Alphabet, limit: int = DEFAULT_DECODE_LIMIT) -> str:
    """Inverse of encode; the sentinel is stripped."""
    if seq.content_length > limit:
        raise ValueError(f"decode too large: {seq.content_length} > {limit}")
    return "".join(alphabet.to_char[sym] * length for sym, length in seq.content_runs)


def decode_ids(seq: RleSeq, with_sentinel: bool = True, limit: int = DEFAULT_DECODE_LIMIT) -> str:
    """Decoded text with every symbol rendered as chr(internal id).

    Sentinels come out as chr(0) / chr(1), so plain string comparison agrees
    with internal id order.
    """
    if seq.decoded_length > limit:
        raise ValueError(f"decode too large: {seq.decoded_length} > {limit}")
    runs = seq.runs if with_sentinel else seq.content_runs
    return "".join(chr(sym) * length for sym, length in runs)


def ensure_pair(first: RleSeq, second: RleSeq) -> tuple[RleSeq, RleSeq]:
    """Normalize a pair so the two sentinels are distinct and positional."""
    return _with_sentinel(first, SENTINEL_FIRST), _with_sentinel(second, SENTINEL_SECOND)


def _with_sentinel(seq: RleSeq, sym: int) -> RleSeq:
    if seq.sentinel == sym:
        return seq
    return RleSeq(name=seq.name, runs=seq.runs[:-1] + (Run(sym, 1),))


_RUN_TOKEN = re.compile(r"([^\s0-9])([0-9]+)")


def _lines(stream) -> Iterator[str]:
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    return iter(stream)


def read_rle_records(stream) -> list[tuple[str, list[tuple[str, int]]]]:
    """Read the run-length text format into (name, [(char, count), ...]) records.

    Records open with ">name"; body lines hold whitespace separated tokens of
    one printable symbol character followed by a decimal count, e.g. "a12 b3".
    Adjacent tokens with the same symbol are merged with a warning.
    """
    records: list[tuple[str, list[tuple[str, int]]]] = []
    names: set[str] = set()
    current: list[tuple[str, int]] | None = None
    for line_no, raw in enumerate(_lines(stream), 1):
        text = raw.strip()
        if not text:
            continue
        if text.startswith(">"):
            name = text[1:].strip()
            if not name:
                raise ParseError("missing record name", line_no)
            if name in names:
                raise ParseError(f"duplicate record name {name!r}", line_no)
            names.add(name)
            current = []
            records.append((name, current))
            continue
        if current is None:
            raise ParseError("run data before the first record header", line_no)
        for token in text.split():
            match = _RUN_TOKEN.fullmatch(token)
            if match is None:
                raise ParseError(f"bad run token {token!r}", line_no)
            ch, count_text = match.groups()
            if not ch.isprintable():
                raise ParseError(f"unprintable symbol in token {token!r}", line_no)
            count = int(count_text)
            if count < 1:
                raise ParseError(f"run count must be >= 1 in token {token!r}", line_no)
            current.append((ch, count))
    merged_records = []
    for name, pairs in records:
        if not pairs:
            raise ParseError(f"empty record {name}")
        merged: list[tuple[str, int]] = []
        merges = 0
        for ch, count in pairs:
            if merged and merged[-1][0] == ch:
                merged[-1] = (ch, merged[-1][1] + count)
                merges += 1
            else:
                merged.append((ch, count))
        if merges:
            warnings.warn(f"record {name}: merged {merges} adjacent equal-symbol runs")
        merged_records.append((name, merged))
    return merged_records


class TextRuns(NamedTuple):
    """A text record as maximal runs of raw codepoints, before any alphabet."""

    name: str
    codepoints: list[int]
    lengths: list[int]


class _RunCollector:
    """Maximal codepoint runs of text fed line by line, encoded a block at a time.

    Lines wait until about BLOCK_CHARS characters have gathered, then the
    joined block goes through _codepoint_runs; a run still open at the end of
    one block merges with the first run of the next when they share a
    codepoint.
    """

    def __init__(self) -> None:
        self.codepoints: list[int] = []
        self.lengths: list[int] = []
        self._block: list[str] = []
        self._chars = 0

    def add(self, line: str) -> None:
        self._block.append(line)
        self._chars += len(line)
        if self._chars >= BLOCK_CHARS:
            self._flush()

    def _flush(self) -> None:
        if not self._chars:
            return
        codepoints, lengths = _codepoint_runs("".join(self._block))
        self._block.clear()
        self._chars = 0
        if self.codepoints and self.codepoints[-1] == codepoints[0]:
            self.lengths[-1] += lengths[0]
            del codepoints[0], lengths[0]
        self.codepoints += codepoints
        self.lengths += lengths

    def record(self, name: str) -> TextRuns:
        self._flush()
        return TextRuns(name, self.codepoints, self.lengths)


def read_fasta_records(stream) -> list[TextRuns]:
    """Read FASTA records as codepoint runs, folding stripped body lines.

    Body lines are run-encoded a block at a time (_RunCollector), so no
    record's decoded text is held whole.
    """
    records: list[TextRuns] = []
    name = ""
    body: _RunCollector | None = None
    for line_no, raw in enumerate(_lines(stream), 1):
        text = raw.strip()
        if not text:
            continue
        if text.startswith(">"):
            if body is not None:
                records.append(body.record(name))
            name = text[1:].strip()
            if not name:
                raise ParseError("missing record name", line_no)
            body = _RunCollector()
            continue
        if body is None:
            raise ParseError("sequence data before the first header", line_no)
        body.add(text)
    if body is not None:
        records.append(body.record(name))
    for record in records:
        if not record.lengths:
            raise ValueError(f"empty record {record.name}")
    return records


def read_text_record(stream, name: str) -> TextRuns:
    """Read raw text as one record: every line stripped, then concatenated."""
    body = _RunCollector()
    for raw in _lines(stream):
        text = raw.strip()
        if text:
            body.add(text)
    return body.record(name)


def build_rle_sequences(
    records: list[tuple[str, list[tuple[str, int]]]],
    alphabet: Alphabet | None = None,
) -> tuple[list[RleSeq], Alphabet]:
    """Turn parsed run records into sentinel-terminated sequences over one alphabet."""
    if alphabet is None:
        alphabet = Alphabet.from_symbols(ch for _, pairs in records for ch, _ in pairs)
    seqs = []
    for name, pairs in records:
        runs = tuple(Run(alphabet.to_id[ch], count) for ch, count in pairs)
        seqs.append(RleSeq(name=name, runs=runs + (Run(SENTINEL_FIRST, 1),)))
    return seqs, alphabet


def build_text_sequences(
    records: list[TextRuns],
    alphabet: Alphabet | None = None,
) -> tuple[list[RleSeq], Alphabet]:
    """Encode codepoint-run records over one shared alphabet.

    The alphabet comes from the records' distinct run codepoints.
    """
    if alphabet is None:
        alphabet = Alphabet.from_symbols(
            map(chr, set().union(*(record.codepoints for record in records)))
        )
    seqs = []
    for name, codepoints, lengths in records:
        if not lengths:
            raise ValueError(f"empty record {name}")
        seqs.append(_seq_from_runs(name, codepoints, lengths, alphabet))
    return seqs, alphabet


def parse_rle_text(stream) -> tuple[list[RleSeq], Alphabet]:
    """Parse the run-length text format into sequences plus their alphabet."""
    return build_rle_sequences(read_rle_records(stream))


def parse_fasta(stream) -> tuple[list[RleSeq], Alphabet]:
    """Parse FASTA records and run-length encode each one."""
    return build_text_sequences(read_fasta_records(stream))
