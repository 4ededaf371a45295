"""Suffix ordering of a family of run-length encoded sequences, and the lcp of any two suffixes.

Only suffixes that begin at run boundaries take part. token_string lays the
k sequences out as one token string, each followed by its own terminator:
sequence j's runs, then the terminator run (j + 2 - k, 1), so a pair (k = 2)
ends in ids 0 and 1. A terminator counts as the run after its sequence's
last. A SuffixOrder maps each rank to the token its suffix starts at. All
depths and lcp values here are decoded lengths, never run counts. The token
key columns come straight from the int64 run arrays, and every key and rank
fits in int64. Decoded lcps and suffix lengths stay within one sequence (at
most 2^62), so they come from one int64 prefix sum per sequence; a prefix
sum over two sequences could already reach 2^63.

Every sort on the way to the order is a value sort (_value_sort): a key of
n non-negative entries below 2^bits carries each entry's index in its low
b = n.bit_length() bits, so it needs bits + b <= 63. rank0 folds its three
key columns into one such key, re-ranking the key so far wherever the next
bits would not fit; a doubling round's key takes 2b bits, so its sort is a
value sort for n < 2^21 tokens. Only past 63 bits does the order come from
np.argsort.

The engine builds its query trie straight from the order and drops the
order once that trie exists. The trie's gaps are the lcps of the leaf pairs
it needs, taken by SuffixOrder.lcp from the doubling rounds the sort already
made. The lcp of every pair of rank neighbors (SuffixOrder.dlcp) and every
suffix's decoded length (SuffixOrder.suffix_lengths) are built only when
read, by verify and the tests, which check them against the brute sort
(oracle.brute_suffix_sort); the trie reads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from rleacs.rle import RleSeq


@dataclass(frozen=True, eq=False)
class SuffixOrder:
    """All run-start suffixes of a family of sequences, sorted by decoded string order.

    tokens[k] is the token index of the suffix at rank k. The rest serves
    lcp: syms[t] and run_lengths[t] are token t's symbol and run length (1
    for a terminator), starts[t] its decoded offset inside its sequence,
    and rounds the rank arrays of every doubling round (_prefix_double).
    rounds are int32 below 2^31 tokens; every other array is int64.
    """

    seqs: tuple[RleSeq, ...]
    tokens: np.ndarray
    syms: np.ndarray
    run_lengths: np.ndarray
    starts: np.ndarray
    rounds: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def lcp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Decoded lcp of the suffixes at tokens a[i] and b[i], for int64 arrays with a != b.

        h counts the leading tokens with equal keys, by one descent through
        the doubling rounds for all pairs at once (Manber & Myers): the last
        round's ranks are distinct, so every count is below its 2^k, and
        round k adds 2^k wherever the next 2^k keys still agree. Equality is
        key equality (rank0), the relation that orders the suffixes; a
        coarser one, such as equal (symbol, length), would share tokens
        across boundaries the order resolves by group or next symbol. A
        unique terminator ends every shared block, so a + h and b + h stay
        in the sequences of a and b. The decoded lcp is the shared tokens'
        length plus the shorter run where tokens a + h and b + h still share
        a symbol.
        """
        h = np.zeros(len(a), dtype=np.int64)
        for k in range(len(self.rounds) - 2, -1, -1):
            rank = self.rounds[k]
            h += (rank[a + h] == rank[b + h]).astype(np.int64) << k
        a_end = a + h
        b_end = b + h
        same = self.syms[a_end] == self.syms[b_end]
        shorter = np.minimum(self.run_lengths[a_end], self.run_lengths[b_end])
        return self.starts[a_end] - self.starts[a] + np.where(same, shorter, 0)

    @cached_property
    def dlcp(self) -> np.ndarray:
        """dlcp[k], the lcp of the suffixes at ranks k and k + 1, built on first
        read; only verify and the tests read it."""
        return self.lcp(self.tokens[:-1], self.tokens[1:])

    @cached_property
    def suffix_lengths(self) -> np.ndarray:
        """suffix_lengths[k], the decoded length of the suffix at rank k
        (terminator included), built on first read; only verify, the oracle
        comparison and the tests read it."""
        bounds = token_bounds(self.seqs)
        # a sequence ends one past the start of its last token, its terminator
        seq_end = np.repeat(self.starts[bounds[1:] - 1] + 1, np.diff(bounds))
        return seq_end[self.tokens] - self.starts[self.tokens]


def token_string(*seqs: RleSeq) -> np.ndarray:
    """The k sequences as one int64 array of (symbol, length) tokens.

    Sequence j's runs, then its terminator run (j + 2 - k, 1), for j = 0..k-1.
    The terminator ids are unique in the string and below every symbol id.
    """
    k = len(seqs)
    return np.concatenate([np.vstack((seq.runs, (j + 2 - k, 1))) for j, seq in enumerate(seqs)])


def token_bounds(seqs) -> np.ndarray:
    """The token index where each sequence starts, then one past the last: k + 1 indices."""
    return np.cumsum([0] + [len(seq.runs) + 1 for seq in seqs])


def _token_columns(seqs, bounds: np.ndarray):
    """The family's token string, with its token_bounds, as per-token sort-key columns.

    A token's key (sym, group, signed, next_sym) compares two suffixes exactly
    as their decoded strings do whenever the keys differ, given maximal runs:

    - differing sym: the first decoded character decides;
    - equal sym, differing group: a run followed by a smaller symbol (group 0)
      precedes one followed by a larger symbol (group 1) no matter the lengths,
      because the comparison falls off the shorter run into that symbol;
    - same group: shorter runs first in group 0 (+length), longer runs first
      in group 1 (-length);
    - all else equal: the following symbols get compared directly.

    Terminator tokens get signed 0 and next_sym -1; their sym is unique in
    the token string, so it alone orders them. The fifth column is each
    token's decoded length, its run length (1 for a terminator).
    """
    syms, decoded = token_string(*seqs).T
    ends = bounds[1:] - 1
    nexts = np.empty_like(syms)
    nexts[:-1] = syms[1:]
    nexts[ends] = -1
    # adjacent runs differ, so group 1 is exactly "next symbol is larger"
    groups = (nexts > syms).astype(np.int64)
    signed = np.where(groups == 0, decoded, -decoded)
    signed[ends] = 0
    return syms, groups, signed, nexts, decoded


def _value_sort(key: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """key sorted ascending, and the order that sorts it: key[order] is the sorted key.

    key holds n non-negative int64 values below 2^bits, and is consumed.
    With b = n.bit_length(), index < n < 2^b, so where bits + b <= 63 each
    entry's index rides in the low b bits of key << b | index: one in-place
    value sort of that array orders both, equal keys by index, and one mask
    and one shift part them again. On int64 a value sort takes a fraction
    of an argsort's time. Past 63 bits the order is np.argsort(key).
    """
    n = len(key)
    b = n.bit_length()
    if bits + b > 63:
        order = np.argsort(key)
        return key[order], order
    key <<= b
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << b) - 1)
    key >>= b
    return key, order


def _ranks(sorted_key: np.ndarray, order: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the entries that order sorts into sorted_key, and the largest rank.

    The ranks are written to out, and out is returned; out may be
    sorted_key itself, which is read in full before out is written.
    """
    bump = np.empty_like(out)
    bump[0] = 0
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=bump[1:])
    np.cumsum(bump, out=bump)
    out[order] = bump
    return out, int(bump[-1])


def _dense_rank(columns: list[np.ndarray]) -> np.ndarray:
    """Dense ranks of row tuples; columns[0] is the most significant key.

    Each column enters as its offset from its minimum, an order-preserving
    code of span.bit_length() bits, and the codes are folded, most
    significant first, into one int64 key. The key must leave b =
    n.bit_length() bits free for _value_sort's index, so a code's bits
    are shifted in only as far as they fit; then the key so far is replaced
    by its dense rank, which orders as it does and takes at most b bits,
    and the code's lower bits follow. A column of signed run lengths near
    +-2^62 thus enters in two parts around one re-rank, where a dense rank
    of the column alone would take an argsort. The key's dense rank, by one
    more value sort, is the tuples'. The span is taken in Python ints; a
    column may span 2^63 or more, and its offset then wraps in int64, but
    read as uint64 it is exact.
    """
    n = len(columns[0])
    budget = 63 - n.bit_length()
    key, bits = np.zeros(n, dtype=np.int64), 0
    for col in columns:
        low = int(col.min())
        width = (int(col.max()) - low).bit_length()
        offset = (col - low).view(np.uint64)
        while width:
            if bits == budget:
                key, order = _value_sort(key, bits)
                key, top = _ranks(key, order, out=key)
                bits = top.bit_length()
            take = min(width, budget - bits)
            width -= take
            if width:
                # the top take bits go in now, the rest after a re-rank
                digit = offset >> np.uint64(width)
                offset &= np.uint64((1 << width) - 1)
            else:
                digit, offset = offset, None
            key <<= take
            key |= digit.view(np.int64)
            del digit
            bits += take
    key, order = _value_sort(key, bits)
    return _ranks(key, order, out=key)[0]


def _prefix_double(rank0: np.ndarray) -> list[np.ndarray]:
    """Rank arrays of every doubling round over the token string's suffixes.

    Round k ranks each suffix by its first 2^k token keys; round 0 is rank0
    and the last round orders all suffixes. Each later round ranks by one
    int64 key, rank << b | shifted + 1 with b = n.bit_length(), where
    shifted is the rank 2^(k-1) tokens on, or -1 past the end: rank and
    shifted + 1 are at most n, below 2^b, so the key orders as the pair
    (rank, shifted) does, and its dense rank, by _value_sort and a bump
    where the sorted key changes, is the pair's (Manber & Myers). The key
    takes 2b bits, so with the index's b it is a value sort for n < 2^21
    tokens and an argsort above. The largest rank, the end of the bump's
    running sum, tells when the ranks are distinct.
    rounds <= ceil(log2 N) + 1, so keeping them all, as SuffixOrder does,
    takes O(N * rounds) memory; ranks are below n, so below 2^31 tokens they
    are kept as int32, half that.
    """
    n = len(rank0)
    b = n.bit_length()
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rounds = [rank0.astype(dtype)]
    top = int(rank0.max())
    step = 1
    while top != n - 1:
        if step > 2 * n:
            raise AssertionError("suffix ranks failed to become distinct")
        key = rounds[-1].astype(np.int64) << b
        key[: n - step] |= rounds[-1][step:] + 1
        key, order = _value_sort(key, 2 * b)
        rank, top = _ranks(key, order, out=np.empty(n, dtype=dtype))
        rounds.append(rank)
        step *= 2
    return rounds


def build_suffix_order(*seqs: RleSeq) -> SuffixOrder:
    """Sort all run-start suffixes of the sequences into decoded order.

    Tokens are ranked by their sort keys, (sym, group) folded into one, so
    rank0 is a dense rank over three keys, folded into one int64 key
    (_dense_rank). The token string is then suffix-sorted by prefix
    doubling, whose rounds the order keeps for lcp; the last round's ranks
    are distinct, so the order is their inverse, one scatter.
    Unique terminator tokens stop every comparison at or before a sequence
    boundary, so one token string holds all the sequences safely, and a
    suffix and its shared prefix lie in one sequence, so each sequence gets
    its own prefix sum of run lengths (starts). No lcp is computed here.
    """
    bounds = token_bounds(seqs)
    syms, groups, signed, nexts, decoded = _token_columns(seqs, bounds)
    # group is 0 or 1, so (sym, group) orders as the one key sym * 2 + group
    rounds = _prefix_double(_dense_rank([syms * 2 + groups, signed, nexts]))
    # the last round's ranks are distinct: the order is their inverse
    order = np.empty(len(syms), dtype=np.int64)
    order[rounds[-1]] = np.arange(len(syms))
    ends = np.concatenate([np.cumsum(part) for part in np.split(decoded, bounds[1:-1])])
    return SuffixOrder(
        seqs=seqs,
        tokens=order,
        syms=syms,
        run_lengths=decoded,
        starts=ends - decoded,
        rounds=tuple(rounds),
    )
