"""One query trie over the suffixes, in blocks by their preceding run's symbol.

The paper answers each run of symbol c from a compact trie T_c over the
suffixes that follow a c-run. Those tries are the root's subtrees in one
compact trie, built here straight from the suffix order of a family of k
sequences: its leaves are the ranks whose suffix follows a run (every token
of the family's token string but the k sequence starts), one contiguous
block per preceding-run symbol, ranks ascending inside a block. The gap
between two neighbors in a block is the lcp of their suffixes, one descent
through the doubling rounds for all of them (SuffixOrder.lcp); between
blocks it is 0.

extract_symbol_tries is the one build call, from the family's sequences
to the trie. It sorts their suffixes (build_suffix_order), reads the
leaves and gaps (leaf_blocks) and the token layout from the order, and
drops the order, rounds and all, before any node array exists. It then
builds parent and str_depth from the gaps alone: an internal node is a run
of equal gaps with no smaller gap between them, and its parent, and a
leaf's, follow from the nearest smaller gaps, found by pointer jumping and
then a descent over a sparse table of minima; O(m log m) for m leaves, with
no Python loop over nodes. It keeps the internal nodes only, since every
search starts at the parent of the leaf after a run; run_parents, that
parent for each token of the token string; and the layout, which every
query slices.

The answers against sequence j need one column, built by annotate: freq,
the largest length of a preceding sequence-j run among the leaves below
each node; weight, which turns "sum of ancestor depths over a range of
thresholds" into two node lookups; supported, each node's deepest
ancestor-or-self with freq >= 1; and max_run, sequence j's longest run of
each symbol. Other ancestor searches climb by binary lifting
(SymbolTrie.climb), so a batch of q queries costs O(q log N). Weights are
int64, exact mod 2^64, and exact outright while 4 * M * D <= 2^62; past
that bound the few runs whose sums may not fit int64 (limb_runs, see
SymbolTrie) also read exact weights in two int64 limbs (limb_product,
limb_carry) over the ancestors of their leaves alone. Every step is a
numpy array expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rleacs.rle import RleSeq
from rleacs.suffixes import CODE_LIMIT, SuffixOrder, build_suffix_order, order_codes

LIMB_BITS = 62
LIMB_MASK = (1 << LIMB_BITS) - 1
HALF_BITS = 31
HALF_MASK = (1 << HALF_BITS) - 1
# rounds of pointer jumping before the trie build's open nearest-smaller
# searches fall back on the sparse-table descent
JUMP_ROUNDS = 4
# a trie's limb runs, and a column's limb weights, where it has none
NO_RUNS = np.zeros(0, dtype=np.int64)
NO_LIMBS = np.zeros((2, 0), dtype=np.int64)
NO_RUNS.flags.writeable = NO_LIMBS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class SymbolTrie:
    """Compact trie over the suffixes that follow a run, blocked by its symbol.

    Only the root and the internal nodes are kept: node 0 is the root, with
    parent -1, and the internal nodes follow, numbered in the order of the
    first gap each owns, so internal is len(parent). A leaf is known by its
    parent alone: run_parents[t] is the parent of the leaf of the suffix
    after token t of the family's token string. syms and lengths are the
    suffix order's token layout, each token's symbol and run length (1 for
    a terminator), and bounds its token bounds: record j's runs are entries
    bounds[j] to bounds[j + 1] - 2 (record(j)), and its terminator's
    run_parents entry, which no leaf follows, is the root. The leaves
    of one preceding-run symbol form a contiguous block, in suffix order,
    and the blocks follow symbol order; node_count counts them as nodes
    internal onward. up[k] maps each internal node to its 2^k-th ancestor
    (_lifting_rows). Every array is read-only int64. symbols is one more
    than the family's largest symbol id. One shape serves every sequence's
    column: swapping which sequence is queried only swaps the order of
    leaves with equal decoded content, which are siblings.

    Columns are int64. Their weights, and every run sum answered from
    them, are exact mod 2^64: past 2^63 the sums wrap, and every step after
    them is a ring operation. A run sum R below 2^63 is then exact
    outright. Two bounds prove that for a run of length f, with p its
    run_parents entry and d the decoded length of the suffix after it:

    - The build's: 4 * M * D <= 2^62, with M the family's longest run and
      D its longest record's decoded length plus 1. f + d <= D, since a run
      and the suffix after it lie in one record. A weight sums freq <= M
      times steps that add up to str_depth <= D, so it, and every partial
      sum of its doubling, is at most M * D; the closed form's one product
      g * (depth[u] + f - g // 2), with g <= f and depth[u] <= d, is at most
      M * D, and with g // 2 and weight[v] added before weight[u] is taken,
      below 4 * M * D; and R, f matches of at most D each, is at most
      M * D. Every run of the family then fits, and no limb set is built.
    - The run's: depth[p] + f < 2^31. With v, u and g = min(f, m) as in
      engine._closed_form, R = weight[v] - weight[u] + g * (depth[u] + f -
      g) + g * (g + 1) / 2. u is v's deepest ancestor-or-self with freq >=
      g, so every node below u down to v has freq < g, and weight[v] -
      weight[u] <= g * (depth[v] - depth[u]). So R <= g * (depth[v] + f) <=
      f * (depth[p] + f) < 2^62, v being an ancestor-or-self of p.

    Past the build's bound, limb_runs holds the tokens that fail the run's
    test (limb_tokens), and limb_nodes the ancestors-or-self of their
    run_parents entries, ascending, the root among them; limb_up holds the
    lifting rows over limb_nodes, each entry a position in limb_nodes. A
    column then also holds exact limb weights over limb_nodes, and those
    runs alone are answered on limbs. Within the bound all three are empty.
    A trie built with _exact flags every token, so limb_nodes is every
    internal node and every run is answered on limbs, and the two
    arithmetics can be compared.

    Lengths and depths are at most 2^62, so an exact weight is below 2^124
    and its hi limb below 2^62; so is every partial sum of the doubling.
    The limb sum of two such values is then below 2^63 before its carry,
    and so is every intermediate of limb_product; a run's limb closed form
    orders its additions to the same end (engine._closed_form). A record's
    total can pass 2^63 on either arithmetic, so exact_total sums it by
    31-bit pieces.

    Every column reads two arrays that do not depend on the column, so
    they are built once, with the trie: above[v] is v's parent with the
    root its own, the first lifting row where there is one, and step[v] is
    str_depth[v] - str_depth[above[v]].
    """

    parent: np.ndarray
    str_depth: np.ndarray
    up: tuple[np.ndarray, ...]
    run_parents: np.ndarray
    syms: np.ndarray
    lengths: np.ndarray
    bounds: np.ndarray
    symbols: int
    limb_runs: np.ndarray
    above: np.ndarray = field(init=False)
    step: np.ndarray = field(init=False)
    limb_nodes: np.ndarray = field(init=False)
    limb_up: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        above = self.up[0] if self.up else np.zeros(self.internal, dtype=np.int64)
        step = self.str_depth - self.str_depth[above]
        above.flags.writeable = step.flags.writeable = False
        object.__setattr__(self, "above", above)
        object.__setattr__(self, "step", step)
        limb_nodes, limb_up = self.limb_runs, ()
        if self.limb_runs.size:
            parents = self.run_parents[self.limb_runs]
            limb_nodes, limb_up = _ancestor_closure(parents, self.up, self.internal)
        object.__setattr__(self, "limb_nodes", limb_nodes)
        object.__setattr__(self, "limb_up", limb_up)

    @property
    def internal(self) -> int:
        return len(self.parent)

    @property
    def node_count(self) -> int:
        # every token but the k terminators has a leaf after it
        return self.internal + len(self.run_parents) - (len(self.bounds) - 1)

    def record(self, i: int) -> slice:
        """Sequence i's tokens but its terminator: its runs' entries of every layout array."""
        i = range(len(self.bounds) - 1)[i]
        return slice(self.bounds[i], self.bounds[i + 1] - 1)

    def climb(self, starts: np.ndarray, thresholds, freq: np.ndarray) -> np.ndarray:
        """Deepest ancestor-or-self of each internal start node with freq >= its threshold, or -1.

        starts and thresholds are int64 arrays (or broadcast against each
        other); the result has one node per pair. freq, a column's, never
        decreases toward the root, so the qualifying ancestors form a prefix
        of the root path, and a start that qualifies is its own answer.
        Every step lands on an internal node, which is all that freq and the
        lifting rows cover. The climb takes every lifting jump that stays
        strictly below the threshold, from the longest down, one np.where
        per row, and then steps to the parent, the answer if it qualifies
        and -1 if not. A start is at most 2^rows levels below the root and
        the jumps reach 2^rows - 1 of them, so they stop at the shallowest
        node below the threshold, or one level under the root when the root
        is below it too. (Past the root the step reads freq[-1], but returns
        -1 either way.)
        """
        thresholds = np.asarray(thresholds, dtype=np.int64)
        v = starts
        for row in reversed(self.up):
            a = row[v]
            v = np.where(freq[a] < thresholds, a, v)
        above = self.parent[v]
        return np.where(freq[v] >= thresholds, v, np.where(freq[above] >= thresholds, above, -1))


@dataclass(frozen=True, eq=False)
class Column:
    """One sequence's annotation of a SymbolTrie (see annotate): read-only int64
    freq, weight and supported per internal node, max_run per symbol id, and
    limb_weight, the exact weights of the trie's limb_nodes as a (2,
    len(limb_nodes)) int64 array of limbs, rows hi and lo, weight = hi *
    2^62 + lo (exact_ints reads them). weight is exact mod 2^64, and
    exact within the trie's int64 bound (see SymbolTrie). supported[v] is
    v's deepest ancestor-or-self with freq >= 1, the threshold-1 climb's
    answer from v. Node v is entry v, as in the trie's own arrays, and
    limb_nodes[i] is limb_weight's column i."""

    freq: np.ndarray
    weight: np.ndarray
    limb_weight: np.ndarray
    max_run: np.ndarray
    supported: np.ndarray


def limb_tokens(str_depth: np.ndarray, run_parents: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The tokens that fail the run's test of SymbolTrie, depth[p] + f < 2^31,
    ascending: those whose run sums int64 may not hold."""
    reach = str_depth[run_parents]
    reach += lengths
    return np.flatnonzero(reach >= 1 << HALF_BITS)


def _ancestor_closure(nodes: np.ndarray, up: tuple[np.ndarray, ...], internal: int):
    """The ancestors-or-self of internal nodes, ascending, and the lifting rows over them.

    After row k of up every node within 2^(k+1) - 1 levels above one of
    nodes is marked. The rows reach 2^rows - 1 levels, and only the root
    may lie further (see _lifting_rows), so it is marked from the start.
    The set is closed under every row, so each row maps it into itself,
    renumbered by position in the set.
    """
    marked = np.zeros(internal, dtype=bool)
    marked[0] = True
    marked[nodes] = True
    for row in up:
        marked[row[marked]] = True
    closure = np.flatnonzero(marked)
    rows = tuple(np.searchsorted(closure, row[closure]) for row in up)
    for array in (closure, *rows):
        array.flags.writeable = False
    return closure, rows


def _lifting_rows(parent: np.ndarray) -> tuple[np.ndarray, ...]:
    """up[k][v], the 2^k-th ancestor of v, clamped at the root (node 0).

    parent is the trie's, over its root and internal nodes. The root is
    its own ancestor, so no row needs a mask. Rows double until the next
    would map every node to the root and so equal the one after it; it is
    not kept, since a climb starts at a leaf's parent, an internal node at
    most 2^rows levels below the root, needs at most 2^rows - 1 jumps, and
    the kept rows' jumps sum to that. When every internal node hangs from
    the root there are no rows.
    """
    up = []
    row = np.maximum(parent, 0)
    while row.any():
        if len(up) == len(parent).bit_length():
            raise AssertionError("parent pointers do not all lead to the root")
        row.flags.writeable = False
        up.append(row)
        row = row[row]
    return tuple(up)


def limb_carry(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with lo brought into [0, 2^62) and its excess moved into hi.

    lo may be any int64: the arithmetic shift rounds toward minus infinity,
    so a negative lo borrows from hi.
    """
    return hi + (lo >> LIMB_BITS), lo & LIMB_MASK


def limb_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b as limbs (hi, lo), for int64 arrays with entries in [0, 2^62].

    Every factor the engine passes is in range: lengths, depths and the
    closed form's depth[u] + f - g, at most f + d <= D <= 2^62, since a run
    and the suffix after it lie in one record (see SymbolTrie).

    Each factor splits into 31-bit halves, a = a1 * 2^31 + a0 with a1 <= 2^31.
    The middle sum a1 * b0 + a0 * b1 is below 2^63; its low 31 bits, shifted
    up, join a0 * b0 in lo (below 2^63 before the carry), and its high bits
    join a1 * b1 (at most 2^62) in hi.
    """
    a1, a0 = a >> HALF_BITS, a & HALF_MASK
    b1, b0 = b >> HALF_BITS, b & HALF_MASK
    # the partial products are formed in place, so few temporaries are alive at once
    mid = a1 * b0
    mid += a0 * b1
    a1 *= b1
    a0 *= b0
    del b1, b0
    a1 += mid >> HALF_BITS
    mid &= HALF_MASK
    mid <<= HALF_BITS
    a0 += mid
    del mid
    return limb_carry(a1, a0)


def exact_total(values: np.ndarray) -> int:
    """The exact sum of a (2, n) limb array, or of an int64 array as its lo row."""
    return exact_totals(values, [0])[0] if values.shape[-1] else 0


def exact_totals(values: np.ndarray, starts) -> list[int]:
    """exact_total of each part of values, part i from starts[i] to the next start.

    No part may be empty. hi, and lo's high and low 31-bit pieces, are
    summed per part in int64, one np.add.reduceat each, then composed in
    Python ints: each piece sum stays below 2^63 while a part is shorter
    than 2^32 and lo is in [0, 2^62], so an int64 array's total may pass
    2^63, and hi's sum is below 2^62 while the total is below 2^124.
    """
    if values.ndim == 2:
        hi, lo = values
        high = np.add.reduceat(hi, starts).tolist()
    else:
        lo, high = values, [0] * len(starts)
    mid = np.add.reduceat(lo >> HALF_BITS, starts).tolist()
    low = np.add.reduceat(lo & HALF_MASK, starts).tolist()
    return [(h << LIMB_BITS) + (m << HALF_BITS) + l for h, m, l in zip(high, mid, low)]


def exact_ints(values: np.ndarray) -> list[int]:
    """Each entry of an int64 array, or each column of a (2, n) limb array, as a Python int.

    This is how run sums, and a column's weights in verify and the tests,
    are read by value whatever the arithmetic path.
    """
    if values.ndim == 1:
        return values.tolist()
    hi, lo = values.tolist()
    return [(h << LIMB_BITS) + l for h, l in zip(hi, lo)]


def annotate(trie: SymbolTrie, parents: np.ndarray, runs: np.ndarray) -> Column:
    """The column of one sequence from its (symbol, length) runs and the
    parent of the leaf after each, the sequence's entries of run_parents.

    freq, weight and supported cover the trie's nodes (see Column).
    max_run[s] is the sequence's longest run of symbol s, 0 where
    absent. freq[v] is the largest length of a run of the sequence whose
    following suffix's leaf lies below v, and weight[v] is weight[parent] +
    freq[v] * (str_depth[v] - str_depth[parent]), 0 at the root.

    One np.maximum.at pushes each run's length to its leaf's parent, so
    every internal node starts with the maximum over its own leaf children.
    freq becomes the subtree maximum by one np.maximum.at per lifting row:
    after row k every internal node holds the maximum over its internal
    descendants fewer than 2^(k+1) levels down, and so over every leaf
    below those. The kept rows stop one short of the all-root row, so an
    internal node exactly 2^rows levels below the root never passes its
    value on to the root; every other node is at most 2^rows - 1 levels
    above its deepest internal descendant and misses nothing. The root, an
    ancestor of every node, takes the column's maximum instead. Run
    lengths are below 2^62, so freq stays int64.

    weight is the sum of each node's step freq * (str_depth -
    str_depth[parent]) over its root path, by pointer doubling: after row k
    every node holds its steps over the 2^(k+1) nodes up from it, and the
    root's step is 0, so clamping at the root adds nothing, and rows that
    reach every node's depth give the whole path. Every step and partial
    sum is taken in int64, so past 2^63 it wraps and the weights are exact
    mod 2^64; within the trie's int64 bound each is at most M * D <= 2^60
    and exact (see SymbolTrie). Where the trie has limb nodes, the same
    doubling over them alone gives their exact weights (_limb_weights).

    supported is the threshold-1 climb from every internal node at once, by
    pointer doubling: each node first points to itself where freq >= 1 and
    to its parent, clamped at the root, where not, and then len(trie.up)
    rounds of ptr = ptr[ptr] follow each pointer 2^rows steps, at least the
    node's level (see _lifting_rows). Nodes with freq >= 1 point to
    themselves, and freq never decreases toward the root, so a pointer stops
    at the first such node up; the root, with the column's maximum, is one.
    """
    max_run = np.zeros(trie.symbols, dtype=np.int64)
    np.maximum.at(max_run, runs[:, 0], runs[:, 1])
    max_run.flags.writeable = False
    freq = np.zeros(trie.internal, dtype=np.int64)
    np.maximum.at(freq, parents, runs[:, 1])
    for row in trie.up:
        np.maximum.at(freq, row, freq)
    freq[0] = freq.max()
    freq.flags.writeable = False
    weight = freq * trie.step
    for row in trie.up:
        weight += weight[row]
    weight.flags.writeable = False
    limb_weight = _limb_weights(trie, freq) if trie.limb_nodes.size else NO_LIMBS
    supported = np.where(freq > 0, np.arange(trie.internal, dtype=np.int64), trie.above)
    for _ in trie.up:
        supported = supported[supported]
    supported.flags.writeable = False
    return Column(freq, weight, limb_weight, max_run, supported)


def _limb_weights(trie: SymbolTrie, freq: np.ndarray) -> np.ndarray:
    """The exact weights of trie.limb_nodes, as limbs, from the column's freq.

    annotate's pointer doubling over limb_nodes and limb_up alone, each step
    a limb_product and each addition followed by a limb_carry. limb_nodes
    holds every ancestor of each of its nodes, so each node's root path
    lies inside it.
    """
    nodes = trie.limb_nodes
    hi, lo = limb_product(freq[nodes], trie.step[nodes])
    for row in trie.limb_up:
        hi, lo = limb_carry(hi + hi[row], lo + lo[row])
    weight = np.stack((hi, lo))
    weight.flags.writeable = False
    return weight


def leaf_blocks(order: SuffixOrder) -> tuple[np.ndarray, np.ndarray]:
    """The query trie's leaves, in blocks by preceding-run symbol, and their gaps.

    Returns int64 (tokens, gaps): tokens[k] is the token whose suffix is
    leaf k, in leaf order, and gaps[k] the lcp of leaves k and k + 1, 0
    between blocks. The suffix at token t of the order's token string is
    preceded by the run at token t - 1, except the k sequence starts, which
    have none. Neither array is a view of the order, so the order, rounds
    and all, can be dropped before the trie's arrays are built.
    """
    bounds = order.bounds
    tokens = order.tokens
    is_start = np.zeros(len(tokens), dtype=bool)
    is_start[bounds[:-1]] = True
    ranks = np.flatnonzero(~is_start[tokens])
    keys = order.syms[tokens[ranks] - 1]
    if keys.max(initial=0) < 1 << 16:
        # a stable argsort of 16-bit keys is a radix sort
        keys = keys.astype(np.uint16)
    # stable, so ranks stay ascending inside each symbol's block
    by_symbol = np.argsort(keys, kind="stable")
    ranks = ranks[by_symbol]
    leaf_tokens = tokens[ranks]

    # Neighbors in one block get the lcp of their two suffixes; neighbors in
    # different blocks get 0, so each block hangs from the root as the
    # paper's per-symbol trie would. Sharing that root is safe because a run
    # of symbol s only asks thresholds h <= m_s, the longest s-run of the
    # column's sequence, and the leaf after that run sits in the s-block:
    # both the block's own root and the shared root qualify, each with
    # str_depth 0 and weight 0.
    syms = keys[by_symbol]
    inner = np.flatnonzero(syms[1:] == syms[:-1])
    gaps = np.zeros(len(ranks) - 1, dtype=np.int64)
    gaps[inner] = order.lcp(leaf_tokens[inner], leaf_tokens[inner + 1])
    return leaf_tokens, gaps


def _min_rows(gaps: np.ndarray) -> list[np.ndarray]:
    """rows[k][s] = min(gaps[s : s + 2^k]) for every 2^k <= len(gaps), in gaps' dtype."""
    rows = [gaps]
    width = 1
    while 2 * width <= len(gaps):
        rows.append(np.minimum(rows[-1][:-width], rows[-1][width:]))
        width *= 2
    return rows


def _descend(rows: list[np.ndarray], near: np.ndarray, values: np.ndarray, beyond, step: int):
    """The nearest gap not beyond each of values, from pointers at gaps beyond them.

    Every gap from near up to the searched one is beyond it. From the top
    row down, near moves by step * 2^k wherever the next 2^k gaps, by their
    minimum, are all beyond; the answer is one step past where it stops.
    The rows reach 2^len(rows) - 1 gaps, more than any search needs.
    """
    near = near.copy()
    for k in range(len(rows) - 1, -1, -1):
        row, width = rows[k], 1 << k
        start = near + 1 if step > 0 else near - width
        fits = start < len(row) if step > 0 else start >= 0
        take = fits & beyond(row[np.clip(start, 0, len(row) - 1)], values)
        near += take * (step * width)
    return near + step


def _nearest(values: np.ndarray, rows: list[np.ndarray], beyond, step: int) -> np.ndarray:
    """Each gap's nearest gap not beyond it, looking left for step -1 and right for 1.

    values are the gaps and then -1, which stands past both ends, so a
    search that meets no such gap returns -1 or len(gaps). JUMP_ROUNDS of
    pointer jumping settle most searches: every gap strictly between a gap
    and its pointer is beyond it, and while the pointer's own gap is too,
    the pointer takes that gap's pointer. Each round reads and moves only
    the open searches; those still open then descend over rows.
    """
    gaps = values[:-1]
    near = np.arange(step, len(gaps) + step, dtype=np.int64)
    open_ = np.flatnonzero(beyond(values[near], gaps))
    for _ in range(JUMP_ROUNDS):
        near[open_] = near[near[open_]]
        open_ = open_[beyond(values[near[open_]], gaps[open_])]
    near[open_] = _descend(rows, near[open_], gaps[open_], beyond, step)
    return near


def _compact_trie(gaps: np.ndarray):
    """The compact trie over leaves in order, from the gaps between them.

    Each leaf must be deeper than both its gaps. Returns int64 arrays
    (parent, str_depth, leaf_parents): parent and str_depth over the root,
    node 0, and the internal nodes, in the order of their first gaps, and
    each leaf's parent in leaf order.

    An internal node at depth v > 0 owns the gaps of value v with no
    smaller gap between them, and is represented by the first, whose
    previous gap <= v is smaller; depth-0 gaps, and both ends, are the
    root. Its parent is the node of the deeper of its nearest smaller gaps
    on either side, and a leaf's is the node of the deeper of its two
    neighbor gaps (the left on a tie, the same node). The nearest gaps come
    from JUMP_ROUNDS of pointer jumping, then a descent over a sparse table
    of minima for any still open, so the build is O(m log m) for m leaves
    at worst; the periodic pair sends nearly every next-smaller search to
    the descent.

    Every step but str_depth reads only how gaps compare, so they all run
    on the gaps' order codes (suffixes.order_codes). Below 2^30 leaves the
    codes fit int32 however deep the gaps are, so the sparse table is
    int32, half the memory of int64.
    """
    n = len(gaps)
    # both ends read values[n] = -1, the left one as index -1
    values = np.append(order_codes(gaps), -1)
    codes = values[:n]
    rows = _min_rows(codes.astype(np.int32 if n < CODE_LIMIT else np.int64))
    prev = _nearest(values, rows, np.greater, -1)  # the previous gap <= each
    after = _nearest(values, rows, np.greater_equal, 1)  # the next gap < each
    del rows

    root = codes == 0
    first = ~root & (values[prev] != codes)
    ends = first | root
    # every other gap of a node links to the equal gap before it
    link = np.where(ends, np.arange(n, dtype=np.int64), prev)
    while not ends[link].all():
        link = link[link]
    node = np.append(np.where(root, 0, np.cumsum(first, dtype=np.int64)[link]), 0)

    internal = np.flatnonzero(first)
    left, right = prev[internal], after[internal]
    up = np.where(values[left] >= values[right], node[left], node[right])
    # leaf k lies between gaps k - 1 and k; leaf 0 has only gap 0's node
    leaf_up = np.where(values[:-1] >= values[1:], node[:-1], node[1:])
    parent = np.concatenate(([-1], up))
    str_depth = np.concatenate(([0], gaps[internal]))
    return parent, str_depth, np.concatenate((node[:1], leaf_up))


def extract_symbol_tries(*seqs: RleSeq, _exact: bool = False) -> SymbolTrie:
    """The query trie of a family of sequences, from their suffix order.

    Of the order the trie keeps only the token layout (syms, lengths,
    bounds); the order itself, rounds and all, is freed once leaf_blocks
    has read it, before any node array is built. Past the int64 bound the
    trie flags the runs that fail the run's test as limb runs (see
    SymbolTrie); _exact flags every token, so that every run sum and every
    weight is also taken on limbs, and the two arithmetics can be compared.
    """
    order = build_suffix_order(*seqs)
    tokens, gaps = leaf_blocks(order)
    syms, lengths, bounds = order.syms, order.run_lengths, order.bounds
    # M and D of the int64 bound (see SymbolTrie); a terminator's length is 1
    longest_run = int(lengths.max())
    longest_record = max(seq.content_length for seq in seqs) + 1
    symbols = int(syms.max()) + 1
    del order
    parent, str_depth, leaf_parents = _compact_trie(gaps)
    # a leaf's parent goes to the run before its token; a terminator's stays the root
    run_parents = np.zeros(bounds[-1], dtype=np.int64)
    run_parents[tokens - 1] = leaf_parents
    for array in (parent, str_depth, run_parents):
        array.flags.writeable = False
    if _exact:
        limb_runs = np.arange(len(run_parents))
    elif 4 * longest_run * longest_record > 1 << 62:
        limb_runs = limb_tokens(str_depth, run_parents, lengths)
    else:
        limb_runs = NO_RUNS
    limb_runs.flags.writeable = False
    return SymbolTrie(
        parent=parent,
        str_depth=str_depth,
        up=_lifting_rows(parent),
        run_parents=run_parents,
        syms=syms,
        lengths=lengths,
        bounds=bounds,
        symbols=symbols,
        limb_runs=limb_runs,
    )
