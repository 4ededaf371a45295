import numpy as np

from rleacs.rle import MAX_DECODED_LENGTH, Alphabet, RleSeq, encode


def make_pair(x_text: str, y_text: str, x_name: str = "X", y_name: str = "Y"):
    """Encode two texts over one shared alphabet."""
    alphabet = Alphabet.for_texts([x_text, y_text])
    first = encode(x_text, x_name, alphabet)
    second = encode(y_text, y_name, alphabet)
    return first, second, alphabet


def at_bound(body):
    """The sequence of (symbol, length) runs with its first run stretched to
    content length 2^62 - 1."""
    sym, length = body[0]
    stretched = (sym, length + MAX_DECODED_LENGTH - 1 - sum(n for _, n in body))
    return RleSeq("S", [stretched, *body[1:]])


def brute_column(trie, leaves, lengths):
    """(freq, weight) of every internal node of trie, as Python ints, when the
    run before each of leaves has the length beside it and every other leaf's
    run is another sequence's: freq is the largest such length below the node,
    weight the sum of freq * (str_depth - str_depth[parent]) over its root
    path. A parent is shallower than its children, so deeper nodes go first."""
    parent, depth = trie.parent.tolist(), trie.str_depth.tolist()
    freq = [0] * len(parent)
    for leaf, length in zip(np.asarray(leaves).tolist(), np.asarray(lengths).tolist()):
        freq[leaf] = length
    by_depth = sorted(range(1, len(parent)), key=depth.__getitem__)
    for v in reversed(by_depth):
        freq[parent[v]] = max(freq[parent[v]], freq[v])
    weight = [0] * len(parent)
    for v in by_depth:
        weight[v] = weight[parent[v]] + freq[v] * (depth[v] - depth[parent[v]])
    return freq[: trie.internal], weight[: trie.internal]
