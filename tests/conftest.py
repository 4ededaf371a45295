from rleacs.rle import MAX_DECODED_LENGTH, RleSeq, encode
from rleacs.symbol_tries import exact_ints


def make_pair(x_text: str, y_text: str, x_name: str = "X", y_name: str = "Y"):
    """Encode two texts."""
    return encode(x_text, x_name), encode(y_text, y_name)


def at_bound(body):
    """The sequence of (symbol, length) runs with its first run stretched to
    content length 2^62 - 1."""
    sym, length = body[0]
    stretched = (sym, length + MAX_DECODED_LENGTH - 1 - sum(n for _, n in body))
    return RleSeq("S", [stretched, *body[1:]])


def random_runny_text(rng, n, alphabet, max_run):
    """n characters of alphabet in runs of 1 to max_run, neighbouring runs distinct."""
    out = []
    while len(out) < n:
        ch = rng.choice(alphabet)
        if out and out[-1] == ch:
            continue
        out.extend(ch * rng.randint(1, max_run))
    return "".join(out[:n])


def column_weights(trie, column):
    """The column's weights as Python ints: its int64 weights, each replaced
    by its exact limb weight at the trie's limb nodes, which it must equal
    mod 2^64."""
    weight = column.weight.tolist()
    for v, exact in zip(trie.limb_nodes.tolist(), exact_ints(column.limb_weight)):
        assert (exact - weight[v]) % (1 << 64) == 0
        weight[v] = exact
    return weight
