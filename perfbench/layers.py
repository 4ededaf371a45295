"""The rleacs layer functions the traced run wraps, and the metrics made from their spans.

Every function has `<module>.<function>.calls`, `.self_s` and `.errors`;
each module is one layer, with `<module>.self_s` and `<module>.self_cpu_s`
summed over its functions.
Derived metrics divide work counts, taken from the wrapped calls' arguments
and results, by layer self time. A function that a workload never calls (or
that the program no longer has) reads 0 calls and 0 seconds.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

from checks import reference_dist, ulp_error
from spans import Span, Target, self_times


def _decoded_chars(args, kwargs, result):
    seqs, _ = result
    return {"chars": sum(s.content_length for s in seqs)}


def _tokens(args, kwargs, result):
    first, second = args[:2]
    return {"tokens": len(first.runs) + len(second.runs)}


def _nodes(args, kwargs, result):
    return {"nodes": sum(t.node_count for t in result.values())}


def _queries(args, kwargs, result):
    return {"queries": args[0].first.run_count}


def _dist_value_call(args, kwargs, result):
    x_len, y_len, acs_xy, acs_yx = args[:4]
    log_base = args[4] if len(args) > 4 else kwargs.get("log_base", "e")
    if log_base != "e" or not isinstance(acs_xy, Fraction):
        return {}
    return {"call": (x_len, y_len, acs_xy, acs_yx, result)}


TARGETS = [
    Target("rle", "read_fasta_records"),
    Target("rle", "read_rle_records"),
    Target("rle", "build_text_sequences"),
    Target("rle", "build_rle_sequences"),
    Target("suffixes", "build_suffix_order", _tokens),
    Target("suffixes", "build_trie"),
    Target("symbol_tries", "extract_symbol_tries", _nodes),
    Target("symbol_tries", "annotate"),
    Target("engine", "AcsEngine.__init__"),
    Target("engine", "AcsEngine.total", _queries),
    Target("engine", "acs"),
    Target("engine", "dist"),
    Target("engine", "dist_value", _dist_value_call),
    Target("cli", "cmd_dist"),
    Target("cli", "cmd_matrix"),
    Target("cli", "load_sequences", _decoded_chars),
    Target("cli", "format_phylip"),
]
LAYERS = ("rle", "suffixes", "symbol_tries", "engine", "cli")
COMMANDS = {"dist": "cli.cmd_dist", "matrix": "cli.cmd_matrix"}

# name -> (unit, better)
DERIVED = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.self_cpu_s": ("s", "lower") for layer in LAYERS},
    "rle.chars_per_s": ("char/s", "higher"),
    "suffixes.tokens": ("count", "lower"),
    "suffixes.tokens_per_s": ("token/s", "higher"),
    "symbol_tries.nodes": ("count", "lower"),
    "engine.queries_per_s": ("query/s", "higher"),
    "engine.builds_per_dist": ("ratio", "lower"),
    "engine.dist.p50_s": ("s", "lower"),
    "engine.dist.p75_s": ("s", "lower"),
    "engine.dist.wait_s": ("s", "lower"),
    "engine.dist_value.err_ulp": ("ulp", "lower"),
    **{f"{cmd}.cpu_per_wall": ("ratio", "higher") for cmd in COMMANDS.values()},
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}
PER_LAYER = {
    **{
        f"{t.name}.{kind}": (unit, "lower")
        for t in TARGETS
        for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
    },
    **DERIVED,
}


def summarize(spans: list[Span]) -> dict:
    """Per-function totals and work counts for the spans of one command."""
    st = self_times(spans)
    funcs = {t.name: {"calls": 0, "self_s": 0.0, "self_cpu_s": 0.0, "errors": 0} for t in TARGETS}
    counts = {"chars": 0, "tokens": 0, "nodes": 0, "queries": 0}
    dist_wall, dist_wait, err_ulp = [], [], 0.0
    for s in spans:
        f = funcs[s.name]
        f["calls"] += 1
        f["self_s"] += st[s.id][0]
        f["self_cpu_s"] += st[s.id][1]
        f["errors"] += s.error
        for key in counts:
            counts[key] += s.counts.get(key, 0)
        if s.name == "engine.dist":
            dist_wall.append(s.wall)
            dist_wait.append(s.wall - s.cpu)
        if "call" in s.counts:
            x, y, acs_xy, acs_yx, value = s.counts["call"]
            ref, _ = reference_dist(x, y, acs_xy, acs_yx)
            err_ulp = max(err_ulp, ulp_error(value, ref))
    return {
        "funcs": funcs,
        "counts": counts,
        "dist_wall": dist_wall,
        "dist_wait_s": sum(dist_wait),
        "err_ulp": err_ulp,
        "self_cpu_total": sum(c for _, c in st.values()),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def aggregate(traced: list[dict], untraced: list[dict], command: str) -> dict[str, float]:
    """Per-layer metrics from the traced and untraced commands of one run.

    Times are medians over commands of per-command totals; errors are summed.
    """
    med = statistics.median
    out: dict[str, float] = {}
    summaries = [c["summary"] for c in traced]
    for t in TARGETS:
        rows = [s["funcs"][t.name] for s in summaries]
        out[f"{t.name}.calls"] = med(r["calls"] for r in rows)
        out[f"{t.name}.self_s"] = med(r["self_s"] for r in rows)
        out[f"{t.name}.errors"] = sum(r["errors"] for r in rows)
    for layer in LAYERS:
        for kind in ("self_s", "self_cpu_s"):
            out[f"{layer}.{kind}"] = med(
                sum(f[kind] for n, f in s["funcs"].items() if n.startswith(layer + "."))
                for s in summaries
            )
    counts = {k: med(s["counts"][k] for s in summaries) for k in summaries[0]["counts"]}
    out["rle.chars_per_s"] = _ratio(counts["chars"], out["rle.self_s"])
    out["suffixes.tokens"] = counts["tokens"]
    out["suffixes.tokens_per_s"] = _ratio(counts["tokens"], out["suffixes.self_s"])
    out["symbol_tries.nodes"] = counts["nodes"]
    out["engine.queries_per_s"] = _ratio(counts["queries"], out["engine.AcsEngine.total.self_s"])
    out["engine.builds_per_dist"] = _ratio(
        out["engine.AcsEngine.__init__.calls"], out["engine.dist.calls"]
    )
    dist_wall = sorted(w for s in summaries for w in s["dist_wall"])
    if len(dist_wall) >= 2:
        q = statistics.quantiles(dist_wall, n=4)
        out["engine.dist.p50_s"], out["engine.dist.p75_s"] = q[1], q[2]
    else:
        out["engine.dist.p50_s"] = out["engine.dist.p75_s"] = dist_wall[0] if dist_wall else 0.0
    out["engine.dist.wait_s"] = med(s["dist_wait_s"] for s in summaries)
    out["engine.dist_value.err_ulp"] = max(s["err_ulp"] for s in summaries)
    for cmd, name in COMMANDS.items():
        out[f"{name}.cpu_per_wall"] = (
            med(c["cpu_s"] / c["wall_s"] for c in untraced) if cmd == command else 0.0
        )
    traced_wall = med(c["wall_s"] for c in traced)
    out["trace.overhead_s"] = traced_wall - med(c["wall_s"] for c in untraced)
    out["trace.unaccounted_s"] = med(c["wall_s"] - c["summary"]["self_cpu_total"] for c in traced)
    return out
