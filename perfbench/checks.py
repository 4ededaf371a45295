"""Output checks for rleacs commands, against exact values and a decimal reference.

Exact rationals are compared exactly. A printed float distance is compared
with a 60-digit `decimal` evaluation of the same formula from exact inputs,
with a tolerance relative to the size of the formula's addends (the formula
subtracts nearly equal terms for similar sequences, so the error of a
correctly evaluated float can be large relative to the result itself).
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

REFERENCE_DIGITS = 60
# allowed |printed - reference| over the sum of the formula's absolute addends
DIST_RTOL = Decimal(2) ** -46
# PHYLIP cells carry 6 decimals
CELL_TOL = Decimal("1e-6")

# unary pair with a closed form: ACS(X,Y) = (m(x-m) + m(m+1)/2) / x
ANCHOR_LONG = 10**9
ANCHOR_SHORT = 10**6
ANCHOR_RLE = f">giant\na{ANCHOR_LONG}\n>small\na{ANCHOR_SHORT}\n"


def anchor_expected() -> tuple[dict[str, tuple[int, int]], dict[str, Fraction]]:
    x, m = ANCHOR_LONG, ANCHOR_SHORT
    sizes = {"giant": (1, x), "small": (1, m)}
    acs = {
        "giant|small": Fraction(m * (x - m) + m * (m + 1) // 2, x),
        "small|giant": Fraction(m + 1, 2),
    }
    return sizes, acs


def _dec(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def reference_dist(x: int, y: int, acs_xy: Fraction, acs_yx: Fraction) -> tuple[Decimal, Decimal]:
    """Natural-log distance and the sum of its absolute addends, 60 digits."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        lx = Decimal(x).ln()
        ly = Decimal(y).ln()
        terms = (
            ly / _dec(acs_xy),
            lx / _dec(acs_yx),
            -lx / _dec(Fraction(x + 1, 2)),
            -ly / _dec(Fraction(y + 1, 2)),
        )
        return sum(terms) / 2, sum(abs(t) for t in terms) / 2


def ulp_error(value: float, reference: Decimal) -> float:
    """|value - reference| in units in the last place of the reference."""
    ref = float(reference)
    if ref == 0.0 or not math.isfinite(value):
        return math.inf if value != ref else 0.0
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        return float(abs(Decimal(value) - reference) / Decimal(math.ulp(ref)))


_SEQ_LINE = re.compile(r"([XY]): (\S+) \(runs=(\d+), length=(\d+)\)")
_ACS_LINE = re.compile(r"ACS\(([XY]),([XY])\) = (\S+)")
_DIST_LINE = re.compile(r"Dist = (\S+) \(log base (\S+)\)")


def check_dist(
    text: str, sizes: dict[str, tuple[int, int]], acs: dict[str, Fraction]
) -> list[str]:
    """Check `rleacs dist` output for the two records of `sizes`, in order.

    `acs` maps "first|second" to the exact average common substring.
    """
    seqs: dict[str, tuple[str, int, int]] = {}
    printed: dict[tuple[str, str], Fraction] = {}
    dist_text = None
    for line in text.splitlines():
        if m := _SEQ_LINE.fullmatch(line):
            seqs[m[1]] = (m[2], int(m[3]), int(m[4]))
        elif m := _ACS_LINE.fullmatch(line):
            printed[m[1], m[2]] = Fraction(m[3])
        elif m := _DIST_LINE.fullmatch(line):
            dist_text = m[1] if m[2] == "e" else None
    (nx, (rx, x)), (ny, (ry, y)) = sizes.items()
    if seqs.get("X") != (nx, rx, x) or seqs.get("Y") != (ny, ry, y):
        return [f"sequence lines {seqs} do not match {sizes}"]
    want = {
        ("X", "Y"): acs[f"{nx}|{ny}"],
        ("Y", "X"): acs[f"{ny}|{nx}"],
        ("X", "X"): Fraction(x + 1, 2),
        ("Y", "Y"): Fraction(y + 1, 2),
    }
    failures = [
        f"ACS({a},{b}) = {printed.get((a, b))}, expected {value}"
        for (a, b), value in want.items()
        if printed.get((a, b)) != value
    ]
    if dist_text is None:
        return failures + ["no natural-log Dist line"]
    value = float(dist_text)
    ref, scale = reference_dist(x, y, want["X", "Y"], want["Y", "X"])
    if not abs(Decimal(value) - ref) <= DIST_RTOL * scale:
        failures.append(f"Dist = {dist_text}, reference {ref:.20e} (addends {scale:.3e})")
    return failures


def check_matrix(
    text: str, sizes: dict[str, tuple[int, int]], acs: dict[str, Fraction]
) -> list[str]:
    """Check PHYLIP output: layout, exact diagonal and symmetry, cells near the reference."""
    names = list(sizes)
    lines = text.splitlines()
    if not lines or lines[0] != str(len(names)) or len(lines) != len(names) + 1:
        return [f"bad PHYLIP layout: {lines[:1]} with {len(lines)} lines"]
    rows = []
    for name, line in zip(names, lines[1:]):
        cells = line[10:].split()
        if line[:10].rstrip() != name or len(cells) != len(names):
            return [f"bad PHYLIP row for {name}: {line[:40]!r}"]
        rows.append(cells)
    failures = []
    for i, a in enumerate(names):
        if rows[i][i] != "0.000000":
            failures.append(f"diagonal {a} = {rows[i][i]}")
        for j in range(i + 1, len(names)):
            b = names[j]
            if rows[i][j] != rows[j][i]:
                failures.append(f"asymmetric cell {a}/{b}: {rows[i][j]} vs {rows[j][i]}")
            ref, _ = reference_dist(sizes[a][1], sizes[b][1], acs[f"{a}|{b}"], acs[f"{b}|{a}"])
            if not abs(Decimal(rows[i][j]) - ref) <= CELL_TOL:
                failures.append(f"cell {a}/{b} = {rows[i][j]}, reference {ref:.9f}")
    return failures
