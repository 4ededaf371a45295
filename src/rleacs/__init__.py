"""Average common substring distances computed directly on run-length encoded sequences.

The public surface in one place: sequence codec (`encode`, `decode`,
`RleSeq`, the file parsers), the fast engine (`AcsEngine`,
`acs`, `dist`, `dist_matrix`), the brute-force oracle used for
cross-validation, and the randomized verification entry point. The oracle
and verify modules load on first use of one of their names (PEP 562), so
the engine's commands never import them.
"""

import importlib

from rleacs.engine import (
    AcsEngine,
    AcsResult,
    DistResult,
    acs,
    acs_self,
    dist,
    dist_matrix,
    dist_value,
)
from rleacs.rle import (
    ParseError,
    RleSeq,
    decode,
    encode,
    parse_fasta,
    parse_rle_text,
)

__version__ = "0.1.0"

# each name's module, imported when the name is first read
_LAZY = {
    "OracleBudget": "oracle",
    "brute_acs": "oracle",
    "brute_match_lengths": "oracle",
    "brute_suffix_sort": "oracle",
    "VerifyReport": "verify",
    "check_pair": "verify",
    "run_verification": "verify",
}

__all__ = [
    "AcsEngine",
    "AcsResult",
    "DistResult",
    "OracleBudget",
    "ParseError",
    "RleSeq",
    "VerifyReport",
    "acs",
    "acs_self",
    "brute_acs",
    "brute_match_lengths",
    "brute_suffix_sort",
    "check_pair",
    "decode",
    "dist",
    "dist_matrix",
    "dist_value",
    "encode",
    "parse_fasta",
    "parse_rle_text",
    "run_verification",
    "__version__",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"rleacs.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
