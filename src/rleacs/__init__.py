"""Average common substring distances computed directly on run-length encoded sequences.

The public surface in one place: sequence codec (`encode`, `decode`,
`RleSeq`, the file parsers), the fast engine (`AcsEngine`,
`acs`, `dist`, `dist_matrix`), the brute-force oracle used for
cross-validation, and the randomized verification entry point.
"""

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
from rleacs.oracle import (
    OracleBudget,
    brute_acs,
    brute_match_lengths,
    brute_suffix_sort,
)
from rleacs.rle import (
    ParseError,
    RleSeq,
    decode,
    encode,
    parse_fasta,
    parse_rle_text,
)
from rleacs.verify import VerifyReport, check_pair, run_verification

__version__ = "0.1.0"

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
