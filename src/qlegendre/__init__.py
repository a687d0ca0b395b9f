"""Exact arithmetic for quaternary Legendre pairs and the Hadamard
matrices they generate.

Everything that proves something (pair verification, Gram checks, PSD
values at the special lags, eligibility tables) runs in exact integer
arithmetic over Z[i]; floating point appears only in the seed search's
prune and at lags with no exact form, and is never trusted for a final
answer.
"""
from .gaussint import (
    GaussInt,
    I,
    MINUS_I,
    MINUS_ONE,
    ONE,
    UNITS,
    ZERO,
    format_gauss,
    parse_gauss,
)
from .sequences import (
    PSDProfile,
    QSeq,
    dft,
    dft_exact,
    exact_lags,
    format_qseq,
    paf,
    parse_qseq,
    psd,
    psd_profile,
    row_sum,
)
from .pairs import (
    LegendrePair,
    balance_check,
    canonical_key,
    is_legendre_pair,
    normalize,
    pair_from_json,
    pair_to_json,
)
from .compression import (
    CompressedSeq,
    compress,
    compressed_alphabet,
    decompress,
    decompression_count,
    entry_splittings,
    format_compressed,
    parse_compressed,
)
from .seeds import (
    HalfVector,
    IdentityCheck,
    SeedPair,
    build_seed_b,
    decompress_seed_a,
    mod4_filter,
    seed_feasible,
    seed_identity_report,
    seed_pair,
    seed_search,
)
from .psdfilters import (
    PsdPairTable,
    a3_seed_candidates,
    eligible_half_psd_pairs,
    eligible_quarter_psd_pairs,
    integral_compression_filter,
    mod3_admissible,
    seed_a3,
    sixfold_compression,
    two_square_compression_filter,
)
from .evensearch import (
    InfeasibleLengthError,
    SearchPlan,
    enumerate_role_candidates,
    paf_join,
    search_even,
)
from .matrices import (
    GaussMatrix,
    circulant_from_entries,
    format_matrix_text,
    matrix_from_json,
    matrix_to_json,
    parse_matrix_text,
)
from .hadamard import (
    binary_from_quaternary,
    is_binary_hadamard,
    is_quaternary_hadamard,
    quaternary_hadamard_from_pair,
)
from .corpus import (
    EVEN_LENGTHS,
    SEED_PRIMES,
    all_corpus_pairs,
    corpus_even_pair,
    corpus_seed_pair,
    seed_half_vector,
)

__version__ = "0.1.0"

__all__ = [
    "GaussInt", "ZERO", "ONE", "I", "MINUS_ONE", "MINUS_I", "UNITS",
    "parse_gauss", "format_gauss",
    "QSeq", "PSDProfile", "parse_qseq", "format_qseq", "row_sum",
    "paf", "dft", "dft_exact", "exact_lags", "psd", "psd_profile",
    "LegendrePair", "is_legendre_pair", "balance_check", "normalize",
    "canonical_key", "pair_to_json", "pair_from_json",
    "CompressedSeq", "compress", "decompress", "decompression_count",
    "compressed_alphabet", "entry_splittings", "parse_compressed",
    "format_compressed",
    "SeedPair", "HalfVector", "IdentityCheck", "seed_pair",
    "decompress_seed_a", "build_seed_b", "mod4_filter", "seed_feasible",
    "seed_search", "seed_identity_report",
    "PsdPairTable", "eligible_half_psd_pairs", "eligible_quarter_psd_pairs",
    "mod3_admissible", "seed_a3", "a3_seed_candidates",
    "integral_compression_filter", "two_square_compression_filter",
    "sixfold_compression",
    "SearchPlan", "InfeasibleLengthError", "enumerate_role_candidates",
    "paf_join", "search_even",
    "GaussMatrix", "circulant_from_entries", "format_matrix_text",
    "parse_matrix_text", "matrix_to_json", "matrix_from_json",
    "quaternary_hadamard_from_pair", "is_quaternary_hadamard",
    "binary_from_quaternary", "is_binary_hadamard",
    "SEED_PRIMES", "EVEN_LENGTHS", "seed_half_vector", "corpus_seed_pair",
    "corpus_even_pair", "all_corpus_pairs",
]
