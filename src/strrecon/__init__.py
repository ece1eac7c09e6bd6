"""Adaptive reconstruction of hidden strings from substring/prefix queries,
with query counts tied to the string's compressibility."""

from .bench import CSV_HEADER, ExperimentRow, emit_csv, parse_csv, parse_sweep, run_experiments, run_one
from .centroid import CentroidTree, centroid_decompose
from .families import generate
from .measures import LZFactorization, LZPhrase, MeasureReport, lz77, measure, rle_runs
from .oracle import Oracle, QueryStats
from .reconstruct import (
    Phase,
    ReconstructionError,
    ReconstructionReport,
    lz_phrase_search,
    reconstruct_lz_prefix,
    reconstruct_lz_substring,
    reconstruct_naive,
    reconstruct_rle,
)
from .suffix_tree import SuffixTree, TreeSnapshot
from .text import Text, from_bits, from_letters, from_raw_bytes, to_bits, to_letters
from .universal import (
    CandidateSet,
    Compressor,
    IdentityBits,
    RunLengthBits,
    SplitterResult,
    compressor_from_reconstructor,
    enumerate_candidates,
    find_splitter,
    reconstruct_universal,
)

__all__ = [
    "CSV_HEADER",
    "CandidateSet",
    "CentroidTree",
    "Compressor",
    "ExperimentRow",
    "IdentityBits",
    "LZFactorization",
    "LZPhrase",
    "MeasureReport",
    "Oracle",
    "Phase",
    "QueryStats",
    "ReconstructionError",
    "ReconstructionReport",
    "RunLengthBits",
    "SplitterResult",
    "SuffixTree",
    "Text",
    "TreeSnapshot",
    "centroid_decompose",
    "compressor_from_reconstructor",
    "emit_csv",
    "enumerate_candidates",
    "find_splitter",
    "from_bits",
    "from_letters",
    "from_raw_bytes",
    "generate",
    "lz77",
    "lz_phrase_search",
    "measure",
    "parse_csv",
    "parse_sweep",
    "reconstruct_lz_prefix",
    "reconstruct_lz_substring",
    "reconstruct_naive",
    "reconstruct_rle",
    "reconstruct_universal",
    "rle_runs",
    "run_experiments",
    "run_one",
    "to_bits",
    "to_letters",
]
