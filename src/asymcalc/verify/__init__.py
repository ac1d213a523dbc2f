"""Numeric corroboration, seeded corpora, and invariant check suites."""

from .checks import available_checks, ideal_of_fg, run_checks
from .corpus import Corpus, corpus_generate, random_element, random_set
from .oracle import (OracleConfig, ValuationEstimate, oracle_valuation,
                     oracle_vanishes_on)
from .report import CheckReport, serialize_witness

__all__ = [
    "available_checks", "ideal_of_fg", "run_checks",
    "Corpus", "corpus_generate", "random_element", "random_set",
    "OracleConfig", "ValuationEstimate", "oracle_valuation",
    "oracle_vanishes_on",
    "CheckReport", "serialize_witness",
]
