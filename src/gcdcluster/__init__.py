"""Exact greedy correlation clustering of the integers under the gcd rule.

Two integers are friends when they share a prime factor and enemies
otherwise; a clustering of [2, n] is scored by its conflicts (enemy pairs
kept together plus friend pairs split apart).  This package implements the
natural greedy clustering of 2, 3, ..., n, the exact counting machinery that
makes it fast, and the threshold analysis that locates the first integer the
greedy places irregularly: 111_546_435 = 3*5*7*11*13*17*19*23.
"""

from importlib import import_module

from .counts import class_size, coprime_count, floor_identity_lhs_rhs
from .errors import (DegenerateThresholdError, GcdClusterError, OutOfRangeError,
                     ResourceGuardError)
from .greedy import (GreedyState, VerifyRecord, VerifyReport, class_scores,
                     run_accelerated, run_reference, verify_range, verify_single)
from .partition import (Partition, canonical_partition, count_conflicts,
                        exceptional_partition, partition_to_csv,
                        read_partition_csv, similar)
from .primes import (Factorization, PrimeTable, build_prime_table, factorize,
                     rosser_schoenfeld_bounds, totient)
# ``thresholds`` (with ``fractions`` and ``decimal``) is loaded on first use, by
# ``tables``, ``n0`` or a read of one of these names (PEP 562), not by every process
_THRESHOLDS = frozenset((
    "FIRST_IRREGULAR", "CandidateCensus", "ThresholdRecord", "census_report",
    "census_three_factor", "even_class_criterion", "prime_count_inequality", "find_n0",
    "n1_remark_candidate", "n1_table", "proposition_census", "table1_records",
    "three_factor_candidates"))


def __getattr__(name):
    if name == "thresholds" or name in _THRESHOLDS:
        thresholds = import_module(f"{__name__}.thresholds")  # sets it on the package
        return thresholds if name == "thresholds" else getattr(thresholds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
