"""Additive prime decompositions over the rational and Gaussian integers:
exact arithmetic, prime machinery, constructive solvers for prime-column
matrix systems, representability scans, and the reference tables.

The public names below load their home module on first use (PEP 562), so
importing the package, or one of its modules, loads no module it does not
need."""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines; the one list behind both
# __all__ and the lookup
_EXPORTS = {
    "diophantine": (
        "SolutionMatrix",
        "SystemKind",
        "solve_four_columns",
        "solve_min_columns",
        "solve_square_columns",
    ),
    "gaussdecomp": (
        "Decomposition",
        "NormPolicy",
        "ObstructionReport",
        "ScanReport",
        "box_targets",
        "find_decomposition",
        "four_term_decompose",
        "obstruction_line_report",
        "scan_box",
        "scan_targets",
        "verify_decomposition",
        "verify_diagonal_obstruction",
    ),
    "golden": (
        "GoldenRow",
        "GoldenValidation",
        "RegenReport",
        "load_golden",
        "regenerate_tables",
        "validate_golden",
    ),
    "primes": (
        "PrimeTable",
        "ensure_table",
        "gaussian_prime_pool",
        "is_gaussian_prime",
        "is_rational_prime",
        "sector_gap_stats",
    ),
    "ratdecomp": (
        "HYPOTHESES",
        "ChainResult",
        "HypothesisReport",
        "HypothesisSpec",
        "four_odd_primes",
        "hypothesis_scans",
        "min_odd_prime_terms",
        "residue34_chain",
        "split_into_odd_primes",
        "split_into_residue34_primes",
    ),
    "report": ("HypothesisViolation", "SearchExhausted"),
    "zcore": (
        "GaussianInt",
        "Parity",
        "Region",
        "Unit",
        "in_region",
        "parity",
        "sector_form",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
