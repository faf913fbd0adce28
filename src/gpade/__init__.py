"""Exact-arithmetic Pade-type approximants to G-function systems, with the
derivation iteration, effective constant chain, and certified Diophantine,
digit-repetition, and quadratic-surd checks built on top.

Everything numerical is either an exact integer/rational or an interval with
exact rational endpoints; no floats enter any certified path.
"""

from .catalog import GFunctionSystem, GrowthReport, load_system, parse_system, \
    resolve_system, verify_growth
from .constants import ConstantsConfig, ConstantsReport, bound_height_Qk, \
    bound_remainder, check_eqhyp, compute_constants
from .derivation import IteratedFamily, IterationStepCert, ZeroEstimateCheck, \
    ell0_bound, find_nonvanishing_index, iterate, zero_estimate_check
from .digits import BlockConvergent, DigitString, RepetitionProfile, Theorem2Report, \
    expand_digits, profile_with_expansion, repetition_count, repetition_profile, \
    theorem2_bound_check, theorem2_convergent
from .errors import DivisibilityError, GpadeError, HypothesisUnmetError, \
    InsufficientDigitsError, InsufficientPrecisionError, InternalCertificateError, \
    KernelVectorError, NoConvergentTailBound, PreconditionError, RankDeficiencyError
from .intervals import CertifiedReal, IntervalReal, frac_nth_root, frac_pow, \
    inth_root_floor
from .lattice import integer_kernel_basis, lll_reduce, shortest_kernel_vector
from .pade import PadeApproximant, assemble, build_approximant, constraint_matrix, \
    siegel_height_bound
from .polynomial import Poly, lcm_range, truncated_product
from .quadratic import CFExpansion, QuadConvergent, ReductionReport, Theorem5Report, \
    cf_sqrt, convergent_gap_check, pell_bound_check, reduce_to_theorem1, theorem5_scan
from .transcend import exp_frac, exp_interval, log2_enclosure, log10_enclosure, \
    log_frac, log_interval
from .verify import ChainReplay, CorollaryReport, VerifyReport, XiWitness, \
    construct_xi, corollary_bound_check, eval_certified, replay_chain, scan_nearest, \
    value_producer, verify_theorem1

__version__ = "0.1.0"

__all__ = [
    "BlockConvergent", "CFExpansion", "CertifiedReal", "ChainReplay",
    "ConstantsConfig", "ConstantsReport", "CorollaryReport", "DigitString",
    "DivisibilityError", "GFunctionSystem", "GpadeError", "GrowthReport",
    "HypothesisUnmetError", "InsufficientDigitsError", "InsufficientPrecisionError",
    "IntervalReal", "InternalCertificateError", "IteratedFamily",
    "IterationStepCert", "KernelVectorError", "NoConvergentTailBound",
    "PadeApproximant", "Poly", "PreconditionError", "QuadConvergent",
    "RankDeficiencyError", "ReductionReport", "RepetitionProfile",
    "Theorem2Report", "Theorem5Report", "VerifyReport",
    "XiWitness", "ZeroEstimateCheck", "assemble", "bound_height_Qk",
    "bound_remainder", "build_approximant", "cf_sqrt", "check_eqhyp",
    "compute_constants", "constraint_matrix", "construct_xi",
    "convergent_gap_check", "corollary_bound_check", "ell0_bound",
    "eval_certified", "exp_frac", "exp_interval", "expand_digits",
    "find_nonvanishing_index", "frac_nth_root", "frac_pow",
    "integer_kernel_basis", "inth_root_floor", "iterate", "lcm_range",
    "lll_reduce", "load_system", "log10_enclosure", "log2_enclosure",
    "log_frac", "log_interval", "parse_system", "pell_bound_check",
    "profile_with_expansion", "reduce_to_theorem1", "repetition_count",
    "repetition_profile", "replay_chain", "resolve_system", "scan_nearest",
    "shortest_kernel_vector", "siegel_height_bound",
    "theorem2_bound_check", "theorem2_convergent", "theorem5_scan", "truncated_product",
    "value_producer", "verify_growth", "verify_theorem1", "zero_estimate_check",
]
