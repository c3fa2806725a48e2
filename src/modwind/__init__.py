"""Winding statistics of low-lying closed geodesics on the modular surface."""

from .cfcore import (
    MatrixZ,
    QuadraticSurd,
    cf_eval_finite,
    cf_expand,
    convergent,
    eigenvalue_max,
    fixed_points,
    gauss_shift,
    matrix_of_word,
    periodic_value,
)
from .errors import BudgetError
from .invariants import (
    ChatEstimate,
    GeodesicRecord,
    build_record,
    chat_estimate,
    chat_two_tail,
    ck_constant,
    fibonacci,
    geodesic_length_eigen,
    geodesic_length_logsum,
    sigma_p2,
    sigma_w2,
    two_tail_bounds,
    winding,
    word_length,
)
from .lattice import table as lattice_table
from .necklace import (
    CountReport,
    Necklace,
    canonical_even_shift,
    count_Pn,
    count_min_period,
    enumerate_necklaces,
    is_primitive,
    minimal_period,
    mobius,
    pi_asymptotic,
    pi_exact,
    sample_uniform,
)
from .stats import (
    DistributionReport,
    HistConfig,
    JointCounts,
    empirical_cdf,
    empirical_char_fn,
    gaussian_cdf,
    ks_distance,
    merge,
    ratio_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
