"""Carmichael, radimichael, and k-Lehmer numbers: classification, exhaustive
surveys, and certified constructions from geometric prime tuples."""

from .arith import (
    Factorization,
    FactorRangeError,
    carmichael_lambda,
    euler_phi,
    factorize,
    prime_verdict,
    radical,
    valuation,
)
from .classify import (
    NumberClass,
    classify,
    fermat_oracle_is_carmichael,
    is_carmichael,
    is_k_lehmer,
    is_radimichael,
    lehmer_index,
)
from .construct import (
    CertificateViolationError,
    InsufficientHitsError,
    RadimichaelCertificate,
    TupleHit,
    TupleSpec,
    build_radimichael,
    certificate_from_line,
    certificate_to_line,
    non_carmichael_check,
    scan_tuple,
    search_radimichael,
    theorem2_search,
    verify_certificate,
)
# `survey` itself is not re-exported, so `radimichael.survey` stays the
# submodule; call it as `from radimichael.survey import survey`.
from .survey import (
    MemoryBudgetError,
    SpfTable,
    SurveyReport,
    build_spf,
    report_parse,
    report_write,
)

__version__ = "0.1.0"
