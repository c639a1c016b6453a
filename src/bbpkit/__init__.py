"""Exact algebra and certified numerics for binary BBP-type formulas.

The package provides the P-notation formula algebra (parsing, canonical form,
stretch/rebase/align transforms, rational combination, certified evaluation),
generation of formulas from polylogarithm evaluation points, independent
high-precision reference oracles, position-addressable digit extraction,
PSLQ integer-relation search, and a catalog of classical polylogarithm
identities with verification and derivation runners.
"""

from .bigmath import FixReal
from .pformula import PFormula, PHeader, parse_p, serialize_p, canonicalize, stretch, rebase, align, combine, evaluate
from .generator import LiPoint, period, generate
from . import reference
from .extractor import ExtractRequest, ExtractResult, extract, digit_window
from .relations import RelationResult, PslqReport, pslq
from .catalog import Catalog, IdentityRecord, LinearExpr, load_catalog, default_catalog, verify, derive_bbp, parse_expr

__version__ = "0.1.0"

__all__ = [
    "FixReal",
    "PFormula",
    "PHeader",
    "parse_p",
    "serialize_p",
    "canonicalize",
    "stretch",
    "rebase",
    "align",
    "combine",
    "evaluate",
    "LiPoint",
    "period",
    "generate",
    "reference",
    "ExtractRequest",
    "ExtractResult",
    "extract",
    "digit_window",
    "RelationResult",
    "PslqReport",
    "pslq",
    "Catalog",
    "IdentityRecord",
    "LinearExpr",
    "load_catalog",
    "default_catalog",
    "verify",
    "derive_bbp",
    "parse_expr",
    "__version__",
]
