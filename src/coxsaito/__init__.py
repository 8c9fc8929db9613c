"""Exact certificates for Coxeter arrangements, discriminants, and their
partial normalizations."""

from .catalog import (
    CoxeterDatum,
    UnsupportedTypeError,
    build_datum,
    stabilizer_components,
)
from .certs import Certificate, verify_report_file, write_report
from .engine import (
    NonMembership,
    Witness,
    graded_membership,
    groebner,
    krull_dimension,
    squarefree_test,
)
from .poly import Poly, PolyRing
from .polymatrix import PolyMatrix, hessian, jacobian
from .saito import SaitoData, build_saito, express_in_invariants, normalize_linear_part
from .scalars import Quad, conjugate, invert
from .workspace import Workspace

__version__ = "0.1.0"
