"""Free noncommutative function theory with involution.

Symbolic core (words, free/trace/generalized polynomials, graded
series), dense matrix evaluation, black-box free maps with axiom and
derivative-identity checkers, reconstruction of power series from
finitely many matrix evaluations, identity testing, and free
inverse/implicit function computation.
"""

from .words import (
    Letter,
    Word,
    EMPTY_WORD,
    cyclic_canonical,
    letter,
    parse_word,
    word_involution,
    word_str,
    words_of_degree,
    x,
)
from .poly import FREE, INV, NCPoly, TracePoly
from .genpoly import GenPoly, GenTerm
from .series import FormalSeries, compose_tuple, series_compose
from .mateval import (
    MatTuple,
    SubspaceBasis,
    adjoint,
    centralizer,
    conjugate,
    direct_sum,
    eval_genpoly,
    eval_ncpoly,
    eval_poly,
    eval_tracepoly,
    eval_word,
    generated_algebra,
    orthonormalize,
    random_group_element,
    random_mattuple,
    subspace_residual,
    sym_matrix_function,
)
from .oracle import (
    CheckReport,
    DomainError,
    FreeMapOracle,
    builtin_map,
    check_commutator_identity,
    check_did_block,
    check_direct_sums,
    check_similarity,
    check_triangular_identity,
    derivative,
    oracle_from_ncpoly,
    random_ncpoly,
)
from .identities import (
    IdentityReport,
    eval_standard,
    hk_degree,
    hk_eval,
    hk_poly,
    is_identity,
    nonuniform_scale,
    nonuniform_witness,
    standard_polynomial,
    z_poly,
)
from .recon import (
    ExtractionResult,
    ReconResult,
    TaylorResult,
    homogeneous_part_eval,
    matenote_extract,
    matenote_plan,
    reconstruct_polynomial,
    taylor_at_zero,
)
from .expand import GenExpansion, coefficient_algebra, expand_at_point
from .invfun import (
    InjectivityReport,
    LinearPart,
    NewtonError,
    NewtonTrace,
    SingularLinearPartError,
    assemble_jacobian,
    composition_residual,
    formal_inverse,
    implicit_formal,
    implicit_numeric,
    implicit_residual,
    injectivity_check,
    linear_part,
    newton_invert,
)
from .formats import (
    FormatError,
    dump_genpoly,
    dump_mattuple,
    dump_ncpolys,
    dump_tracepoly,
    load_genpoly,
    load_mattuple,
    load_ncpolys,
    load_tracepoly,
)

__version__ = "0.1.0"
