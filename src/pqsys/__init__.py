"""Passive discrete-time linear systems with contractive block matrices.

The package models systems whose evolution is governed by a block
operator matrix T = [[D, C], [B, A]] acting on input ⊕ state, with the
contractivity of T expressing passivity.  The central special case is
the passive quasi-selfadjoint system: equal input and output spaces,
selfadjoint main operator, and C = B*.  On top of the core model the
package provides transfer and characteristic functions, a parametrized
form of all passive systems over a fixed main operator, realization of
transfer functions from their integral representation data, tridiagonal
(Jacobi-type) realizations of scalar functions, conservative bi-inner
dilations, and the associated resolvent-compression class.
"""

from .errors import (
    DegenerateGrid,
    DimensionMismatch,
    InvalidD,
    InvalidMeasure,
    MomentMismatch,
    NonSquare,
    NotAContraction,
    NotHermitian,
    NotInSqs,
    NotInner,
    NotMinimal,
    NotNormal,
    NotPSD,
    NotPqs,
    NotScalar,
    PolarPoint,
    PqsysError,
    SingularResolvent,
    TransferMismatch,
)
from .opcore import (
    DEFAULT_TOL,
    DefectData,
    SubspaceBasis,
    Tolerances,
    as_matrix,
    cnu_unitary_split,
    defect_data,
    herm_part,
    is_normal,
    is_selfadjoint,
    krylov_span,
    operator_norm,
    psd_sqrt,
    range_basis,
    strong_limit_SA,
)
from .sysmodel import (
    KrylovRecord,
    MinimalityReport,
    PartitionedContraction,
    SystemClass,
    block_norm_at_most,
    check_minimality_normal,
    classify,
    controllable_subspace,
    is_controllable,
    is_minimal,
    is_observable,
    is_simple,
    is_strongly_stable,
    krylov_record,
    minimal_pqs_reduction,
    observable_subspace,
    pqs_krylov_subspace,
    simulate,
)
from .param import (
    ContractionParams,
    assemble,
    defect_balance,
    isometry_conditions,
    make_params,
    parametrize,
)
from .transfer import (
    InnerReport,
    MembershipReport,
    SqsFunctionData,
    boundary_values,
    char_defect_residuals,
    char_func,
    defect_identities,
    inner_pm1_conditions,
    inner_test,
    nevanlinna_min_eig,
    sqs_membership,
    theta_eval,
    theta_factored,
    theta_from_data,
    theta_sampler,
    w_from_data,
)
from .realize import (
    CanonicalInner,
    DilationBlocks,
    JacobiRealization,
    SimilarityResult,
    biinner_dilation,
    blaschke,
    chebyshev_example,
    chebyshev_q_identity,
    chebyshev_theta_closed,
    chebyshev_w_closed,
    inner_canonical_form,
    jacobi_realize,
    realize_from_data,
    spectral_measure,
    unitary_similarity,
)
from .qfunc import (
    KernelReport,
    q_asymptotic_F,
    q_class_kernel_check,
    q_eval,
    q_sampler,
    q_theta_roundtrip,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
