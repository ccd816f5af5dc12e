"""wickalg: an exact symbolic engine for the algebra of normal products.

The symmetric Hopf algebra over a finite generator set, Laplace pairings
extended by permanents, circle products (operator and time-ordered products
as deformations of the normal product), the renormalisation group acting by
convolution, renormalised time-ordering, and truncated S-matrix / Green
function series -- all over exact Gaussian-rational coefficients.
"""

from .algebra import (
    Element,
    Monomial,
    TensorElement,
    antipode,
    coproduct,
    counit,
    derivation,
    divided_power,
    iterated_coproduct,
    sweedler,
    tensor_product,
    vee,
)
from .fock import (
    FockStructure,
    involute,
    phi,
    project_minus,
    project_plus,
)
from .laplace import (
    PairingMatrix,
    circle,
    circle_fold,
    pairing,
    permanent,
    permanent_by_permutations,
    wick_expand,
    wick_step,
)
from .renorm import (
    LinearFunctional,
    Scheme,
    circle_renorm,
    convolution_inverse,
    convolve,
    modified_pairing,
    z_pairing,
)
from .scalars import Scalar
from .series import (
    FormalSeries,
    green,
    smatrix,
    vee_exp,
)
from .tmaps import (
    TContext,
    exp_sigma,
    sigma_apply,
    t_by_moments,
    t_closed_form,
    t_map,
    t_map_by_circle_fold,
    t_scalar,
    tbar_map,
    tbar_map_by_circle_fold,
    tbar_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "Element",
    "FockStructure",
    "FormalSeries",
    "LinearFunctional",
    "Monomial",
    "PairingMatrix",
    "Scalar",
    "Scheme",
    "TContext",
    "TensorElement",
    "antipode",
    "circle",
    "circle_fold",
    "circle_renorm",
    "convolution_inverse",
    "convolve",
    "coproduct",
    "counit",
    "derivation",
    "divided_power",
    "exp_sigma",
    "green",
    "involute",
    "iterated_coproduct",
    "modified_pairing",
    "pairing",
    "permanent",
    "permanent_by_permutations",
    "phi",
    "project_minus",
    "project_plus",
    "sigma_apply",
    "smatrix",
    "sweedler",
    "t_by_moments",
    "t_closed_form",
    "t_map",
    "t_map_by_circle_fold",
    "t_scalar",
    "tbar_map",
    "tbar_map_by_circle_fold",
    "tbar_scalar",
    "tensor_product",
    "vee",
    "vee_exp",
    "wick_expand",
    "wick_step",
    "z_pairing",
]
