"""wickalg: an exact symbolic engine for the algebra of normal products.

The symmetric Hopf algebra over a finite generator set, Laplace pairings
extended by permanents, circle products (operator and time-ordered products
as deformations of the normal product), the renormalisation group acting by
convolution, renormalised time-ordering, and truncated S-matrix / Green
function series -- all over exact Gaussian-rational coefficients.
"""

from types import ModuleType as _ModuleType

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
)
from .oracles import (
    modified_pairing_by_convolution,
    t_by_moments,
    t_closed_form,
    t_map_by_circle_fold,
    tbar_map_by_circle_fold,
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
    t_map,
    t_scalar,
    tbar_map,
    tbar_scalar,
)

__version__ = "0.1.0"

# The public API is every name imported above, so each is stated once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
