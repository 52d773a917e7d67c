import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degcz import pde_solver
from degcz.weight_algebra import Ball, QuadratureSpec

#: coordinates with signed zeros, subnormal, tiny and large magnitudes
COORDS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)



#: moderate values with signed zeros and subnormals: sums over many cells of
#: them stay finite, and thirds, whose mantissas do not terminate, make
#: them round, so that the order of a sum shows in its bits
MODERATE = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0).map(lambda v: v / 3.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17]),
)


def coord_arrays(shape, elements=COORDS):
    """Float arrays of ``shape`` with entries from ``elements``: each entry
    drawn on its own, or most of them one shared fill value (which lines up
    signed zeros)."""
    return st.one_of(hnp.arrays(float, shape, elements=elements, fill=st.nothing()),
                     hnp.arrays(float, shape, elements=elements))


def discrete_energy(prob, u):
    """The discrete energy of ``u``, by the solver kernel's barycenter
    quadrature at eps = 0."""
    kernel = pde_solver._Kernel(prob, u.mesh)
    return kernel.energy(kernel.q(u.values), 0.0)


@pytest.fixture
def unit_ball():
    return Ball((0.0, 0.0), 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def quad():
    return QuadratureSpec((64, 32))


def random_spd(rng, count, n, max_cond=1e6):
    """Random SPD batch with spectral condition number at most max_cond."""
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    spread = rng.uniform(0.0, np.log(max_cond), count)
    base = rng.uniform(-3.0, 3.0, count)
    evs = np.exp(base[:, None] + np.linspace(0.0, 1.0, n)[None, :] * spread[:, None])
    m = np.einsum("mik,mk,mjk->mij", q, evs, q)
    return 0.5 * (m + np.swapaxes(m, -1, -2))
