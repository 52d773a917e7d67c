import numpy as np
import pytest
from hypothesis import strategies as st

from degcz.weight_algebra import Ball, QuadratureSpec

#: coordinates with signed zeros, subnormal, tiny and large magnitudes
COORDS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


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
