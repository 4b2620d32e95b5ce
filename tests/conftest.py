import signal

import numpy as np
import pytest

from condfield.grid import inner
from condfield.sampling import REAL


def _adapted_split(factor, t, xi, t_u, scalar):
    """Reference conditional draw in the adapted basis: replace the
    v-coefficient of xi by t_u, phi_u = C^{1/2}(t_u v + xi_perp), and return
    (values, r2) with r2 = ||xi_perp||^2."""
    g = factor.grid
    s_t = factor.apply(t.coeff)
    v = s_t / np.sqrt(inner(s_t, s_t, g).real)
    xi_perp = xi - inner(v, xi, g) * v
    values = factor.apply(t_u * v + xi_perp)
    return (values.real if scalar == REAL else values), float(inner(xi_perp, xi_perp, g).real)


@pytest.fixture
def adapted_split():
    return _adapted_split


class _ZeroStream:
    """Stand-in stream whose normals are all zero, so `white_noise` reads
    xi = 0; a fixed-rho `sample_t_u` reads nothing else from it."""

    def standard_normal(self, shape):
        return np.zeros(shape)


@pytest.fixture
def zero_stream():
    return _ZeroStream()


@pytest.fixture
def deadline():
    """Fail the test after 20 s instead of stalling the suite on a hang."""
    def expire(signum, frame):
        pytest.fail("did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
