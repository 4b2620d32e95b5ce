import importlib.util
import signal
from pathlib import Path

import numpy as np
import pytest

from condfield.covariance import SqrtFactor
from condfield.grid import inner
from condfield.sampling import REAL


def load_byteid():
    """tools/byteid.py as a module: its command matrix, its table of edge commands and
    outcomes, and the functions that run them."""
    path = Path(__file__).resolve().parent.parent / "tools" / "byteid.py"
    spec = importlib.util.spec_from_file_location("byteid", path)
    byteid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(byteid)
    return byteid


def _adapted_split(factor, t, g, t_u, scalar):
    """Reference conditional draw in the adapted basis, on the grid: embed the
    P coefficients g as the white noise xi = V_P g / sqrt(w), replace its
    v-coefficient by t_u, phi_u = C^{1/2}(t_u v + xi_perp) with the symmetric
    root C^{1/2} and v = C^{1/2} T / sqrt(<T|C|T>), and return (values, r2)
    with r2 = ||xi_perp||^2."""
    grid = factor.grid
    # factor.modes = V_P sqrt(Lambda_P / w)
    xi = (factor.modes / np.sqrt(factor.eigenvalues)) @ g
    s_t = factor.s @ t.coeff
    v = s_t / np.sqrt(inner(s_t, s_t, grid).real)
    xi_perp = xi - inner(v, xi, grid) * v
    values = factor.s @ (t_u * v + xi_perp)
    return (values.real if scalar == REAL else values), float(inner(xi_perp, xi_perp, grid).real)


@pytest.fixture
def adapted_split():
    return _adapted_split


def _eigh_factor(cov):
    """Reference dense-route factor: L = V_P sqrt(Lambda_P / w) over the
    eigenpairs of a dense eigh of op above eps * lam_max."""
    lam, vec = np.linalg.eigh(cov.op)
    n_cut = int(np.count_nonzero(lam <= np.finfo(float).eps * lam[-1]))
    kept = lam[n_cut:][::-1]
    modes = vec[:, n_cut:][:, ::-1] * np.sqrt(kept / cov.grid.w)
    return SqrtFactor(cov=cov, modes=modes, eigenvalues=kept)


@pytest.fixture
def eigh_factor():
    return _eigh_factor


class _ZeroStream:
    """Stand-in stream whose normals are all zero, so `white_noise` reads
    g = 0; a fixed-rho `sample_t_u` reads nothing else from it."""

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
