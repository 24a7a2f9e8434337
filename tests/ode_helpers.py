"""W(r; E) of u'' + W u = 0 for each radial equation: the shooting and second-difference checks' inputs.

The FD oracle returns eigenvalues only; tests that need its eigenvectors
take them from scipy's eigh_tridiagonal on the oracle's own matrix.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from hgmorse.oracle import _fd_matrix
from hgmorse.potential import centrifugal_approx, potential_approx
from hgmorse.relativistic import model_functions
from hgmorse.units import HBAR_C_EV_ANGSTROM


def schrodinger_ode_coefficient(p, part, l):
    """W(r; E) for the approximated nonrelativistic radial equation."""
    T = part.two_mu_over_hbar2

    def W(r, E):
        return T * (E - potential_approx(p, r)) - centrifugal_approx(p.alpha, r, float(l * (l + 1)))

    return W


def ode_coefficient(model, p, M, *state):
    """W(r; E) for a relativistic model's radial equation, state as its solver takes it, at the default hbar c."""
    return model_functions(model)[3](p, M, *state, hbar_c=HBAR_C_EV_ANGSTROM)


def eigh_tridiagonal_reference(diag, off, k, eigvals_only):
    """scipy's lowest k eigenvalues (and vectors) of a symmetric tridiagonal matrix, by dstebz
    (and dstein): the reference the FD oracle's direct dstebz call must reproduce bit for bit."""
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=eigvals_only)


def fd_mode_nodes(p, part, l, g, k, rel):
    """Interior sign changes of each of the lowest k eigenvectors of the FD oracle's matrix on g,
    ignoring entries below rel times the vector's largest."""
    _, vecs = eigh_tridiagonal_reference(*_fd_matrix(p, part, l, g, k), k, eigvals_only=False)
    nodes = []
    for v in vecs.T:
        signs = np.sign(v[np.abs(v) > rel * np.abs(v).max()])
        nodes.append(int(np.sum(signs[1:] * signs[:-1] < 0)))
    return nodes
