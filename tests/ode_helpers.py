"""W(r; E) of u'' + W u = 0 for each radial equation: the shooting and second-difference checks' inputs."""

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
