"""Kinetic/potential operator splittings.

A splitting is a palindromic list of kinetic-first coefficient pairs
``(alpha_l, beta_l)``; applying it realizes ``exp(-i tau (b K + P + b theta
|phi|^2))`` with ``K = -Laplacian/2`` by alternating the exact Fourier-space
kinetic flow with the exact pointwise potential flow (the modulus, and hence
the nonlinear term, is invariant during the latter).  The kinetic-first
convention with a trailing zero potential coefficient makes the number of
transform pairs per application exactly the number of pairs in the table.
"""

import numpy as np

from . import _tables
from .model import nonlinearity
from .spectral import kinetic_flow

__all__ = ["SPLITTINGS", "SPLIT_ORDERS", "splitting_pairs", "potential_flow",
           "apply_splitting"]

SPLITTINGS = {
    "strang": (_tables.STRANG_ALPHA, _tables.STRANG_BETA),
    "rkn74": (_tables.RKN74_ALPHA, _tables.RKN74_BETA),
    "rkn116": (_tables.RKN116_ALPHA, _tables.RKN116_BETA),
}
SPLIT_ORDERS = {"strang": 2, "rkn74": 4, "rkn116": 6}


def splitting_pairs(name):
    try:
        return SPLITTINGS[name]
    except KeyError:
        raise ValueError(f"unknown splitting {name!r}; "
                         f"available: {', '.join(sorted(SPLITTINGS))}") from None


def potential_flow(values, tau, potential, theta=0.0):
    """Exact flow of i u_t = (P + theta |u|^2) u over tau.

    |u| is pointwise invariant, so freezing the density makes this exact,
    not an approximation.
    """
    if theta:
        phase = potential + nonlinearity(values.real ** 2 + values.imag ** 2,
                                         theta)
    else:
        phase = potential
    return np.exp((-1j * tau) * phase) * values


def apply_splitting(grid, values, scheme, tau, potential, kinetic_coef=1.0,
                    theta=0.0):
    """Propagate values over tau with the named (or explicit) splitting.

    ``potential`` is a real array on the grid; ``kinetic_coef`` scales the
    kinetic term (stages of the exponential integrators need fractional,
    sometimes negative, kinetic weights); ``theta`` is the cubic coefficient
    as seen by this stage, i.e. already scaled by the kinetic weight.
    """
    if isinstance(scheme, str):
        alphas, betas = splitting_pairs(scheme)
    else:
        alphas, betas = scheme
    for a, b in zip(alphas, betas):
        values = kinetic_flow(grid, values, a * tau, kinetic_coef)
        if b:
            values = potential_flow(values, b * tau, potential, theta)
    return values
