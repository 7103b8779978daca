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

__all__ = ["SPLITTINGS", "SPLIT_ORDERS", "workspace", "potential_phase",
           "potential_flow", "apply_splitting"]

SPLITTINGS = {
    "strang": (_tables.STRANG_ALPHA, _tables.STRANG_BETA),
    "rkn74": (_tables.RKN74_ALPHA, _tables.RKN74_BETA),
    "rkn116": (_tables.RKN116_ALPHA, _tables.RKN116_BETA),
}
SPLIT_ORDERS = {"strang": 2, "rkn74": 4, "rkn116": 6}


def workspace(shape):
    """Scratch arrays of ``shape`` for the potential flow at theta != 0: a
    real argument buffer and a complex factor buffer.  A workspace belongs
    to one thread.  A kernel given no workspace allocates its own."""
    return np.empty(shape), np.empty(shape, np.complex128)


def _cis(tau, phase, arg, out):
    """exp(-i tau phase) into ``out``, by cos and sin of arg = -tau phase."""
    np.multiply(-tau, phase, out=arg)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def potential_phase(tau, potential, line=None):
    """exp(-i tau P) as broadcast factors, one per part of P: ``potential``
    and, if given, the axial ``line`` of a 3-D stage, so cos and sin run on
    M1 M2 + M3 points, not on the whole grid."""
    parts = (potential,) if line is None else (potential, line)
    return [_cis(tau, part, np.empty(part.shape),
                 np.empty(part.shape, np.complex128)) for part in parts]


def _multiply(factors, values):
    # factor first: this order reproduces np.exp(...) * values bit for bit
    for factor in factors:
        np.multiply(factor, values, out=values)
    return values


def potential_flow(values, tau, potential, theta=0.0, work=None, line=None):
    """Exact flow of i u_t = (P + theta |u|^2) u over tau.

    |u| is pointwise invariant, so freezing the density makes this exact,
    not an approximation.  P is ``potential`` plus, if given, ``line``, both
    broadcast to ``values``: a stage's plane and axial line from
    ``TrapOnGrid.combination``.  Works in place, like ``kinetic_flow``.  At
    theta != 0 the phase is formed at full size in ``work``, a
    :func:`workspace`; at theta = 0 it is :func:`potential_phase`.
    """
    if not theta:
        return _multiply(potential_phase(tau, potential, line), values)
    arg, factor = workspace(values.shape) if work is None else work
    # |u|^2 into arg, with the factor's real part as scratch
    np.square(values.real, out=arg)
    np.add(arg, np.square(values.imag, out=factor.real), out=arg)
    phase = np.add(potential, nonlinearity(arg, theta, out=arg), out=arg)
    if line is not None:
        np.add(phase, line, out=phase)
    return _multiply((_cis(tau, phase, arg, factor),), values)


def apply_splitting(values, substeps, potentials, work=None, pad=0):
    """Run sub-steps ``(phase, tau, stage, theta)`` on values, in place:
    the kinetic flow by ``phase``, a ``grid.kinetic_phase``, unless it is
    None, then, unless tau is 0, the potential flow over tau of
    ``potentials[stage]``, a ``(potential, line)`` pair as
    :func:`potential_flow` takes it, with cubic coefficient theta.  The
    last ``pad`` entries of the last axis of values are padding, as
    :func:`kinetic_flow` takes it.

    At theta = 0 that phase is fixed within the call, so the factors of each
    (stage, tau) are built once and each later visit only multiplies.
    """
    factors = {}
    for phase, tau, stage, theta in substeps:
        if phase is not None:
            values = kinetic_flow(values, phase, pad)
        potential, line = potentials[stage]
        if tau and theta:
            potential_flow(values, tau, potential, theta, work, line)
        elif tau:
            if (stage, tau) not in factors:
                factors[stage, tau] = potential_phase(tau, potential, line)
            _multiply(factors[stage, tau], values)
    return values
