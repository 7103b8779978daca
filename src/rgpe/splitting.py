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

__all__ = ["SPLITTINGS", "SPLIT_ORDERS", "splitting_pairs", "workspace",
           "potential_flow", "apply_splitting"]

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


# per splitting, the workspace slot of each distinct nonzero potential weight
_FACTOR_SLOTS = {
    name: {b: 1 + j for j, b in enumerate(dict.fromkeys(b for b in betas
                                                        if b))}
    for name, (_, betas) in SPLITTINGS.items()}


def workspace(shape, scheme=None, theta=0.0):
    """Scratch arrays of ``shape`` for the potential flow: a real argument
    buffer, then one complex factor buffer, or, for ``apply_splitting`` with
    the splitting ``scheme`` at theta = 0, one per distinct nonzero potential
    weight.  A workspace belongs to one thread.  A kernel given no workspace
    allocates its own."""
    factors = len(_FACTOR_SLOTS[scheme]) if scheme and not theta else 1
    return [np.empty(shape)] + [np.empty(shape, np.complex128)
                                for _ in range(factors)]


def _cis(tau, phase, arg, out):
    """exp(-i tau phase) into ``out``, by cos and sin of arg = -tau phase."""
    np.multiply(-tau, phase, out=arg)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def potential_flow(values, tau, potential, theta=0.0, work=None, line=None):
    """Exact flow of i u_t = (P + theta |u|^2) u over tau.

    |u| is pointwise invariant, so freezing the density makes this exact,
    not an approximation.  P is ``potential`` plus, if given, ``line``, both
    broadcast to ``values``: a stage's plane and axial line from
    ``TrapOnGrid.combination``.  Works in place, like ``kinetic_flow``, with
    the first two buffers of ``work``, a :func:`workspace`, as scratch;
    afterwards ``work[1]`` holds the phase factor
    exp(-i tau (P + theta |u|^2)).  At theta = 0 that factor is the plane's
    times the line's, so cos and sin run on M1 M2 + M3 points, not on the
    whole grid.
    """
    if work is None:
        work = workspace(values.shape)
    arg, factor = work[0], work[1]
    if theta:
        # |u|^2 into arg, with the factor's real part as scratch
        np.square(values.real, out=arg)
        np.add(arg, np.square(values.imag, out=factor.real), out=arg)
        phase = np.add(potential, nonlinearity(arg, theta, out=arg), out=arg)
        if line is not None:
            np.add(phase, line, out=phase)
        _cis(tau, phase, arg, factor)
    elif line is None:
        _cis(tau, potential, arg, factor)
    else:
        plane, axial = (_cis(tau, part, np.empty(part.shape),
                             np.empty(part.shape, np.complex128))
                        for part in (potential, line))
        np.multiply(plane, axial, out=factor)
    # factor first: this order reproduces np.exp(...) * values bit for bit
    return np.multiply(factor, values, out=values)


def apply_splitting(grid, values, scheme, tau, potential, kinetic_coef=1.0,
                    theta=0.0, work=None, line=None):
    """Propagate values over tau with the named splitting, in place.

    ``potential`` and ``line`` are the stage potential as
    :func:`potential_flow` takes it; ``kinetic_coef`` scales the kinetic
    term (stages of the exponential integrators need fractional, sometimes
    negative, kinetic weights); ``theta`` is the cubic coefficient as seen
    by this stage, i.e. already scaled by the kinetic weight.  At theta = 0
    the potential phase is fixed for the whole call, so each distinct
    potential weight's factor is computed once, into its own buffer of
    ``work`` (``workspace(shape, scheme, theta)``), and later visits only
    multiply.
    """
    alphas, betas = splitting_pairs(scheme)
    slots = _FACTOR_SLOTS[scheme]
    if work is None:
        work = workspace(values.shape, scheme, theta)
    done = set()
    for a, b in zip(alphas, betas):
        values = kinetic_flow(grid, values, a * tau, kinetic_coef)
        if not b:
            continue
        if theta:
            potential_flow(values, b * tau, potential, theta, work, line)
        elif b in done:
            np.multiply(work[slots[b]], values, out=values)
        else:
            potential_flow(values, b * tau, potential, 0.0,
                           (work[0], work[slots[b]]), line)
            done.add(b)
    return values
