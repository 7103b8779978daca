"""Physical model: an anisotropic harmonic trap seen from a rotating frame.

In the co-rotating coordinates the Laplacian keeps its form and the only
time dependence left is the trap, evaluated at the back-rotated position.
Because the trap is quadratic, the rotated potential stays a quadratic form
with time-dependent coefficients, and so do a stage's node combination and
the squared gradient difference of the gradient correction.  A stage
potential is summed on its coefficients and evaluated once, in place, as an
in-plane quadratic plus, in 3-D, an axial line.
"""

import numpy as np

__all__ = ["Trap", "TrapOnGrid", "nonlinearity", "gaussian_state",
           "vortex_state"]


def nonlinearity(density, theta, out=None):
    """Pointwise nonlinear potential; cubic, so simply theta * |phi|^2."""
    return np.multiply(theta, density, out=out)


class Trap:
    """Harmonic trap 0.5 * sum_l gamma_l^2 x_l^2 rotating at a constant rate.

    ``gammas`` has length 2 or 3; the rotation acts in the (x1, x2) plane and
    the rotation angle at time t is ``rotation_rate * t``.
    """

    def __init__(self, gammas, rotation_rate):
        gammas = tuple(float(g) for g in gammas)
        if len(gammas) not in (2, 3):
            raise ValueError("gammas must have length 2 or 3")
        # the coefficients square the frequencies, so the squares must be finite
        if not all(0 < g and g * g < np.inf for g in gammas):
            raise ValueError(f"trap frequencies must be positive, and gammas "
                             f"must have finite squares, got {gammas}")
        rotation_rate = float(rotation_rate)
        if not np.isfinite(rotation_rate):
            raise ValueError(f"rotation rate must be finite, "
                             f"got {rotation_rate}")
        self.gammas = gammas
        self.rotation_rate = rotation_rate

    @property
    def dim(self):
        return len(self.gammas)

    def angle(self, t):
        return self.rotation_rate * t

    def quad_coefficients(self, t):
        """Coefficients (c11, c22, c12[, c33]) of the rotated trap

        W(xi, t) = c11 xi_1^2 + c22 xi_2^2 + c12 xi_1 xi_2 [+ c33 xi_3^2].
        """
        g1s, g2s = self.gammas[0] ** 2, self.gammas[1] ** 2
        w = self.angle(t)
        c, s = np.cos(w), np.sin(w)
        c11 = 0.5 * (g1s * c * c + g2s * s * s)
        c22 = 0.5 * (g1s * s * s + g2s * c * c)
        c12 = (g1s - g2s) * s * c
        return (c11, c22, c12) + tuple(0.5 * g ** 2 for g in self.gammas[2:])

    def gradient_coefficients(self, t):
        """Entries (a11, a22, a12[, a33]) of the symmetric matrix A(t) with
        grad W(xi, t) = A(t) xi, i.e. (2 c11, 2 c22, c12[, 2 c33])."""
        c11, c22, c12, *c33 = self.quad_coefficients(t)
        return (2.0 * c11, 2.0 * c22, c12) + tuple(2.0 * c for c in c33)

    def gradient_difference_coefficient(self, t1, t0):
        """kappa = |grad W(xi, t1) - grad W(xi, t0)|^2 / (xi_1^2 + xi_2^2).

        In the plane A(t1) - A(t0) = [[d11, d12], [d12, -d11]] squares to
        (d11^2 + d12^2) I; x3 does not rotate.  The anisotropy g1^2 - g2^2
        factors out of d11 and d12, so kappa is exactly 0 for isotropic traps.
        """
        aniso = self.gammas[0] ** 2 - self.gammas[1] ** 2
        w1, w0 = self.angle(t1), self.angle(t0)
        c1, s1 = np.cos(w1), np.sin(w1)
        c0, s0 = np.cos(w0), np.sin(w0)
        d11 = aniso * (c1 * c1 - c0 * c0)
        d12 = aniso * (s1 * c1 - s0 * c0)
        return d11 * d11 + d12 * d12


class TrapOnGrid:
    """A trap on a grid; holds only the sparse coordinate vectors and their
    squares, and builds each field on request from its coefficients."""

    def __init__(self, trap, grid):
        if trap.dim != grid.dim:
            raise ValueError(f"trap dimension {trap.dim} does not match "
                             f"grid dimension {grid.dim}")
        self.trap = trap
        self.grid = grid
        self._x = grid.coordinates()
        self._sq = tuple(x * x for x in self._x)

    def coefficients(self, times):
        """The quadratic-form coefficients of W(., t) at each time."""
        return [self.trap.quad_coefficients(t) for t in times]

    def combination(self, weights, coefficients, shift=0.0):
        """sum_k weights[k] W(., t_k) + shift (xi_1^2 + xi_2^2), given W's
        :meth:`coefficients` at the t_k, summed on the coefficients.

        Returns (plane, line): the in-plane quadratic, a new array on
        (M1, M2), or (M1, M2, 1) in 3-D, and the axial term on (1, 1, M3)
        in 3-D, None in 2-D.  The trap rotates in the (xi_1, xi_2) plane
        only, so their broadcast sum is the whole field.
        """
        c11, c22, c12, *c33 = (sum(w * c[i] for w, c in zip(weights,
                                                            coefficients))
                               for i in range(len(coefficients[0])))
        x, sq = self._x, self._sq
        plane = np.multiply(x[0], c12 * x[1])
        plane += (c11 + shift) * sq[0]
        plane += (c22 + shift) * sq[1]
        return plane, (c33[0] * sq[2] if c33 else None)

    def gradient_difference_sq(self, t1, t0):
        """|grad(W(., t1) - W(., t0))|^2 on the grid, from its kappa."""
        kappa = self.trap.gradient_difference_coefficient(t1, t0)
        return np.broadcast_to(kappa * (self._sq[0] + self._sq[1]),
                               self.grid.sizes)


def gaussian_state(grid, widths):
    """prod_l exp(-widths_l^2 xi_l^2 / 2), the standard smooth test state."""
    if len(widths) != grid.dim:
        raise ValueError("one width per dimension required")
    expo = sum(-0.5 * float(w) ** 2 * x * x
               for w, x in zip(widths, grid.coordinates()))
    return np.exp(expo).astype(np.complex128)


def vortex_state(grid):
    """(xi_1 + i xi_2) exp(-|xi|^2/2) / sqrt(pi): a unit-norm central vortex."""
    if grid.dim != 2:
        raise ValueError("the vortex state is two-dimensional")
    x1, x2 = grid.coordinates()
    r2 = x1 * x1 + x2 * x2
    psi = (x1 + 1j * x2) * np.exp(-0.5 * r2) / np.sqrt(np.pi)
    return np.ascontiguousarray(np.broadcast_to(psi, grid.sizes))
