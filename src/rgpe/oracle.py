"""Dense small-problem references and measurement utilities.

Everything here recomputes the physics from first principles: the potential
straight from the rotation matrix, the Laplacian as an explicitly assembled
DFT-diagonalized matrix, the propagator from a truncated exponent of the
quadratically interpolated Hamiltonian.  None of it shares code with the
fast stepping path, so agreement between the two is evidence rather than
tautology.  Dense work is capped at small grids by construction.
"""

import math

import numpy as np

__all__ = ["GAUSS3_NODES", "DENSE_LIMIT", "potential_direct", "dense_kinetic",
           "rotation_matrix", "build_dense", "alpha_triple", "magnus_omega6",
           "magnus_omega6_modified", "omega6_exponent", "midpoint_reference",
           "dense_reference", "observed_order", "local_order_check",
           "gradient_deviation", "classical_transform_check"]

_S15 = math.sqrt(15.0)
GAUSS3_NODES = (0.5 - _S15 / 10.0, 0.5, 0.5 + _S15 / 10.0)

# largest number of unknowns the dense path accepts (a 2-D 16x16 problem
# already means 256x256 matrices; beyond ~4096 the exponentials crawl)
DENSE_LIMIT = 4096


def rotation_matrix(trap, t):
    """Map from rotating to laboratory coordinates, x = R(t) xi: the
    trap's rotation in the (x1, x2) plane by the angle ``trap.angle(t)``."""
    w = trap.angle(t)
    c, s = np.cos(w), np.sin(w)
    R = np.eye(trap.dim)
    R[:2, :2] = ((c, s), (-s, c))
    return R


def potential_direct(trap, points, t):
    """V(R(t) xi) by explicit matrix-vector product, nothing expanded.

    ``points`` has shape (..., dim); the result drops the last axis.
    """
    x = np.asarray(points, dtype=float) @ rotation_matrix(trap, t).T
    g = np.asarray(trap.gammas)
    return 0.5 * np.sum((g * x) ** 2, axis=-1)


def grid_points(grid):
    """All grid coordinates as a flat (n_points, dim) array, row-major."""
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, grid.dim)


def dense_kinetic(grid):
    """-Laplacian/2 as an explicit matrix acting on flattened row-major data.

    Assembled column by column by pushing basis vectors through a DFT
    diagonalization with locally recomputed wavenumbers.
    """
    n = int(np.prod(grid.sizes))
    if n > DENSE_LIMIT:
        raise ValueError(f"{n} unknowns is too large for the dense oracle "
                         f"(limit {DENSE_LIMIT})")
    ksq = np.zeros(grid.sizes)
    for ax, (L, m) in enumerate(zip(grid.half_widths, grid.sizes)):
        k = (math.pi / L) * np.fft.fftfreq(m, 1.0 / m)
        shape = [1] * grid.dim
        shape[ax] = m
        ksq = ksq + (k ** 2).reshape(shape)
    axes = tuple(range(1, grid.dim + 1))
    A = np.empty((n, n), dtype=complex)
    block = 256
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        basis = np.zeros((hi - lo, n), dtype=complex)
        basis[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        spec = np.fft.fftn(basis.reshape((-1,) + grid.sizes), axes=axes)
        out = np.fft.ifftn(spec * (0.5 * ksq), axes=axes)
        A[:, lo:hi] = out.reshape(hi - lo, n).T
    return A


def build_dense(grid, trap, t):
    """H(t) = -Laplacian/2 + diag(W(., t)) as an explicit Hermitian matrix."""
    A = dense_kinetic(grid)
    H = A + np.diag(potential_direct(trap, grid_points(grid), t))
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise AssertionError("dense Hamiltonian lost Hermiticity")
    return H


def alpha_triple(A, B1, B2, B3, h):
    """Graded pieces of -i h times the interpolated Hamiltonian.

    B1, B2, B3 are samples of the time-dependent part at the three
    Gauss-Legendre nodes; A is the autonomous part.
    """
    for B in (B1, B2, B3):
        if B.shape != A.shape:
            raise ValueError("operator dimensions do not match")
    a1 = (-1j * h) * (A + B2)
    a2 = (-1j * h) * (_S15 / 3.0) * (B3 - B1)
    a3 = (-1j * h) * (10.0 / 3.0) * (B3 - 2.0 * B2 + B1)
    return a1, a2, a3


def _com(x, y):
    return x @ y - y @ x


def _omega6(alphas, with_23):
    a1, a2, a3 = alphas
    c12 = _com(a1, a2)
    out = a1 + a3 / 12.0 - c12 / 12.0
    if with_23:
        out = out + _com(a2, a3) / 240.0
    out = out + _com(a1, _com(a1, a3)) / 360.0
    out = out - _com(a2, c12) / 240.0
    out = out + _com(a1, _com(a1, c12)) / 720.0
    return out


def magnus_omega6(alphas):
    """Sixth-order truncated exponent: the seven-term nested-commutator sum."""
    return _omega6(alphas, with_23=True)


def magnus_omega6_modified(alphas):
    """Same sum without the [2,3] commutator, which vanishes whenever the
    sampled time-dependent parts commute with one another."""
    return _omega6(alphas, with_23=False)


def omega6_exponent(A, b_of_t, t, h):
    Bs = [b_of_t(t + c * h) for c in GAUSS3_NODES]
    alphas = alpha_triple(A, Bs[0], Bs[1], Bs[2], h)
    return magnus_omega6(alphas)


def midpoint_reference(A, b_of_t, u0, t0, t1, n_steps=10000):
    """Brute-force propagator: exponential midpoint micro-steps.

    Unconditionally unitary for Hermitian input and structurally unrelated
    to the truncated-exponent path, hence usable as its referee.
    """
    from scipy.linalg import expm  # here, so ``import rgpe`` stays light

    u = np.array(u0, dtype=complex)
    d = (t1 - t0) / n_steps
    for j in range(n_steps):
        u = expm((-1j * d) * (A + b_of_t(t0 + (j + 0.5) * d))) @ u
    return u


def dense_reference(grid, trap, values, t0, t1, n_micro=256, theta=0.0):
    """Propagate a small linear problem with micro-steps of e^{exponent}.

    The ground truth for time-integration error measurements on tiny grids:
    spatial discretization is shared with the solver under test, so the
    comparison isolates the time stepping.
    """
    from scipy.linalg import expm

    if theta:
        raise ValueError("the dense reference covers the linear case only")
    A = dense_kinetic(grid)
    pts = grid_points(grid)

    def b_of_t(t):
        return np.diag(potential_direct(trap, pts, t))

    u = np.asarray(values, dtype=complex).reshape(-1).copy()
    d = (t1 - t0) / n_micro
    for j in range(n_micro):
        u = expm(omega6_exponent(A, b_of_t, t0 + j * d, d)) @ u
    return u.reshape(grid.sizes)


def observed_order(stepsizes, errors, window=None, floor=1e-12):
    """Least-squares slope of log error against log stepsize.

    Points outside ``window`` (or below the roundoff ``floor``) are dropped;
    fewer than three surviving points is an error, not a guess.
    """
    hs = np.asarray(stepsizes, dtype=float)
    es = np.asarray(errors, dtype=float)
    keep = np.isfinite(es) & (es > floor)
    if window is not None:
        keep &= (es >= window[0]) & (es <= window[1])
    if int(keep.sum()) < 3:
        raise ValueError("need at least 3 usable points for a slope")
    return float(np.polyfit(np.log(hs[keep]), np.log(es[keep]), 1)[0])


def local_order_check():
    """(slope, gap) of the truncated exponent on random 16-dimensional
    Hermitian problems: the slope of its one-step error against the
    micro-step propagator (nominally 7), and the largest entry of the full
    minus the modified exponent for commuting (diagonal) samples."""
    from scipy.linalg import expm

    rng = np.random.default_rng(2718)
    n = 16
    mats = []
    for _ in range(4):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (M + M.conj().T)
        mats.append(M / np.linalg.norm(M, 2))
    A, B0, B1, B2 = mats

    def b_of_t(t):
        return B0 + t * B1 + t * t * B2

    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u0 /= np.linalg.norm(u0)
    hs = [0.2, 0.16, 0.125, 0.1, 0.08]
    errs = [float(np.linalg.norm(
        expm(omega6_exponent(A, b_of_t, 0.0, h)) @ u0
        - midpoint_reference(A, b_of_t, u0, 0.0, h, 10000))) for h in hs]
    slope = observed_order(hs, errs)

    D = [np.diag(rng.standard_normal(n)) for _ in range(3)]
    alphas = alpha_triple(A, D[0], D[1], D[2], 0.3)
    gap = np.abs(magnus_omega6(alphas)
                 - magnus_omega6_modified(alphas)).max()
    return slope, float(gap)


def gradient_deviation(trap, t0, t1, seed):
    """Worst relative deviation of ``trap.gradient_coefficients`` from
    central differences (step 1e-5) of :func:`potential_direct`, over 1000
    random points in [-5, 5]^dim at random times in [t0, t1]."""
    rng = np.random.default_rng(seed)
    step = 1e-5
    worst = 0.0
    for _ in range(1000):
        xi = rng.uniform(-5.0, 5.0, size=trap.dim)
        t = rng.uniform(t0, t1)
        a = trap.gradient_coefficients(t)
        grad = np.array([a[0] * xi[0] + a[2] * xi[1],
                         a[2] * xi[0] + a[1] * xi[1]]
                        + [a33 * x3 for a33, x3 in zip(a[3:], xi[2:])])
        fd = np.empty_like(grad)
        for ax in range(trap.dim):
            e = np.zeros(trap.dim)
            e[ax] = step
            fd[ax] = (potential_direct(trap, xi + e, t)
                      - potential_direct(trap, xi - e, t)) / (2 * step)
        worst = max(worst, float(np.linalg.norm(grad - fd))
                    / max(float(np.linalg.norm(grad)), 1e-9))
    return worst


# ---------------------------------------------------------------------------
# classical (point-particle) check of the rotating-frame transform


def _lab_rhs(t, y, trap):
    w = trap.rotation_rate
    g1s = trap.gammas[0] ** 2
    g2s = trap.gammas[1] ** 2
    x1, x2, p1, p2 = y
    return (p1 + w * x2, p2 - w * x1,
            -g1s * x1 + w * p2, -g2s * x2 - w * p1)


def _rot_rhs(t, y, trap):
    a11, a22, a12 = trap.gradient_coefficients(t)[:3]
    q1, q2, r1, r2 = y
    return (r1, r2, -(a11 * q1 + a12 * q2), -(a12 * q1 + a22 * q2))


def _axpy(y, k, s):
    return tuple(yi + s * ki for yi, ki in zip(y, k))


def _rk4_step(f, t, y, h, trap):
    k1 = f(t, y, trap)
    k2 = f(t + 0.5 * h, _axpy(y, k1, 0.5 * h), trap)
    k3 = f(t + 0.5 * h, _axpy(y, k2, 0.5 * h), trap)
    k4 = f(t + h, _axpy(y, k3, h), trap)
    return tuple(yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def classical_transform_check(trap, q0=(1.0, 0.0), p0=(0.0, 1.0),
                              t_final=4.0, step=1e-4):
    """Integrate the same point particle in both frames and compare.

    The laboratory system (with the angular-momentum coupling) and the
    rotating system (plain mechanical system in the rotated potential) are
    advanced side by side with a fixed-step classical fourth-order
    integrator.  The rotating trajectory is compared against the rotated
    laboratory one every tenth step and at the end.  Returns the maximum
    absolute deviation over all phase-space components and the worst
    mismatch of the two Hamiltonians at matched states (they differ by the
    angular-momentum term exactly).
    """
    if trap.dim != 2:
        raise ValueError("the classical check is two-dimensional")
    y_lab = (float(q0[0]), float(q0[1]), float(p0[0]), float(p0[1]))
    y_rot = y_lab
    n = int(round(t_final / step))
    h = t_final / n
    w = trap.rotation_rate
    g1s = trap.gammas[0] ** 2
    g2s = trap.gammas[1] ** 2

    max_dev = 0.0
    max_energy = 0.0

    def inspect(t, lab, rot):
        nonlocal max_dev, max_energy
        c, s = math.cos(w * t), math.sin(w * t)
        x1, x2, p1, p2 = lab
        # R(t)^T maps laboratory to rotating coordinates
        pred = (c * x1 - s * x2, s * x1 + c * x2,
                c * p1 - s * p2, s * p1 + c * p2)
        max_dev = max(max_dev, max(abs(a - b) for a, b in zip(pred, rot)))
        q1, q2, r1, r2 = rot
        h_rot = 0.5 * (r1 * r1 + r2 * r2) + float(
            potential_direct(trap, np.array([q1, q2]), t))
        h_lab = 0.5 * (p1 * p1 + p2 * p2) \
            + 0.5 * (g1s * x1 * x1 + g2s * x2 * x2)
        max_energy = max(max_energy, abs(h_rot - h_lab))

    inspect(0.0, y_lab, y_rot)
    for i in range(n):
        t = i * h
        y_lab = _rk4_step(_lab_rhs, t, y_lab, h, trap)
        y_rot = _rk4_step(_rot_rhs, t, y_rot, h, trap)
        if (i + 1) % 10 == 0 or i + 1 == n:
            inspect((i + 1) * h, y_lab, y_rot)
    return max_dev, max_energy
