"""Fourier pseudospectral machinery.

A ``Grid`` is a uniform periodic box ``[-L1, L1) x ... x [-Ld, Ld)`` with the
standard FFT wavenumber layout ``k_n = (pi / L) * n`` for integer frequencies
``n`` in ``[-M/2, M/2)``.  The exact kinetic flow ``exp(i tau Laplacian / 2)``
is a diagonal phase in Fourier space; every application costs one forward /
inverse transform pair, so a method's cost per step is a fixed count of pairs
(``integrators.pairs_per_step``) and schemes are compared by transforms rather
than by step counts.
"""

import math
import os
import struct

import numpy as np
from scipy import fft as _fft

__all__ = ["Grid", "Field", "kinetic_flow", "write_field", "read_field"]

_MAGIC = b"RGPE"
_VERSION = 1
_FRAME_CODES = {"rotating": 0, "lab": 1}
_FRAME_NAMES = {v: k for k, v in _FRAME_CODES.items()}


class Grid:
    """Uniform periodic 2-D or 3-D grid; it stores nothing mutable.

    |k|^2 is kept as one (M1, M2) array in 2-D and, in 3-D, as two
    broadcastable parts, the first axis's column (M1, 1, 1) and the trailing
    axes' block (1, M2, M3), so no full-size 3-D array is stored.  The
    spacing 2L/M must be finite and positive and the largest |k|^2,
    sum_l (pi M_l / 2 L_l)^2, finite.
    """

    def __init__(self, dim, half_widths, sizes):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if len(half_widths) != dim or len(sizes) != dim:
            raise ValueError("half_widths and sizes must have length dim")
        for m in sizes:
            if m < 4 or m % 2:
                raise ValueError(f"grid sizes must be even and >= 4, got {m}")
        sizes = tuple(int(m) for m in sizes)
        self.dim = dim
        self.sizes = sizes
        # fix the spacing first and re-derive the half width from it, so that
        # spacing * M/2 == half_width holds exactly in floating point
        self.spacings = tuple(2.0 * float(L) / m
                              for L, m in zip(half_widths, sizes))
        if not all(0 < dx < np.inf for dx in self.spacings):
            raise ValueError(f"grid spacings 2L/M must be positive and "
                             f"finite, got {self.spacings}")
        kmax = [np.pi / dx for dx in self.spacings]
        if not math.isfinite(sum(k * k for k in kmax)):
            raise ValueError(f"grid spacings {self.spacings} are too fine: "
                             "the largest |k|^2 overflows")
        self.half_widths = tuple(dx * (m // 2)
                                 for dx, m in zip(self.spacings, sizes))
        self.axes = tuple(-L + dx * np.arange(m)
                          for L, dx, m in zip(self.half_widths,
                                              self.spacings, sizes))
        self.wavenumbers = tuple(
            (np.pi / L) * np.fft.fftfreq(m, 1.0 / m)
            for L, m in zip(self.half_widths, sizes))
        ksq = [k ** 2 for k in self.wavenumbers]
        self._ksq = ((ksq[0][:, None] + ksq[1],) if dim == 2 else
                     (ksq[0][:, None, None], (ksq[1][:, None] + ksq[2])[None]))

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.dim == other.dim
                and self.sizes == other.sizes
                and self.half_widths == other.half_widths)

    def __repr__(self):
        return (f"Grid(dim={self.dim}, half_widths={self.half_widths}, "
                f"sizes={self.sizes})")

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def coordinates(self):
        """Sparse broadcastable coordinate arrays (xi_1, ..., xi_d)."""
        out = []
        for ax, x in enumerate(self.axes):
            shape = [1] * self.dim
            shape[ax] = self.sizes[ax]
            out.append(x.reshape(shape))
        return tuple(out)

    def l2_norm(self, values):
        return float(np.sqrt(self.cell_volume * np.vdot(values, values).real))

    def kinetic_phase(self, tau):
        """exp(-i tau |k|^2 / 2) as exp(-i tau part / 2) for each stored part
        of |k|^2: one (M1, M2) factor in 2-D, a column and a block in 3-D
        whose broadcast product is the full phase."""
        return tuple(np.exp((-0.5j * tau) * part) for part in self._ksq)


def kinetic_flow(values, phase, pad=0):
    """Multiply the spectrum of ``values`` by the factors of ``phase``.

    With ``phase = grid.kinetic_phase(tau)`` this is exp(i tau Laplacian / 2),
    the free flow of -Laplacian/2 over tau; tau may be negative (several
    schemes take backward fractional steps).  Factors with fewer axes than
    ``values`` act on its trailing axes alone, so a 2-D grid's phase flows
    each plane of a batch of planes.  The last ``pad`` entries of the last
    axis are padding: the transforms skip them, and the factors, which must
    be 1 there, multiply the whole array in one contiguous pass.  Works in
    place: ``values``, a complex128 array, is overwritten with the result
    and returned, so pass a copy to keep the input.  Costs exactly one
    transform pair.
    """
    if values.dtype != np.complex128:
        raise TypeError(f"kinetic_flow works in place on complex128 arrays, "
                        f"got {values.dtype}")
    span = max(factor.ndim for factor in phase)
    # None when every axis is transformed: explicit axes cost scipy more
    axes = (None if span == values.ndim
            else tuple(range(values.ndim - span, values.ndim)))
    view = values[..., :values.shape[-1] - pad]
    # both transforms write into the memory of values
    _fft.fftn(view, axes=axes, overwrite_x=True)
    for factor in phase:
        np.multiply(values, factor, out=values)
    _fft.ifftn(view, axes=axes, overwrite_x=True)
    return values


class Field:
    """A complex-valued state on a grid, tagged with a finite time and a
    frame."""

    __slots__ = ("grid", "values", "time", "frame")

    def __init__(self, grid, values, time=0.0, frame="rotating"):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.sizes:
            raise ValueError(f"values shape {values.shape} does not match "
                             f"grid sizes {grid.sizes}")
        if frame not in _FRAME_CODES:
            raise ValueError(f"unknown frame {frame!r}")
        time = float(time)
        if not math.isfinite(time):
            raise ValueError(f"field time must be finite, got {time}")
        self.grid = grid
        self.values = values
        self.time = time
        self.frame = frame

    def density(self):
        return np.abs(self.values) ** 2

    def norm(self):
        return self.grid.l2_norm(self.values)

    def distance(self, other):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return self.grid.l2_norm(self.values - other.values)


def write_field(field, path):
    """Serialize a field: magic, version, grid, time, frame, then the raw
    complex samples in row-major order, all little-endian."""
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, g.dim))
        fh.write(struct.pack(f"<{g.dim}I", *g.sizes))
        fh.write(struct.pack(f"<{g.dim}d", *g.half_widths))
        fh.write(struct.pack("<d", field.time))
        fh.write(struct.pack("<B", _FRAME_CODES[field.frame]))
        fh.write(np.ascontiguousarray(field.values, dtype="<c16").tobytes())


def _unpack(fh, fmt):
    """Read and unpack one header item; a short read is a corrupt dump."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError("corrupt dump: truncated header")
    return struct.unpack(fmt, raw)


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a field dump: bad magic {magic!r}")
        version, dim = _unpack(fh, "<II")
        if version != _VERSION:
            raise ValueError(f"unsupported dump version {version}")
        if dim not in (2, 3):
            raise ValueError(f"corrupt dump: dim = {dim}")
        sizes = _unpack(fh, f"<{dim}I")
        half_widths = _unpack(fh, f"<{dim}d")
        (time,) = _unpack(fh, "<d")
        (frame_code,) = _unpack(fh, "<B")
        if frame_code not in _FRAME_NAMES:
            raise ValueError(f"corrupt dump: frame code {frame_code}")
        # Python ints: a corrupt size field must not overflow or allocate
        expected = 16 * math.prod(sizes)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != expected:
            raise ValueError(f"corrupt dump: sizes {sizes} need a payload of "
                             f"{expected} bytes, found {left}")
        raw = fh.read(expected)
        values = np.frombuffer(raw, dtype="<c16").reshape(sizes)
    grid = Grid(dim, half_widths, sizes)
    return Field(grid, values.copy(), time, _FRAME_NAMES[frame_code])
