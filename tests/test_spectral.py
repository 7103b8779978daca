"""Grid, kinetic flow, and field I/O."""

import struct

import numpy as np
import pytest

from rgpe.spectral import Field, Grid, kinetic_flow, read_field, write_field


def test_spacing_is_exact():
    grid = Grid(2, (10.0, 10.0), (64, 64))
    assert grid.spacings == (0.3125, 0.3125)
    # the advertised identity holds exactly in floating point
    for s, m, L in zip(grid.spacings, grid.sizes, grid.half_widths):
        assert s * m == 2.0 * L


def test_wavenumber_ordering_matches_fft_layout():
    grid = Grid(2, (np.pi, np.pi), (4, 4))
    np.testing.assert_array_equal(grid.wavenumbers[0], [0.0, 1.0, -2.0, -1.0])


def test_axes_cover_half_open_box():
    grid = Grid(2, (2.0, 3.0), (8, 4))
    np.testing.assert_allclose(grid.axes[0], -2.0 + 0.5 * np.arange(8))
    np.testing.assert_allclose(grid.axes[1], -3.0 + 1.5 * np.arange(4))


def test_l2_norm_of_ones():
    grid = Grid(2, (1.0, 1.0), (4, 4))
    assert grid.l2_norm(np.ones(grid.sizes)) == pytest.approx(2.0, abs=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, (1.0,), (4, 4))            # half_widths length mismatch
    with pytest.raises(ValueError):
        Grid(2, (1.0, 1.0), (4, 5))        # odd size
    with pytest.raises(ValueError):
        Grid(2, (1.0, 1.0), (4, 2))        # below minimum
    with pytest.raises(ValueError):
        Grid(2, (1.0, -1.0), (4, 4))       # nonpositive extent
    with pytest.raises(ValueError):
        Grid(2, (float("inf"), 1.0), (4, 4))  # infinite extent
    with pytest.raises(ValueError):
        Grid(2, (float("nan"), 1.0), (4, 4))  # undefined extent
    with pytest.raises(ValueError, match="spacings"):
        Grid(2, (1e308, 10.0), (8, 8))     # spacing 2L/M overflows
    with pytest.raises(ValueError, match="spacings"):
        Grid(2, (1e-300, 10.0), (8, 8))    # largest |k|^2 overflows
    with pytest.raises(ValueError):
        Grid(1, (1.0,), (4,))              # unsupported dimension
    with pytest.raises(ValueError):
        Grid(4, (1.0,) * 4, (4,) * 4)      # unsupported dimension


def test_grid_equality_and_repr():
    a = Grid(2, (1.0, 2.0), (4, 8))
    b = Grid(2, (1.0, 2.0), (4, 8))
    c = Grid(2, (1.0, 2.0), (8, 8))
    assert a == b and a != c
    assert "4" in repr(a)


def test_coordinates_are_broadcastable():
    grid = Grid(3, (1.0, 2.0, 3.0), (4, 6, 8))
    coords = grid.coordinates()
    assert len(coords) == 3
    total = coords[0] + coords[1] + coords[2]
    assert total.shape == (4, 6, 8)


def _random_field(grid, rng):
    return (rng.standard_normal(grid.sizes)
            + 1j * rng.standard_normal(grid.sizes))


def test_kinetic_flow_is_unitary(rng):
    grid = Grid(2, (5.0, 5.0), (16, 16))
    v = _random_field(grid, rng)
    w = kinetic_flow(v.copy(), grid.kinetic_phase(0.37))
    assert grid.l2_norm(w) == pytest.approx(grid.l2_norm(v), rel=1e-14)


def test_kinetic_flow_group_property(rng):
    grid = Grid(2, (5.0, 5.0), (16, 16))
    v = _random_field(grid, rng)
    one = kinetic_flow(kinetic_flow(v.copy(), grid.kinetic_phase(0.2)),
                       grid.kinetic_phase(0.5))
    two = kinetic_flow(v.copy(), grid.kinetic_phase(0.7))
    assert grid.l2_norm(one - two) < 1e-13 * grid.l2_norm(v)


def test_kinetic_flow_plane_wave_phase():
    # a pure Fourier mode picks up exactly exp(-i tau |k|^2 / 2)
    grid = Grid(2, (np.pi, np.pi), (8, 8))
    k1, k2 = grid.wavenumbers[0][3], grid.wavenumbers[1][6]
    x1, x2 = grid.coordinates()
    v = np.exp(1j * (k1 * x1 + k2 * x2))
    tau = 0.53
    expected = np.exp(-0.5j * tau * (k1 ** 2 + k2 ** 2)) * v
    got = kinetic_flow(v.copy(), grid.kinetic_phase(tau))
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_kinetic_flow_works_in_place(rng):
    grid = Grid(3, (3.0, 4.0, 5.0), (8, 12, 6))
    v = _random_field(grid, rng)
    column, block = phase = grid.kinetic_phase(0.3)
    expected = np.fft.ifftn(column * block * np.fft.fftn(v))
    out = kinetic_flow(v, phase)
    assert out is v
    np.testing.assert_allclose(out, expected, atol=1e-13)
    # a 2-D phase on a batch of planes is the flow of the trailing axes alone
    (plane,) = phase = Grid(2, (3.0, 4.0), (8, 12)).kinetic_phase(0.3)
    assert plane.shape == (8, 12)
    batch = v.transpose(2, 0, 1).copy()
    expected = np.fft.ifftn(plane * np.fft.fftn(batch, axes=(1, 2)),
                            axes=(1, 2))
    assert kinetic_flow(batch, phase) is batch
    np.testing.assert_allclose(batch, expected, atol=1e-13)
    # on an (M3, M1, M2 + 1) batch the transforms skip the pad, and factors
    # of 1 there keep its zeros: the 2-D flow of each plane, bit for bit
    padded = np.zeros((6, 8, 13), np.complex128)
    padded[..., :12] = batch
    ones = np.concatenate([plane, np.ones((8, 1))], axis=1)
    assert kinetic_flow(padded, (ones,), pad=1) is padded
    for got, one in zip(padded, batch):
        assert np.array_equal(got[:, :12], kinetic_flow(one.copy(), phase))
    assert not padded[..., 12].any()
    with pytest.raises(TypeError, match="complex128"):
        kinetic_flow(v.real.copy(), phase)


@pytest.mark.parametrize("half_widths,sizes", [
    ((3.0, 4.0), (8, 12)), ((3.0, 4.0, 5.0), (8, 12, 6))])
def test_kinetic_phase_factors_multiply_to_full_phase(half_widths, sizes):
    grid = Grid(len(sizes), half_widths, sizes)
    ksq = sum(k * k for k in np.meshgrid(*grid.wavenumbers, indexing="ij"))
    for tau in (0.37, -1.3, 0.01):
        factors = grid.kinetic_phase(tau)
        if len(sizes) == 2:  # one full-size factor
            (product,) = factors
            assert product.shape == sizes
        else:  # the first axis's column and the trailing axes' block
            column, block = factors
            assert column.shape == (sizes[0], 1, 1)
            assert block.shape == (1,) + sizes[1:]
            product = column * block
        # the phases agree to the roundoff of their arguments tau |k|^2 / 2
        scale = max(1.0, 0.5 * abs(tau) * ksq.max())
        np.testing.assert_allclose(product, np.exp(-0.5j * tau * ksq),
                                   rtol=0, atol=1e-15 * scale)
        if len(sizes) == 3:  # the (xi_1, xi_2) grid's phase times xi_3's
            (plane,) = Grid(2, half_widths[:2], sizes[:2]).kinetic_phase(tau)
            k3sq = grid.wavenumbers[2] ** 2
            np.testing.assert_allclose(
                plane[..., None] * np.exp(-0.5j * tau * k3sq),
                np.exp(-0.5j * tau * ksq), rtol=0, atol=1e-15 * scale)


def test_field_density_and_norm():
    grid = Grid(2, (1.0, 1.0), (4, 4))
    f = Field(grid, np.full((4, 4), 1j))
    np.testing.assert_array_equal(f.density(), np.ones((4, 4)))
    assert f.norm() == pytest.approx(2.0)


def test_field_frame_validation():
    grid = Grid(2, (1.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        Field(grid, np.zeros((4, 4), dtype=complex), frame="galactic")


def test_field_dump_roundtrip(tmp_path, rng):
    grid = Grid(2, (3.0, 7.0), (8, 16))
    f = Field(grid, _random_field(grid, rng), time=2.25, frame="lab")
    path = tmp_path / "state.field"
    write_field(f, path)
    g = read_field(path)
    assert g.grid == grid
    assert g.time == 2.25
    assert g.frame == "lab"
    np.testing.assert_array_equal(g.values, f.values)


def test_field_dump_rejects_corruption(tmp_path, rng):
    grid = Grid(2, (1.0, 2.0), (4, 8))
    f = Field(grid, _random_field(grid, rng))
    path = tmp_path / "state.field"
    write_field(f, path)
    raw = path.read_bytes()

    (tmp_path / "magic.field").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        read_field(tmp_path / "magic.field")

    (tmp_path / "short.field").write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        read_field(tmp_path / "short.field")

    (tmp_path / "long.field").write_bytes(raw + b"\0" * 8)
    with pytest.raises(ValueError):
        read_field(tmp_path / "long.field")

    # Field takes only finite times, so a time that reads NaN is corrupt
    at = 12 + 12 * grid.dim  # after magic, version, dim, sizes, half widths
    (tmp_path / "nan.field").write_bytes(
        raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8:])
    with pytest.raises(ValueError, match="time must be finite"):
        read_field(tmp_path / "nan.field")

    # grids are 2-D or 3-D, so a 1-D header is corrupt
    (tmp_path / "dim1.field").write_bytes(raw[:8] + struct.pack("<I", 1)
                                          + raw[12:])
    with pytest.raises(ValueError, match="corrupt dump: dim = 1"):
        read_field(tmp_path / "dim1.field")

    # a dump cut at any byte offset, header or payload, is rejected
    for grid in (grid, Grid(3, (1.0, 2.0, 3.0), (4, 4, 4))):
        write_field(Field(grid, _random_field(grid, rng)), path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="bad magic|corrupt dump"):
                read_field(path)

    # size fields whose payload would overflow a read are rejected before it
    for grid, sizes in ((Grid(2, (1.0, 2.0), (4, 4)), (2 ** 31, 2 ** 31)),
                        (Grid(3, (1.0,) * 3, (4,) * 3),
                         (2 ** 20, 2 ** 20, 2 ** 19))):
        write_field(Field(grid, _random_field(grid, rng)), path)
        raw = path.read_bytes()
        head = 12 + 4 * grid.dim
        path.write_bytes(raw[:12] + struct.pack(f"<{grid.dim}I", *sizes)
                         + raw[head:])
        with pytest.raises(ValueError, match="corrupt dump"):
            read_field(path)
