"""Discretized-mode and quadrature oracles.

Everything here validates the closed forms independently: kernels sampled
on a (K, omega) grid, with the quadrature weights absorbed, turn the mode
contraction into the matrix product; the forward/conjugate kernel pair is
integrated through the crystal as a matrix ODE, and the leading idler and
background terms are checked against direct depth quadrature.

The depth-quadrature oracles integrate smooth Gaussian-times-phase
integrands over fixed ranges, so they use one fixed tensor Gauss-Legendre
rule (Trefethen, SIAM Rev. 50, 67 (2008)) evaluated at 64 and at 96 nodes
per axis: the 96-node value is returned together with its relative
difference from the 64-node value, the achieved-error estimate.

The grid pair kernel (``GridOperators``) is sampled from the ``FieldKernels``
methods, never written out again here, into small per-axis tables: on a
tensor grid its magnitude is a product and its phase mismatch a sum of an
x, a y and an omega term, so a grid matrix is formed only by broadcasting
the tables.  The depth provider forms its kernel blocks from the tables
one frequency pair at a time: there the kernel is a Kronecker product of
an x and a y table, so each block is built from the two tables transformed
on their axis's mirror bases, and no grid-sized array is formed (Van Loan,
J. Comput. Appl. Math. 123, 85 (2000)).  It expands H(z) about the start
z_j of each piece of [0, L], the pieces short enough that max |Delta|
times their length is at most 1.5, and keeps the blocks of each term
magnitude o exp(i z_j Delta) o Delta^k / k! (real on the first piece); the
scalar factors pair_phase and i^k are applied only where one block of
H(z) is evaluated, as a new array (``_TaylorProvider.block``).  The depth
equations are linear, so
``solve_UV_ode`` solves them by their exact z-Taylor recurrence, piece by
piece from the U and V at the end of the previous piece (``_taylor_blocks``;
Corliss & Chang, ACM TOMS 8, 114 (1982)); the validate and acceptance
grids need one piece.  Cauchy's scalar majorant, scaled by the norm at
each piece start, fixes each term count before any product; the tails,
carried through the later pieces' majorant growth, add up to
``error_bound``, a proven bound on the truncation, at most ``DEPTH_TOL``.
An explicit ``steps=`` runs the classical four-stage RK4 on the
provider's blocks (``_rk4_blocks``) instead, kept only because the
depth-17 benchmark pins ``steps=64``.  The blocks are independent
equations, so the RK4 and the iterated-integral series (``series_UV``)
integrate each block from z = 0 to L before the next, in working arrays
allocated once per block.  On the 17x17x9 grid (blocks of up to 648
rows, 6.4 MB each; U and V 26.2 MB) their traced peaks are 103 MB for
the RK4 and 90 MB for the series, the result plus about 12 and 10 arrays
of the largest block, against 156 and 157 MB when every depth formed
H(z) for all blocks.  The
``constraint_defect`` of a solve checks the identities of the
Bogoliubov transformation, U+U - V^T conj(V) = 1 and U V^T = V U^T, which
the depth equations conserve; it therefore measures the solve's error.
It is the largest entry on the grid, so it does not depend on the block
basis the solve ran in.

A ``GridWorkspace`` is the one place a depth problem is configured: it
fixes the grid, the crystal length and the block space, and the depth
solve, the series and the depth-equation check take everything from it.
The block space follows from the grid.  On a centered square K grid it is
the grid's point group, built from the grid itself, not from a character
table: each K axis pairs every point with its mirror image into an even
and an odd combination, and the x <-> y exchange splits the products of
an x and a y factor into the five symmetry types (``square_grid_blocks``);
any other grid takes one block spanning it.  Each block keeps a small
dense real basis over the K modes; the omega identity stays implicit.
The blocks change nothing numerically (verified against one spanning
block in the tests); they only make the default-size runs fast on one
core.  The results stay in that form: ``solve_UV_ode``, ``series_UV`` and
``build_AB`` return ``BlockKernel`` values, weight-absorbed blocks in
which the mode contraction is the product of blocks; a grid matrix is
formed only on request (``to_weighted``, ``to_plain``).  The thin-crystal
matrix cosh/sinh needs no blocks: its matrix is the Kronecker product of
the same per-axis magnitude factors, so any grid is diagonalized axis by
axis (Van Loan, J. Comput. Appl. Math. 123, 85 (2000)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .background import hh_contraction
from .config import ExperimentConfig, seed_shift
from .kernels import FieldKernels, gaussian_spectrum

TWO_PI_CUBED = (2.0 * math.pi) ** 3


class GridMismatchError(ValueError):
    """Raised when two kernel matrices live on different grids."""


class QuadratureError(RuntimeError):
    """Raised when a quadrature oracle's error estimate exceeds its tolerance."""


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    if x.size == 1:
        return np.ones(1)
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


@dataclass
class ModeGrid:
    """Tensor-product (Kx, Ky, omega) samples with mode-measure weights.

    Flattened index runs omega fastest, then Ky, then Kx.  ``weight``
    implements the measure d2K domega / (2pi)^3, the product of the
    per-axis trapezoid ``axis_weights``.
    """

    kx: np.ndarray
    ky: np.ndarray
    omega_axis: np.ndarray
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        for name, ax in (("kx", self.kx), ("ky", self.ky), ("omega", self.omega_axis)):
            n = ax.size
            if n != 1 and n < 8:
                raise ValueError(f"{name} axis needs 1 or >= 8 points, got {n}")
            if not (np.all(np.isfinite(ax)) and np.all(np.diff(ax) > 0.0)):
                raise ValueError(f"{name} axis must be finite and strictly increasing")
        self.axis_weights = [_trapezoid_weights(a) for a in (self.kx, self.ky, self.omega_axis)]
        KX, KY, OM = np.meshgrid(self.kx, self.ky, self.omega_axis, indexing="ij")
        self.K = np.stack([KX.ravel(), KY.ravel()], axis=-1)
        self.omega = OM.ravel()
        self.weight = (
            np.einsum("i,j,k->ijk", *self.axis_weights).ravel() / TWO_PI_CUBED
        )

    @property
    def size(self) -> int:
        return self.omega.size

    @property
    def shape(self) -> tuple:
        return (self.kx.size, self.ky.size, self.omega_axis.size)


def build_grid(
    k_half_extent: float,
    k_count: int,
    omega_center: float,
    omega_half_extent: float,
    omega_count: int,
    cfg: ExperimentConfig | None = None,
) -> ModeGrid:
    """Symmetric tensor grid with trapezoid weights.

    If ``cfg`` is given, extents are checked against the pump envelope
    (six K-widths and six bandwidths); shortfalls are recorded as warnings
    on the result rather than raised.
    """
    kx = (
        np.linspace(-k_half_extent, k_half_extent, k_count)
        if k_count > 1
        else np.zeros(1)
    )
    om = (
        omega_center + np.linspace(-omega_half_extent, omega_half_extent, omega_count)
        if omega_count > 1
        else np.array([omega_center])
    )
    grid = ModeGrid(kx=kx, ky=kx.copy(), omega_axis=om)
    if cfg is not None:
        k_width = math.sqrt(2.0) / cfg.pump.waist
        if k_count > 1 and 2.0 * k_half_extent < 6.0 * k_width:
            grid.warnings.append(
                f"K span {2 * k_half_extent:.3g} < 6 pump K-widths {6 * k_width:.3g}"
            )
        if omega_count > 1 and 2.0 * omega_half_extent < 6.0 * cfg.pump.bandwidth:
            grid.warnings.append(
                f"omega span {2 * omega_half_extent:.3g} < 6 bandwidths "
                f"{6 * cfg.pump.bandwidth:.3g}"
            )
    return grid


@dataclass
class KernelMatrix:
    """A kernel sampled on a ModeGrid.

    ``weighted`` distinguishes plain samples K(k_i, k_j) from the
    weight-absorbed form sqrt(w_i) K sqrt(w_j), in which the mode
    contraction is the ordinary matrix product.
    """

    grid: ModeGrid
    matrix: np.ndarray
    weighted: bool = False

    def to_weighted(self) -> "KernelMatrix":
        if self.weighted:
            return self
        s = np.sqrt(self.grid.weight)
        return KernelMatrix(self.grid, self.matrix * np.outer(s, s), True)

    def to_plain(self) -> "KernelMatrix":
        if not self.weighted:
            return self
        s = np.sqrt(self.grid.weight)
        return KernelMatrix(self.grid, self.matrix / np.outer(s, s), False)


def _same_grid(a: ModeGrid, b: ModeGrid) -> bool:
    return a is b or all(
        np.array_equal(x, y)
        for x, y in zip((a.kx, a.ky, a.omega_axis), (b.kx, b.ky, b.omega_axis))
    )


# ---------------------------------------------------------------------------
# grid operators for the pair kernel


def _magnitude_factors(kern: FieldKernels, grid: ModeGrid):
    """Per-axis factors of the weight-absorbed pair-kernel magnitude, whose
    Kronecker product is its grid matrix.

    The magnitude depends on K only through exp(-w^2 |K1 + K2|^2 / 4),
    which splits into an x and a y factor (the kernel on one axis at
    degeneracy over its on-axis peak), and the grid weights are a tensor
    product.
    """
    omega_ref = 0.5 * kern.cfg.pump.omega
    zero = np.zeros(2)
    # zero only with a zero pair amplitude, which zeroes the omega factor
    peak = kern.bilinear_magnitude(zero, zero, omega_ref, omega_ref) or 1.0
    factors = []
    for component, axis in enumerate((grid.kx, grid.ky)):
        K = np.zeros((axis.size, 2))
        K[:, component] = axis
        factors.append(
            kern.bilinear_magnitude(K[:, None], K[None, :], omega_ref, omega_ref) / peak
        )
    om = grid.omega_axis
    factors.append(
        kern.bilinear_magnitude(zero, zero, om[:, None], om[None, :]) / TWO_PI_CUBED
    )
    for factor, weights in zip(factors, grid.axis_weights):
        factor *= np.sqrt(np.outer(weights, weights))
    return factors


class GridOperators:
    """Weight-absorbed pair-kernel matrices on a grid, held as per-axis tables.

    The pair kernel is ``pair_phase * bilinear_magnitude * exp(i z
    phase_mismatch)``, and on a tensor grid both real pieces separate over
    the axes.  The magnitude depends on K only through exp(-w^2 |K1 + K2|^2
    / 4), a product of an x and a y factor, and the grid weights are a
    product of per-axis weights.  The mismatch depends on K only through
    the quadratic |K1/kz1 - K2/kz2|^2, a sum of an x and a y term whose
    coefficient depends on the frequency pair.  Every table entry is
    sampled from the ``FieldKernels`` methods on axis-only inputs; for modes
    i = (x, y, a) and j = (x', y', b)::

        magnitude_ij sqrt(w_i w_j) = Mx[x, x'] My[y, y'] Mw[a, b]
        Delta_ij = Dx[x, a, x', b] + Dy[y, a, y', b] + Dw[a, b]

    ``magnitude`` holds (Mx, My, Mw) and ``mismatch`` holds (Dx, Dy, Dw).
    No grid-sized array is kept: ``htilde`` broadcasts the tables to the
    grid when called, and ``pair_tables`` regroups them per frequency pair
    for the depth providers, which never broadcast them.
    """

    def __init__(self, kern: FieldKernels, grid: ModeGrid):
        self.kern = kern
        self.grid = grid
        self.magnitude = _magnitude_factors(kern, grid)
        om = grid.omega_axis
        zero = np.zeros(2)
        d_w = kern.phase_mismatch(zero, zero, om[:, None], om[None, :])
        terms = []
        for component, axis in enumerate((grid.kx, grid.ky)):
            K = np.zeros((axis.size, 2))
            K[:, component] = axis
            # axes (K1, omega1, K2, omega2)
            d = kern.phase_mismatch(K[:, None, None, None], K[None, None, :, None],
                                    om[None, :, None, None], om[None, None, None, :])
            terms.append(d - d_w[None, :, None, :])
        self.mismatch = (*terms, d_w)

    # the grid matrices are viewed as (x, y, omega, x', y', omega') arrays

    def htilde(self, z: float) -> np.ndarray:
        """Weight-absorbed pair kernel at depth z."""
        (mx, my, mw), (dx, dy, dw) = self.magnitude, self.mismatch
        fx = mx[:, None, :, None] * np.exp(1j * z * dx)
        fy = my[:, None, :, None] * np.exp(1j * z * dy)
        fw = self.kern.pair_phase * mw * np.exp(1j * z * dw)
        full = fx[:, None, :, :, None, :] * fy[None, :, :, None, :, :]
        full *= fw[:, None, None, :]
        return full.reshape(self.grid.size, self.grid.size)

    def max_abs_mismatch(self) -> float:
        """max |Delta| over every pair of grid modes, from the tables.

        For each frequency pair the x and y terms range independently, so
        the sum is extremal where both terms are; rounding is monotone, so
        this equals the maximum over the tables broadcast to the grid
        exactly.
        """
        dx, dy, dw = self.mismatch
        hi = dx.max(axis=(0, 2)) + dy.max(axis=(0, 2)) + dw
        lo = dx.min(axis=(0, 2)) + dy.min(axis=(0, 2)) + dw
        return float(max(np.max(np.abs(hi)), np.max(np.abs(lo))))

    def pair_tables(self):
        """The tables per frequency pair, as (omega, omega', K, K') arrays:
        the x magnitude Mx Mw with the x mismatch Dx + Dw, and the y
        magnitude My with the y mismatch Dy.  The pair kernel's (a, b)
        part is pair_phase Mx Mw exp(iz (Dx + Dw)) (x) My exp(iz Dy)."""
        (mx, my, mw), (dx, dy, dw) = self.magnitude, self.mismatch
        return (
            (mx * mw[:, :, None, None], dx.transpose(1, 3, 0, 2) + dw[:, :, None, None]),
            (my, dy.transpose(1, 3, 0, 2)),
        )


# ---------------------------------------------------------------------------
# square-grid point-group block decomposition


class _Block(NamedTuple):
    """A block of a ``_BlockSpace``: the products of one sector's axis
    bases, whole (``sign`` 0) or their part even (+1) or odd (-1) under the
    x <-> y exchange; a ``paired`` block repeats on the exchanged basis."""

    sector: int
    sign: int
    paired: bool = False


def _exchange_columns(n: int, sign: int):
    """Columns (e_first + sign e_second) * scale over the n * n products
    f (x) f: an orthonormal basis of their part even (sign +1) or odd
    (sign -1) under the exchange of the two factors."""
    a, b = np.triu_indices(n, 0 if sign > 0 else 1)
    return a * n + b, b * n + a, np.where(a == b, 0.5, math.sqrt(0.5))


class _BlockSpace:
    """Orthogonal decomposition of grid space into invariant blocks, held
    per axis.

    A sector is a pair (fx, fy) of real orthonormal per-axis bases whose
    products fx (x) fy span a set of K modes; each block (``_Block``) takes
    a sector's products whole or its exchange-even or -odd part.  The full
    basis of a block is its K basis times the identity on the ``nw`` omega
    samples.  Blocks of the pair kernel are formed from its per-axis
    tables (``project_axes``, then ``kron_blocks``), so no K basis and no
    grid matrix is needed; ``k_bases`` forms the dense K bases for
    ``spread``.
    """

    def __init__(self, sectors, blocks, nw: int):
        self.sectors = sectors
        widths = [self._width(blk) for blk in blocks]
        self.blocks = [blk for blk, w in zip(blocks, widths) if w]
        self.widths = [w for w in widths if w]
        self.nk = sectors[0][0].shape[0] * sectors[0][1].shape[0]
        self.nw = nw

    def _width(self, blk: _Block) -> int:
        px, py = (f.shape[1] for f in self.sectors[blk.sector])
        return px * py if blk.sign == 0 else px * (px + blk.sign) // 2

    @property
    def nblocks(self):
        return len(self.blocks)

    def k_bases(self):
        """Per block, its dense K-mode bases: one, or two for a paired
        block."""
        bases = []
        for blk in self.blocks:
            fx, fy = self.sectors[blk.sector]
            q = np.kron(fx, fy)
            if blk.sign:
                first, second, scale = _exchange_columns(fx.shape[1], blk.sign)
                q = (q[:, first] + blk.sign * q[:, second]) * scale
            copies = [q]
            if blk.paired:
                n = fx.shape[0]
                copies.append(q.reshape(n, n, -1).transpose(1, 0, 2).reshape(n * n, -1))
            bases.append(copies)
        return bases

    def project_axes(self, x: np.ndarray, y: np.ndarray):
        """Per sector, the per-axis tables x (..., nx, nx) and y (..., ny,
        ny) with its axis bases applied on both sides."""
        return [(fx.T @ x @ fx, fy.T @ y @ fy) for fx, fy in self.sectors]

    def kron_blocks(self, projected):
        """Blocks of the grid matrix whose frequency-pair (a, b) part is
        sum_t x[t, a, b] (x) y[t, a, b], in the tables' dtype.

        ``projected`` holds, per sector, ``project_axes`` of stacked terms x
        (t, nw, nw, nx, nx) and y (t, nw, nw, ny, ny).  Each sector's
        Kronecker products are formed once, one batched product over the
        frequency pairs; its blocks take them whole or gather their
        exchange-even and -odd parts.
        """
        nw = self.nw
        parts = []
        for xp, yp in projected:
            t, px, py = xp.shape[0], xp.shape[-1], yp.shape[-1]
            # kron[(a, b), (p, p'), (q, q')]
            kron = np.matmul(xp.reshape(t, nw * nw, px * px).transpose(1, 2, 0),
                             yp.reshape(t, nw * nw, py * py).transpose(1, 0, 2))
            # to the block layout ((p, q), a, (p', q'), b)
            kron = kron.reshape(nw, nw, px, px, py, py).transpose(2, 4, 0, 3, 5, 1)
            parts.append(kron.reshape(px * py, nw, px * py, nw))
        blocks = []
        for blk, w in zip(self.blocks, self.widths):
            part = parts[blk.sector]
            if blk.sign:
                first, second, scale = _exchange_columns(
                    self.sectors[blk.sector][0].shape[1], blk.sign)
                part = (part[first] + blk.sign * part[second]) * scale[:, None, None, None]
                part = (part[:, :, first] + blk.sign * part[:, :, second]) * scale[:, None]
            blocks.append(part.reshape(w * nw, w * nw))
        return blocks

    @cached_property
    def _row_bases(self):
        """``k_bases`` and all their columns side by side, formed once for
        ``_spread_rows``."""
        bases = self.k_bases()
        return bases, np.hstack([q for basis_list in bases for q in basis_list])

    def _spread_rows(self, blocks):
        """The grid matrix of ``blocks`` one omega sample a at a time: yields
        its rows (i, a) for every K mode i, an (nk, nk * nw) array."""
        nk, nw = self.nk, self.nw
        bases, basis = self._row_bases
        # right[p, j, (w', re/im)]: row (p, a) of each copy, its column index
        # expanded to K
        right = np.empty((nk, nk, 2 * nw))
        for a in range(nw):
            row = 0
            for blk, basis_list in zip(blocks, bases):
                for q in basis_list:
                    d = q.shape[1]
                    np.matmul(q, blk.view(float).reshape(d, nw, d, 2 * nw)[:, a],
                              out=right[row:row + d])
                    row += d
            yield (basis @ right.reshape(nk, -1)).view(complex)

    def spread(self, blocks) -> np.ndarray:
        """The grid matrix of ``blocks``, each omega sample's rows written
        into one preallocated matrix."""
        out = np.empty((self.nk, self.nw, self.nk * self.nw), dtype=complex)
        for a, rows in enumerate(self._spread_rows(blocks)):
            out[:, a] = rows
        return out.reshape(self.nk * self.nw, -1)

    def spread_max_abs(self, blocks) -> float:
        """max |spread(blocks)|, without forming the grid matrix."""
        return max(float(np.max(np.abs(rows))) for rows in self._spread_rows(blocks))


@dataclass
class BlockKernel:
    """A weight-absorbed kernel held as its blocks over a ``_BlockSpace``.

    The bases are real and orthonormal, so the mode contraction, conjugation
    and transposition act block by block; a grid matrix is formed only when
    ``to_weighted`` or ``to_plain`` is called.
    """

    grid: ModeGrid
    space: _BlockSpace
    blocks: list

    def to_weighted(self) -> KernelMatrix:
        return KernelMatrix(self.grid, self.space.spread(self.blocks), True)

    def to_plain(self) -> KernelMatrix:
        return self.to_weighted().to_plain()


def _trivial_space(grid: ModeGrid) -> _BlockSpace:
    # one block: every product of the identity axis bases, so the block is
    # the grid matrix itself
    nx, ny, nw = grid.shape
    return _BlockSpace([(np.eye(nx), np.eye(ny))], [_Block(0, 0)], nw)


def square_grid_blocks(grid: ModeGrid) -> _BlockSpace | None:
    """Point-group block decomposition for a centered square K grid.

    Returns None when the grid lacks the symmetry.  Kernels built from
    rotationally invariant combinations of the two transverse wave vectors
    commute with every block, so grid operators act blockwise.

    On each K axis, every point and its mirror image combine into an even
    and an odd unit vector (the centre point of an odd axis is even).
    Products of an x and a y factor are then even or odd under both
    mirrors; the x <-> y exchange splits even(x)even and odd(x)odd into
    symmetric and antisymmetric parts, the types A1, B1, B2 and A2, and
    maps even(x)odd onto odd(x)even, the two copies of the paired type E.
    """
    kx, ky = grid.kx, grid.ky
    scale = max(abs(kx[0]), abs(kx[-1]), 1.0)
    if not np.array_equal(kx, ky) or np.max(np.abs(kx + kx[::-1])) > 1e-12 * scale:
        return None
    n = kx.size
    half = n // 2
    i = np.arange(half)
    even = np.zeros((n, n - half))
    odd = np.zeros((n, half))
    even[i, i] = even[n - 1 - i, i] = odd[i, i] = math.sqrt(0.5)
    odd[n - 1 - i, i] = -math.sqrt(0.5)
    if n % 2:
        even[half, half] = 1.0
    sectors = [(even, even), (odd, odd), (even, odd)]
    # A1, A2, B1, B2 and the paired E
    blocks = [_Block(0, 1), _Block(1, -1), _Block(0, -1), _Block(1, 1), _Block(2, 0, True)]
    return _BlockSpace(sectors, blocks, grid.omega_axis.size)


# ---------------------------------------------------------------------------
# depth providers: blockwise pair kernel as a function of z


def _pair_kernel_blocks(ops: GridOperators, space: _BlockSpace, z: float):
    """Blocks of the exact weight-absorbed pair kernel at depth z, formed
    from the per-axis tables."""
    (x_mag, x_delta), (y_mag, y_delta) = ops.pair_tables()
    return space.kron_blocks(space.project_axes(
        (ops.kern.pair_phase * x_mag * np.exp(1j * z * x_delta))[None],
        (y_mag * np.exp(1j * z * y_delta))[None]))


class _TaylorProvider:
    """Blockwise H(z) as a phase Taylor expansion about each piece start.

    [0, L] is cut into P = ceil(max |L Delta| / 1.5) pieces of ``length``
    L / P.  About z_j = j * length, H(z_j + s) = pair_phase sum_k (is)^k R_k
    with R_k = magnitude o exp(i z_j Delta) o Delta^k / k!; per frequency
    pair R_k is sum_(m+n=k) X_m (x) Y_n, with X_m = Mx Mw exp(i z_j (Dx +
    Dw)) (Dx + Dw)^m / m! and Y_n = My exp(i z_j Dy) Dy^n / n! (the tables
    of ``GridOperators.pair_tables``, real on the first piece), so its
    blocks are formed from the projected per-axis tables without a
    grid-sized array.  The series stops where its next term is below 1e-13
    at a piece's end.  ``pieces`` holds the blocks of the R_k of every
    piece, real on the first; ``coeffs``, those of the first.  The phase
    pair_phase i^k is applied only in ``block``.
    """

    def __init__(self, ops: GridOperators, space: _BlockSpace, length: float):
        max_delta = ops.max_abs_mismatch()
        count = max(1, math.ceil(max_delta * length / 1.5))
        self.length = length / count
        self.phase = ops.kern.pair_phase
        max_arg = max_delta * self.length
        kmax, term, fact = 1, max_arg, 1.0
        while term > 1e-13 and kmax < 24:
            kmax += 1
            fact *= kmax
            term = max_arg**kmax / fact
        (x_mag, x_delta), (y_mag, y_delta) = ops.pair_tables()
        # each power in one rounding, so that order k is not k roundings off
        factorials = np.array([math.factorial(i) for i in range(kmax + 1)], dtype=float)
        factorials = factorials.reshape(-1, 1, 1, 1, 1)
        orders = np.arange(kmax + 1).reshape(factorials.shape)
        x_terms = x_mag * x_delta**orders / factorials
        y_terms = y_mag * y_delta**orders / factorials
        self.pieces = []
        for j in range(count):
            start = j * self.length
            projected = space.project_axes(
                x_terms * np.exp(1j * start * x_delta) if j else x_terms,
                y_terms * np.exp(1j * start * y_delta) if j else y_terms,
            )
            self.pieces.append([
                space.kron_blocks([(xp[:k + 1], yp[k::-1]) for xp, yp in projected])
                for k in range(kmax + 1)
            ])
        self.coeffs = self.pieces[0]

    def block(self, s: int, z: float) -> np.ndarray:
        """Block ``s`` of H(z), as a new array: Horner's rule in i (z - z_j)
        on that block's terms of the piece of z, times pair_phase."""
        last = len(self.pieces) - 1
        j = min(int(z / self.length), last) if last else 0
        acc = _horner([terms[s] for terms in reversed(self.pieces[j])],
                      1j * (z - j * self.length))
        acc *= self.phase
        return acc


class GridWorkspace:
    """A depth problem: grid operators, block space and depth provider.

    The workspace is the one place where a depth problem is configured.
    It fixes the grid, the crystal ``length`` (the config's unless given;
    a negative one raises ValueError) and the block space, which follows
    from the grid: the square-grid point group where the grid has that
    symmetry (``square_grid_blocks``), one block spanning the grid
    otherwise.  The depth solve, the series and the depth-equation check
    share it; the Taylor provider's block terms are most of its build time
    and of what it keeps.
    """

    def __init__(self, kern: FieldKernels, grid: ModeGrid, length: float | None = None):
        if length is None:
            length = kern.cfg.crystal.length
        if not length >= 0.0:
            raise ValueError(f"length must be >= 0, got {length}")
        self.kern = kern
        self.grid = grid
        self.length = length
        self.ops = GridOperators(kern, grid)
        space = square_grid_blocks(grid) if grid.size > 1 else None
        self.space = space if space is not None else _trivial_space(grid)
        self.provider = _TaylorProvider(self.ops, self.space, length)


def _workspace_for(kern: FieldKernels, grid: ModeGrid,
                   workspace: GridWorkspace | None) -> GridWorkspace:
    """``workspace`` if it was built for this config and grid; a new
    workspace when none is given."""
    if workspace is None:
        return GridWorkspace(kern, grid)
    if workspace.kern.cfg != kern.cfg or not _same_grid(workspace.grid, grid):
        raise GridMismatchError("workspace was built for a different config or grid")
    return workspace


# ---------------------------------------------------------------------------
# Bogoliubov kernel construction


class StepCountError(RuntimeError):
    """Raised when the depth solve cannot meet its tolerance: the Taylor
    recurrence's truncation cannot be proven below it in double precision,
    or the solve turned non-finite."""


# The one tolerance of the default depth solve: the proven bound on the
# recurrence's truncation, summed over its pieces.  1e-9 leaves three
# decades below the tightest gate that consumes a solve (1e-6).
DEPTH_TOL = 1e-9


@dataclass
class BogoliubovSolution:
    forward: BlockKernel           # U, weight-absorbed point-group blocks
    conjugate: BlockKernel         # V, weight-absorbed point-group blocks
    constraint_defect: float       # identity defect read on the grid, see _bogoliubov_defect
    info: dict


def _block_dims(space: _BlockSpace):
    return [w * space.nw for w in space.widths]


def _norm_bound(blocks) -> float:
    """Largest sqrt(||b||_1 ||b||_inf), a bound on the 2-norm, of the blocks."""
    return max(math.sqrt(np.linalg.norm(b, 1) * np.linalg.norm(b, np.inf)) for b in blocks)


def _majorant_exponent(norms) -> float:
    """g(1) = sum_k a_k / (2 (k+1)) of ``_taylor_term_count``."""
    return 0.5 * sum(a / (k + 1) for k, a in enumerate(norms))


def _taylor_term_count(norms, target):
    """Term count of a depth-scaled Taylor series and its proven tail.

    ``norms[k]`` bounds ||l^(k+1) R_k||_2 on every block, for a piece of
    length l.  Cauchy's scalar majorant eta_0 = 1, eta_(n+1) = sum_k a_k
    eta_(n-k) / (2 (n+1)) bounds the 2-norm of every coefficient of U and W
    started from norm 1; it is the Taylor series of exp(g(x)), g(x) =
    sum_k a_k x^(k+1) / (2 (k+1)), so the tail after N terms is exp(g(1))
    less the first N eta_n.  N is the first count whose tail is at most
    ``target``.  The sums leave out eta_0, which keeps their relative
    precision, and the tail adds terms * eps * expm1(g(1)) for their
    rounding.  Raises StepCountError when the terms stop changing the sum
    before the tail meets its target.
    """
    grown = math.expm1(_majorant_exponent(norms))
    eps = float(np.finfo(float).eps)
    eta = [1.0]
    partial = 0.0
    while not (tail := grown - partial + len(eta) * eps * grown) <= target:
        n = len(eta) - 1
        step = sum(a * eta[n - k] for k, a in enumerate(norms[:n + 1])) / (2.0 * (n + 1))
        if not (math.isfinite(grown) and step > eps * partial):
            raise StepCountError(
                f"Taylor majorant tail {tail:.2e} after {n + 1} terms cannot be "
                f"proven below {target:.2e} (tolerance {DEPTH_TOL:g})"
            )
        eta.append(step)
        partial += step
    return len(eta), tail


def _horner(hist, x):
    """sum_n hist[-1-n] x^n, for coefficients stored newest first."""
    acc = hist[0].astype(complex)
    for coef in hist[1:]:
        acc *= x
        acc += coef
    return acc


def _taylor_blocks(workspace: GridWorkspace, zetas=(1.0,)):
    """U and V blocks at each depth zeta * L by the exact Taylor recurrence,
    piece by piece.

    On a piece of length l from z_j, H(z_j + s) = p sum_k (is)^k R_k
    (``_TaylorProvider`` keeps the R_k, real on the first piece; |p| = 1).
    With W = pV, U' = (1/2) V H and V' = (1/2) U conj(H) become U' = (1/2)
    W sum_k (is)^k R_k and W' = (1/2) U sum_k (-is)^k conj(R_k).  In x =
    s / l with S_k = l^(k+1) R_k, U = sum_n a_n (-ix)^n and W = sum_n b_n
    (ix)^n obey (Corliss & Chang, ACM TOMS 8, 114 (1982); Jorba & Zou, Exp.
    Math. 14, 99 (2005))

        a_(n+1) = i c_n sum_k b_(n-k) S_k,   b_(n+1) = -i c_n sum_k a_(n-k) conj(S_k),

    c_n = (-1)^n / (2 (n+1)), from a_0, b_0 the U and W at the piece start
    (1 and 0, then the previous piece's values at x = 1).  Coefficients are
    kept transposed, so that each new one is one real product of [S_0^T ...
    S_m^T] with the last m+1 viewed as float pairs (on a complex piece the
    stack holds the real over the imaginary parts, and the two halves of
    the product give S^T h and conj(S)^T h); they are stored newest first,
    which makes that history one slice and puts them in Horner order.

    A piece's term count comes from ``_taylor_term_count`` scaled by the
    norm M_j of its start.  An error e at a piece start grows at most by the
    majorant sum exp(g_j(1)) over the piece, so the bound after it is e
    exp(g_j(1)) + M_j tail_j.  Each piece's share of the target keeps the
    bound at L below ``DEPTH_TOL`` times min(1, expm1(sum_j g_j(1))), the
    majorant of what the kernel adds to U = 1 and V = 0, so a weak kernel
    is resolved to the same relative accuracy as a strong one.  Returns,
    per zeta, the U and V blocks, and an info dict with ``steps`` (the
    piece count), ``terms`` (the most of a piece), ``error_bound`` (on
    every block of U and V in the 2-norm) and ``tolerance``.  Raises
    StepCountError when the blocks turn non-finite.
    """
    space, pieces, length = workspace.space, workspace.provider.pieces, workspace.provider.length
    count, m = len(pieces), len(pieces[0]) - 1
    # |R_0| is the nonnegative magnitude, the Kronecker product of the
    # per-axis factors, so their 2-norms multiplied bound R_0 on every piece.
    norms = [
        [length * math.prod(float(np.linalg.norm(f, 2)) for f in workspace.ops.magnitude)]
        + [length ** (k + 1) * _norm_bound(coeffs[k]) for k in range(1, m + 1)]
        for coeffs in pieces
    ]
    exponents = [_majorant_exponent(n) for n in norms]
    target = DEPTH_TOL * min(1.0, math.expm1(sum(exponents)))
    dims = _block_dims(space)
    # per block, the transposed U and W at the current piece start
    starts = [(np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)) for d in dims]
    values = [([], []) for _ in zetas]
    bound, most = 0.0, 0
    for j, coeffs in enumerate(pieces):
        scale = max(_norm_bound(u for u, _ in starts), _norm_bound(w for _, w in starts))
        later = math.exp(sum(exponents[j + 1:]))
        terms, tail = _taylor_term_count(norms[j], target / (count * scale * later))
        bound = bound * math.exp(exponents[j]) + scale * tail
        most = max(most, terms)
        # the requested depths on this piece, as x = s / l
        inside = [(out, zeta * count - j) for out, zeta in zip(values, zetas)
                  if min(int(zeta * count), count - 1) == j]
        for s, d in enumerate(dims):
            stack = np.empty((2 * d if j else d, (m + 1) * d))
            for k in range(m + 1):
                term = coeffs[k][s].T
                stack[:d, k * d:(k + 1) * d] = length ** (k + 1) * term.real
                if j:
                    stack[d:, k * d:(k + 1) * d] = length ** (k + 1) * term.imag
            a, b = (np.zeros((terms, d, d), dtype=complex) for _ in range(2))
            a[-1], b[-1] = starts[s]
            for n in range(terms - 1):
                top = min(n, m) + 1
                lo = terms - 1 - n  # slot of coefficient n; n - k sits at lo + k
                factor = 0.5j * (-1) ** n / (n + 1)
                for new, old, sign in ((a, b, 1.0), (b, a, -1.0)):
                    hist = old[lo:lo + top].reshape(top * d, d).view(float)
                    prod = (stack[:, :top * d] @ hist).view(complex)
                    if j:
                        prod = prod[:d] + (sign * 1j) * prod[d:]
                    np.multiply(prod, sign * factor, out=new[lo - 1])
            for (us, vs), x in inside:
                us.append(np.ascontiguousarray(_horner(a, -1j * x).T))
                vs.append(np.ascontiguousarray(_horner(b, 1j * x).T))
                vs[-1] *= np.conj(workspace.kern.pair_phase)
            if j < count - 1:
                starts[s] = (_horner(a, -1j), _horner(b, 1j))
    if not all(np.all(np.isfinite(blk)) for us, vs in values for blk in us + vs):
        raise StepCountError(f"the depth solve over {count} pieces turned non-finite")
    info = {"steps": count, "terms": most, "error_bound": bound, "tolerance": DEPTH_TOL}
    return values, info


def _rk4_blocks(workspace: GridWorkspace, steps: int):
    """Classical fourth-order steps of dU = (1/2) V H dz, dV = (1/2) U H* dz.

    The blocks are independent equations, so each is integrated from z = 0
    to L before the next (``_rk4_block``), and the working set is one
    block's: its U and V plus about 12 arrays of its size, the kernel
    blocks the provider returns among them.
    """
    dims = _block_dims(workspace.space)
    U, V = zip(*(_rk4_block(workspace.provider, s, d, workspace.length / steps, steps)
                 for s, d in enumerate(dims)))
    return list(U), list(V)


def _rk4_block(provider: _TaylorProvider, s: int, d: int, h: float, steps: int):
    """``steps`` RK4 steps of length h on block ``s``, in working arrays
    allocated once: a step allocates only the kernel blocks the provider
    returns, and the low end of each step is the previous step's high end.
    Each stage slope is twice the derivative, so the 1/2 of the equations
    sits in the h/4, h/2 and h/12 factors."""
    u, v = np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)
    # per field: the stage argument, the stage slope, k2 + k3 and the
    # weighted slope sum; and the conjugate of the stage's kernel
    arg_u, k_u, mid_u, acc_u, arg_v, k_v, mid_v, acc_v, conj = (
        np.empty((d, d), dtype=complex) for _ in range(9))

    def slopes(ht, at_u, at_v, out_u, out_v):
        # (U', V') at (at_u, at_v), times 2
        np.matmul(at_v, ht, out=out_u)
        np.matmul(at_u, np.conjugate(ht, out=conj), out=out_v)

    def stage_args(frac, src_u, src_v):
        # the next stage's (U, V): the start plus frac * h times a slope
        np.add(np.multiply(src_u, frac * h, out=arg_u), u, out=arg_u)
        np.add(np.multiply(src_v, frac * h, out=arg_v), v, out=arg_v)

    hi = provider.block(s, 0.0)
    for n in range(steps):
        z = n * h
        lo = hi
        mid = provider.block(s, z + 0.5 * h)
        hi = provider.block(s, z + h)
        slopes(lo, u, v, acc_u, acc_v)
        stage_args(0.25, acc_u, acc_v)
        slopes(mid, arg_u, arg_v, mid_u, mid_v)
        stage_args(0.25, mid_u, mid_v)
        slopes(mid, arg_u, arg_v, k_u, k_v)
        mid_u += k_u
        mid_v += k_v
        stage_args(0.5, k_u, k_v)
        slopes(hi, arg_u, arg_v, k_u, k_v)
        for x, acc, mid_sum, k4 in ((u, acc_u, mid_u, k_u), (v, acc_v, mid_v, k_v)):
            mid_sum *= 2.0
            acc += mid_sum
            acc += k4
            acc *= h / 12.0
            x += acc
    return u, v


def _bogoliubov_defect(space: _BlockSpace, U, V) -> float:
    """Largest grid entry of U+U - V^T conj(V) - 1 and of U V^T - V U^T.

    Both are identities of the Bogoliubov transformation (Braunstein, PRA
    71, 055801 (2005)) that the depth equations conserve, so the defect
    measures integration error.  The bases of ``space`` are real, so
    conjugation and transposition act block by block; both residuals are
    formed on the weight-absorbed blocks and read on the grid with
    ``spread_max_abs``, so the figure does not depend on the block basis.
    """
    identity, symmetric = [], []
    for u, v in zip(U, V):
        d = u.conj().T @ u - v.T @ v.conj()
        np.fill_diagonal(d, np.diagonal(d) - 1.0)
        identity.append(d)
        uvt = u @ v.T
        symmetric.append(uvt - uvt.T)
    return max(space.spread_max_abs(identity), space.spread_max_abs(symmetric))


def solve_UV_ode(
    kern: FieldKernels,
    grid: ModeGrid,
    steps: int | None = None,
    workspace: GridWorkspace | None = None,
) -> BogoliubovSolution:
    """Integrate the forward/conjugate kernel pair through the crystal.

    The crystal length and the block space are the workspace's; without
    one, a default ``GridWorkspace(kern, grid)`` is built, and a given one
    must match ``kern``'s config and ``grid`` (GridMismatchError).  From
    the identity/zero initial kernels, with the fully z-dependent pair
    kernel, by the exact z-Taylor recurrence run piece by piece
    (``_taylor_blocks``); ``info`` holds ``steps`` (the piece count, 1
    wherever max |L Delta| <= 1.5), ``terms``, ``error_bound`` and
    ``tolerance``.  An explicit ``steps`` (at least 64) runs the classical
    fourth-order RK4 at that fixed count instead, with ``info`` holding
    ``steps``; it remains only because the depth-17 benchmark pins
    ``steps=64``.  ``info["blocks"]`` lists the block sizes; ``forward`` and
    ``conjugate`` hold the U and V blocks of the workspace's block space.
    ``constraint_defect`` is the largest grid entry of the Bogoliubov
    identity defect of the result.
    """
    if steps is not None and steps < 64:
        raise ValueError("steps must be >= 64")
    workspace = _workspace_for(kern, grid, workspace)
    space = workspace.space
    if steps is None:
        [(U, V)], info = _taylor_blocks(workspace)
    else:
        U, V = _rk4_blocks(workspace, steps)
        info = {"steps": steps}
    info["blocks"] = _block_dims(space)
    return BogoliubovSolution(
        forward=BlockKernel(grid, space, U),
        conjugate=BlockKernel(grid, space, V),
        constraint_defect=_bogoliubov_defect(space, U, V),
        info=info,
    )


def series_UV(
    kern: FieldKernels,
    grid: ModeGrid,
    order: int = 4,
    z_nodes: int = 33,
    workspace: GridWorkspace | None = None,
) -> tuple[BlockKernel, BlockKernel]:
    """Iterated-integral expansion of the kernel pair up to ``order``.

    The crystal length and the block space are the workspace's, as for
    ``solve_UV_ode``.  Nested z-ordered integrals are evaluated by
    cumulative trapezoid rule over ``z_nodes`` (at least 2) equally spaced
    depths through the workspace's length, one block at a time from z = 0
    to L (``_series_block``), so the working set is one block's: its
    ``order`` running integrals, their previous integrands and a few more
    arrays of its size.  Returns the U and V blocks of the workspace's
    block space.
    """
    if not 1 <= order <= 6:
        raise ValueError("order must be in 1..6")
    if z_nodes < 2:
        raise ValueError(f"z_nodes must be >= 2, got {z_nodes}")
    workspace = _workspace_for(kern, grid, workspace)
    zs = np.linspace(0.0, workspace.length, z_nodes)
    u_blocks, v_blocks = zip(*(_series_block(workspace.provider, s, d, order, zs)
                               for s, d in enumerate(_block_dims(workspace.space))))
    return (
        BlockKernel(grid, workspace.space, list(u_blocks)),
        BlockKernel(grid, workspace.space, list(v_blocks)),
    )


def _series_block(provider: _TaylorProvider, s: int, d: int, order: int, zs: np.ndarray):
    """U and V of block ``s`` to ``order`` over the equally spaced depths
    ``zs``, in working arrays allocated once.

    The running iterated integrals T_k(z): T_k integrates T_(k-1) against
    the kernel (conjugated for even k, counting from 0) by the cumulative
    trapezoid rule, and each level is brought up to date at a node before
    the next level's integrand is formed there.  Then U = 1 + sum over odd
    k and V = sum over even k of T_k / 2^(k+1).
    """
    h = zs[1] - zs[0]
    levels = [np.zeros((d, d), dtype=complex) for _ in range(order)]
    # each level's integrand at the previous node; at the first node every
    # level is zero, so only the first level has a nonzero integrand there
    prev = [np.zeros((d, d), dtype=complex) for _ in range(order)]
    np.conjugate(provider.block(s, zs[0]), out=prev[0])
    conj, f = np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)
    for z in zs[1:]:
        cur = provider.block(s, z)
        np.conjugate(cur, out=conj)
        for lvl, t in enumerate(levels):
            if lvl:
                np.matmul(levels[lvl - 1], conj if lvl % 2 == 0 else cur, out=f)
            else:
                np.copyto(f, conj)
            p = prev[lvl]
            p += f
            p *= 0.5 * h
            t += p
            # this node's integrand becomes the previous one; the old
            # buffer takes the next product
            prev[lvl], f = f, p

    u = np.eye(d, dtype=complex)
    for lvl, t in enumerate(levels):
        t *= 0.5 ** (lvl + 1)
        if lvl % 2:
            u += t
        elif lvl:
            levels[0] += t
    return u, levels[0]


def _compose_ab(u: np.ndarray, v: np.ndarray):
    """Weight-absorbed squeezed-state kernels of a weight-absorbed pair."""
    a = u.conj().T @ u + v.T @ np.conj(v)
    b = u.conj().T @ v + v.T @ np.conj(u)
    return a, b


def build_AB(U: BlockKernel, V: BlockKernel) -> tuple[BlockKernel, BlockKernel]:
    """Squeezed-state kernels from the Bogoliubov pair, composed block by
    block.  Raises GridMismatchError when the pair lives on different grids
    or blocks."""
    shapes = [[blk.shape for blk in kernel.blocks] for kernel in (U, V)]
    if not _same_grid(U.grid, V.grid) or shapes[0] != shapes[1]:
        raise GridMismatchError("kernel pair lives on different grids or blocks")
    a, b = zip(*(_compose_ab(u, v) for u, v in zip(U.blocks, V.blocks)))
    return BlockKernel(U.grid, U.space, list(a)), BlockKernel(U.grid, U.space, list(b))


# The depth-equation check's difference step L / AB_STEPS and its number of
# stations, evenly spaced inside (0, L)
AB_STEPS = 256
AB_STATIONS = 8


def ab_consistency_defect(kern: FieldKernels, grid: ModeGrid) -> float:
    """Residual of the squeezed-kernel depth equations along the trajectory.

    Runs on a default ``GridWorkspace(kern, grid)``, block by block, on any
    number of pieces.  One ``_taylor_blocks`` call gives the U and V blocks
    at ``AB_STATIONS`` evenly spaced depths z = m h and at z = m h +- h,
    with h = L / ``AB_STEPS``; the bases are real, so A and B compose block
    by block.  Their derivative is estimated there by central differences
    and compared against the right-hand side built from the blocks of the
    exact pair kernel at z = m h.  Returns the worst over the stations of
    the largest grid entry of the residual over the largest grid entry of
    the right-hand side.
    """
    workspace = GridWorkspace(kern, grid)
    space = workspace.space
    station_steps = sorted(
        {int(round(i * AB_STEPS / (AB_STATIONS + 1))) for i in range(1, AB_STATIONS + 1)}
    )
    h = workspace.length / AB_STEPS
    zetas = [(m + d) / AB_STEPS for m in station_steps for d in (-1, 0, 1)]
    values, _ = _taylor_blocks(workspace, zetas)

    worst = 0.0
    for i, m in enumerate(station_steps):
        (a_prev, b_prev), (a_here, b_here), (a_next, b_next) = (
            zip(*(_compose_ab(u, v) for u, v in zip(us, vs)))
            for us, vs in values[3 * i:3 * i + 3]
        )
        ht = _pair_kernel_blocks(workspace.ops, space, m * h)
        rhs_a = [0.5 * (t.conj().T @ np.conj(b)) + 0.5 * (b @ t) for t, b in zip(ht, b_here)]
        rhs_b = [0.5 * (t.conj().T @ a.T) + 0.5 * (a @ np.conj(t)) for t, a in zip(ht, a_here)]
        res_a = [(n - p) / (2.0 * h) - r for n, p, r in zip(a_next, a_prev, rhs_a)]
        res_b = [(n - p) / (2.0 * h) - r for n, p, r in zip(b_next, b_prev, rhs_b)]
        scale = max(space.spread_max_abs(rhs_a), space.spread_max_abs(rhs_b), 1e-300)
        worst = max(worst, space.spread_max_abs(res_a) / scale,
                    space.spread_max_abs(res_b) / scale)
    return worst


# ---------------------------------------------------------------------------
# thin-crystal matrix functions (independent route to the kernel sums)


def hyperbolic_matrix_uv(kern: FieldKernels, grid: ModeGrid):
    """Matrix cosh/sinh of half the depth-integrated kernel magnitude.

    Returns weight-absorbed real symmetric matrices on every mode of the
    grid; their difference of squares is the identity to rounding error.
    """
    return hyperbolic_uv_subblock(kern, grid, np.arange(grid.size))


def hyperbolic_uv_subblock(kern: FieldKernels, grid: ModeGrid, indices: np.ndarray):
    """cosh/sinh sub-blocks on selected modes of any tensor grid.

    The grid matrix is a Kronecker product of per-axis factors, so its
    eigenvectors and eigenvalues are products of theirs (Van Loan, J.
    Comput. Appl. Math. 123, 85 (2000)); only the requested rows of the
    eigenvector matrix are formed, never the full grid matrix.
    """
    # half the depth-integrated magnitude: the omega factor carries L / 2
    mx, my, mw = _magnitude_factors(kern, grid)
    half_length = 0.5 * kern.cfg.crystal.length
    (lx, qx), (ly, qy), (lw, qw) = (np.linalg.eigh(f) for f in (mx, my, half_length * mw))
    evals = np.einsum("i,j,k->ijk", lx, ly, lw).ravel()
    ix, iy, iw = np.unravel_index(indices, grid.shape)
    rows = np.einsum("ai,aj,ak->aijk", qx[ix], qy[iy], qw[iw]).reshape(ix.size, -1)
    return (rows * np.cosh(evals)) @ rows.T, (rows * np.sinh(evals)) @ rows.T


# ---------------------------------------------------------------------------
# direct depth-quadrature oracles

# Gauss-Legendre nodes per axis of the coarse and the fine tensor rule; the
# fine value is returned and their relative difference is its error estimate
_RULE_NODES = (64, 96)
_LEGENDRE = {n: np.polynomial.legendre.leggauss(n) for n in _RULE_NODES}


def _gauss_legendre(lo: float, hi: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = _LEGENDRE[n]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _fixed_rule(evaluate, rtol: float, what: str):
    """``evaluate(n)`` on both rules: the fine value and the worst relative
    difference from the coarse one, raising QuadratureError above rtol."""
    coarse, fine = (np.asarray(evaluate(n)) for n in _RULE_NODES)
    diff = np.abs(fine - coarse)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(fine))
    err = float(np.max(rel, initial=0.0))
    if not err <= rtol:
        raise QuadratureError(
            f"{what}: {_RULE_NODES[0]}- and {_RULE_NODES[1]}-node rules differ "
            f"by {err:.2e} relative (rtol {rtol:g})"
        )
    return fine[()], err


def oracle_zeta2(kern: FieldKernels, K1, rtol: float = 1e-9):
    """Leading-order idler amplitude at the degenerate frequency by direct
    depth quadrature.

    The transverse integral over the shared mode is done analytically (a
    complex Gaussian); the frequency and depth integrals run on a tensor
    Gauss-Legendre rule over z in [0, L] and omega2 within eight combined
    bandwidths of degeneracy, with no thin-crystal expansion anywhere.
    ``K1`` of shape (..., 2) gives amplitudes of shape (...).  Returns the
    96-node-per-axis values and, as their error estimate, the worst
    relative difference from the 64-node rule; raises QuadratureError
    when that exceeds ``rtol``.
    """
    cfg, q = kern.cfg, kern.q
    p, s = cfg.pump, cfg.seed
    omega1 = q.omega_deg
    K1 = np.asarray(K1, dtype=float)
    points = K1.reshape(-1, 2)
    shift = np.asarray(seed_shift(cfg, q), dtype=float)
    kz1 = float(kern.kz(omega1))
    chi1 = float(kern.chi(omega1))
    pair_amp_conj = 1j * (q.kernel_prefactor * q.order_gain / cfg.crystal.length) * np.exp(
        1j * p.phase
    )
    seed_amp_conj = math.sqrt(2.0 * math.pi) * s.amplitude * np.exp(-1j * s.phase) * s.waist
    wp2, wx2 = p.waist**2, s.waist**2
    bw = math.hypot(p.bandwidth, s.bandwidth)

    def evaluate(n):
        z, wz = _gauss_legendre(0.0, cfg.crystal.length, n)
        w2, ww = _gauss_legendre(q.omega_deg - 8.0 * bw, q.omega_deg + 8.0 * bw, n)
        z, wz = z[:, None], wz[:, None]
        kz2 = kern.kz(w2)
        qq = kz1 * kz2 / (kz1 + kz2)
        a = 0.25 * (wp2 + wx2) + 0.5j * z * qq / kz2**2
        spectra = gaussian_spectrum(omega1 + w2 - p.omega, p.bandwidth) * gaussian_spectrum(
            w2 - q.omega_deg, s.bandwidth
        )
        phase = np.exp(0.5j * z * (chi1 + kern.chi(w2)))
        common = (0.5 / (2.0 * math.pi) ** 3) * pair_amp_conj * seed_amp_conj * (
            wz * ww * np.sqrt(omega1 * w2) * spectra * phase * (math.pi / a)
        )
        # each point's Gaussian exponent is sum_c b_c^2 / (4a) + const_c
        beta = (1j * z * qq / (kz1 * kz2))[..., None]
        gamma = -0.5j * z * qq / kz1**2
        out = np.empty(points.shape[0], dtype=complex)
        for i, k in enumerate(points):
            b = (0.5 * wx2 * shift - 0.5 * wp2 * k) + beta * k
            const = gamma * (k @ k) - 0.25 * (wp2 * (k @ k) + wx2 * (shift @ shift))
            out[i] = np.sum(common * np.exp(np.sum(b * b, axis=-1) / (4.0 * a) + const))
        return out.reshape(K1.shape[:-1])

    return _fixed_rule(evaluate, rtol, "idler depth quadrature")


def oracle_background(kern: FieldKernels, radius: float, rtol: float = 1e-9):
    """Background intensity by direct double depth quadrature.

    Uses the pair-kernel contraction with detector substitutions but
    without the extra depth expansions of the closed form, on a tensor
    Gauss-Legendre rule over (z1, z2) in [0, L]^2.  Returns the 96-node-
    per-axis value and, as its error estimate, the relative difference
    from the 64-node rule; raises QuadratureError when that exceeds
    ``rtol``.
    """
    cfg, q = kern.cfg, kern.q
    K0 = np.array([q.k_deg * radius / cfg.detector.focal_length, 0.0])

    def evaluate(n):
        z, w = _gauss_legendre(0.0, cfg.crystal.length, n)
        hh = hh_contraction(kern, K0, K0, q.omega_deg, q.omega_deg, z[:, None], z[None, :])
        return 0.25 * q.detector_gain * float(w @ np.real(hh) @ w)

    return _fixed_rule(evaluate, rtol, "background depth quadrature")
