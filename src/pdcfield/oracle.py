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
the tables.  A depth provider writes the kernel blocks at a requested
depth into buffers its caller owns, and forms them from the tables one
frequency pair at a time: there the kernel is a Kronecker product of an x
and a y table, so each block is built from the two tables transformed on
their axis's mirror bases, and no grid-sized array is formed (Van Loan,
J. Comput. Appl. Math. 123, 85 (2000)).  The Taylor provider does this
once for each real term magnitude o Delta^k / k! and multiplies its
blocks by the scalar pair_phase i^k; the direct provider does it for the
complex kernel at every depth it is asked for.

Where that provider serves (max |L Delta| <= 1.5, every default workload),
H(z) is a polynomial with real block terms and the depth equations are
linear, so ``solve_UV_ode`` solves them by their exact z-Taylor recurrence
(``_taylor_blocks``; Corliss & Chang, ACM TOMS 8, 114 (1982)).  The term
count is fixed before any matrix product by Cauchy's scalar majorant,
whose tail, reported as ``error_bound``, is a proven bound on the
truncation, at most ``DEPTH_TOL``; ``ab_consistency_defect`` evaluates the
same coefficients by Horner's rule at its stations.  Where the direct
provider serves, the one RK4
(``_rk4_blocks``) doubles its step count from 8 until the Richardson
estimate max|W_2n - W_n|/15 meets ``DEPTH_TOL``, and an explicit
``steps=`` runs that RK4 at a fixed count in either regime.  The
``constraint_defect`` of a solve checks the identities of the Bogoliubov
transformation, U+U - V^T conj(V) = 1 and U V^T = V U^T, which the depth
equations conserve; it therefore measures the solve's error.

On a centered square K grid the depth integration and the series run
block by block over the grid's point group.  The blocks come from the grid
itself, not from a character table: each K axis pairs every point with its
mirror image into an even and an odd combination, and the x <-> y exchange
splits the products of an x and a y factor into the five symmetry types
(``square_grid_blocks``).  Each block keeps a small dense real basis over
the K modes; the omega identity stays implicit.  The blocks change nothing
numerically (verified against the plain path in the tests); they only
make the default-size runs fast on one core.  The results stay in that
form: ``solve_UV_ode``, ``series_UV`` and ``build_AB`` return
``BlockKernel`` values, weight-absorbed blocks in which the mode
contraction is the product of blocks; a grid matrix is formed only on
request (``to_weighted``, ``to_plain``).  The thin-crystal
matrix cosh/sinh needs no blocks: its matrix is the Kronecker product of
the same per-axis magnitude factors, so any grid is diagonalized axis by
axis (Van Loan, J. Comput. Appl. Math. 123, 85 (2000)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def _spread_rows(self, blocks):
        """The grid matrix of ``blocks`` one omega sample a at a time: yields
        its rows (i, a) for every K mode i, an (nk, nk * nw) array."""
        nk, nw = self.nk, self.nw
        bases = self.k_bases()
        basis = np.hstack([q for basis_list in bases for q in basis_list])
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
        size = self.nk * self.nw
        return np.stack(list(self._spread_rows(blocks)), axis=1).reshape(size, size)

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


class _TaylorProvider:
    """Blockwise H(z) via an exact-in-practice phase Taylor expansion.

    H(z) = pair_phase sum_k (iz)^k magnitude o Delta^k / k!.  Per frequency
    pair the real term magnitude o Delta^k / k! is sum_(i+j=k) X_i (x) Y_j,
    with X_i = Mx Mw (Dx + Dw)^i / i! and Y_j = My Dy^j / j! (the tables of
    ``GridOperators.pair_tables``), so its blocks are formed from the
    projected per-axis tables without a grid-sized array; they are then
    multiplied by the constant pair_phase i^k.  Valid when max |z * Delta|
    stays small enough that the truncated exponential series is at machine
    precision; the caller checks this.
    """

    def __init__(self, ops: GridOperators, space: _BlockSpace, length: float):
        max_arg = ops.max_abs_mismatch() * length
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
        projected = space.project_axes(x_mag * x_delta**orders / factorials,
                                       y_mag * y_delta**orders / factorials)
        phase = ops.kern.pair_phase
        self.coeffs = []
        for k in range(kmax + 1):
            terms = [(xp[:k + 1], yp[k::-1]) for xp, yp in projected]
            self.coeffs.append([phase * blk for blk in space.kron_blocks(terms)])
            phase = phase * 1j

    def blocks(self, z: float, out) -> None:
        """Write the blocks of H(z) into ``out`` by Horner's rule."""
        for s, o in enumerate(out):
            np.copyto(o, self.coeffs[-1][s])
            for ck in reversed(self.coeffs[:-1]):
                o *= z
                o += ck[s]


class _DirectProvider:
    """Blockwise H(z) formed at each depth from the per-axis tables.

    Per frequency pair, H(z) is the single complex Kronecker term
    pair_phase Mx Mw exp(iz (Dx + Dw)) (x) My exp(iz Dy); its blocks are
    formed from the two projected axis tables, as the Taylor provider's
    are, without a grid-sized array.
    """

    def __init__(self, ops: GridOperators, space: _BlockSpace):
        (x_mag, self.x_delta), (self.y_mag, self.y_delta) = ops.pair_tables()
        self.x_mag = ops.kern.pair_phase * x_mag
        self.space = space

    def blocks(self, z: float, out) -> None:
        """Write the blocks of H(z) into ``out``."""
        x = self.x_mag * np.exp(1j * z * self.x_delta)
        y = self.y_mag * np.exp(1j * z * self.y_delta)
        projected = self.space.project_axes(x[None], y[None])
        for o, blk in zip(out, self.space.kron_blocks(projected)):
            np.copyto(o, blk)


def _make_provider(ops: GridOperators, space: _BlockSpace, length: float):
    if ops.max_abs_mismatch() * length <= 1.5:
        return _TaylorProvider(ops, space, length)
    return _DirectProvider(ops, space)


class GridWorkspace:
    """Precomputed grid operators, block decomposition and depth provider.

    A workspace lets the depth integration and the series share them; the
    Taylor provider's block terms are most of its build time and of what it
    keeps.  ``symmetry=True`` block-diagonalizes over the square-grid point
    group when the grid allows it; otherwise, or with ``symmetry=False``,
    one block spans the grid.  A negative ``length`` raises ValueError.
    """

    def __init__(self, kern: FieldKernels, grid: ModeGrid,
                 length: float | None = None, symmetry: bool = True):
        if length is None:
            length = kern.cfg.crystal.length
        if not length >= 0.0:
            raise ValueError(f"length must be >= 0, got {length}")
        self.kern = kern
        self.grid = grid
        self.length = length
        self.symmetry = symmetry
        self.ops = GridOperators(kern, grid)
        space = square_grid_blocks(grid) if symmetry and grid.size > 1 else None
        self.space = space if space is not None else _trivial_space(grid)
        self.provider = _make_provider(self.ops, self.space, length)


def _workspace_for(kern: FieldKernels, grid: ModeGrid, length: float | None,
                   symmetry: bool, workspace: GridWorkspace | None) -> GridWorkspace:
    """``workspace`` if it was built for this config, grid, length and
    symmetry setting; a new workspace when none is given."""
    if workspace is None:
        return GridWorkspace(kern, grid, length, symmetry)
    if (
        workspace.kern.cfg != kern.cfg
        or not _same_grid(workspace.grid, grid)
        or (length is not None and length != workspace.length)
        or workspace.symmetry != symmetry
    ):
        raise GridMismatchError(
            "workspace was built for a different config, grid, length or symmetry setting"
        )
    return workspace


# ---------------------------------------------------------------------------
# Bogoliubov kernel construction


class StepCountError(RuntimeError):
    """Raised when the depth integration cannot meet its tolerance: the RK4
    within its step cap, or the Taylor recurrence in double precision."""


# The one tolerance of the default depth solve: the recurrence's proven tail
# and the RK4's step-doubling estimate.  1e-9 leaves three decades below the
# tightest gate that consumes a solve (1e-6).
DEPTH_TOL = 1e-9
RK4_START_STEPS = 8
RK4_MAX_STEPS = 1024


@dataclass
class BogoliubovSolution:
    forward: BlockKernel           # U, weight-absorbed point-group blocks
    conjugate: BlockKernel         # V, weight-absorbed point-group blocks
    constraint_defect: float       # identity defect of the blocks, see _bogoliubov_defect
    info: dict


def _block_dims(space: _BlockSpace):
    return [w * space.nw for w in space.widths]


def _taylor_term_count(norms):
    """Term count of the depth-scaled Taylor series and its proven tail.

    ``norms[k]`` bounds ||L^(k+1) R_k||_2 on every block.  Cauchy's scalar
    majorant eta_0 = 1, eta_(n+1) = sum_k a_k eta_(n-k) / (2 (n+1)) bounds
    the 2-norm of every coefficient of U and W; it is the Taylor series of
    exp(g(x)), g(x) = sum_k a_k x^(k+1) / (2 (k+1)), so the tail after N
    terms is exp(g(1)) less the first N eta_n.  N is the first count whose
    tail is at most ``DEPTH_TOL`` times expm1(g(1)), the majorant of what
    the kernel adds to the initial U = 1 and V = 0, and never above
    ``DEPTH_TOL``: a weak kernel is resolved to the same relative accuracy
    as a strong one.  The sums leave out eta_0, which keeps their relative
    precision, and the tail adds terms * eps * expm1(g(1)) for their
    rounding.  Raises StepCountError when the terms stop changing the sum
    before the tail meets its target.
    """
    grown = math.expm1(0.5 * sum(a / (k + 1) for k, a in enumerate(norms)))
    target = DEPTH_TOL * min(1.0, grown)
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


def _taylor_blocks(workspace: GridWorkspace, zetas=(1.0,)):
    """U and V blocks at each depth zeta * L by the exact Taylor recurrence.

    With H(z) = p sum_k (iz)^k R_k (``_TaylorProvider``; |p| = 1, real R_k)
    and W = pV, the equations U' = (1/2) V H, V' = (1/2) U conj(H) become
    U' = (1/2) W sum_k (iz)^k R_k and W' = (1/2) U sum_k (-iz)^k R_k.  In
    x = z / L with depth-scaled terms S_k = L^(k+1) R_k, the coefficients
    U = sum_n a_n (-ix)^n and W = sum_n b_n (ix)^n obey (Corliss & Chang,
    ACM TOMS 8, 114 (1982))

        a_(n+1) =  i c_n sum_k b_(n-k) S_k,   b_(n+1) = -i c_n sum_k a_(n-k) S_k,

    with c_n = (-1)^n / (2 (n+1)), a_0 = 1 and b_0 = 0.  Each new
    coefficient is kept transposed, so that it is one real product of
    [S_0^T ... S_m^T] with the last m+1 coefficients viewed as float pairs;
    they are stored newest first, which makes that history one contiguous
    slice and puts them in Horner order.  The term count comes from
    ``_taylor_term_count`` before any product.  Returns, per zeta, the U
    and V blocks, and an info dict with ``terms``, ``error_bound`` (the
    proven truncation tail of every block of U and V in the 2-norm) and
    ``tolerance``.
    """
    coeffs, space, length = workspace.provider.coeffs, workspace.space, workspace.length
    m = len(coeffs) - 1
    # R_0 is the magnitude, whose grid matrix is the Kronecker product of the
    # per-axis factors: its 2-norm, the largest of its blocks', is theirs
    # multiplied.  For k >= 1, |p i^k| = 1 gives the norms of the real terms
    # from the complex blocks, bounded by sqrt(||.||_1 ||.||_inf).
    norms = [length * math.prod(float(np.linalg.norm(f, 2)) for f in workspace.ops.magnitude)]
    norms += [
        length ** (k + 1) * max(
            math.sqrt(np.linalg.norm(c, 1) * np.linalg.norm(c, np.inf)) for c in coeffs[k]
        )
        for k in range(1, m + 1)
    ]
    terms, bound = _taylor_term_count(norms)
    phases = [workspace.kern.pair_phase * 1j**k for k in range(m + 1)]
    values = [([], []) for _ in zetas]
    for s, d in enumerate(_block_dims(space)):
        stack = np.empty((d, (m + 1) * d))
        for k in range(m + 1):
            stack[:, k * d:(k + 1) * d] = (
                length ** (k + 1) * (coeffs[k][s].T * np.conj(phases[k])).real
            )
        a = np.zeros((terms, d, d), dtype=complex)
        b = np.zeros((terms, d, d), dtype=complex)
        np.fill_diagonal(a[-1], 1.0)
        for n in range(terms - 1):
            top = min(n, m) + 1
            lo = terms - 1 - n  # slot of coefficient n; n - k sits at lo + k
            scale = 0.5j * (-1) ** n / (n + 1)
            for new, old, factor in ((a, b, scale), (b, a, -scale)):
                hist = old[lo:lo + top].reshape(top * d, d).view(float)
                prod = (stack[:, :top * d] @ hist).view(complex)
                np.multiply(prod, factor, out=new[lo - 1])
        for (us, vs), zeta in zip(values, zetas):
            for hist, x, out in ((a, -1j * zeta, us), (b, 1j * zeta, vs)):
                acc = hist[0].copy()
                for coef in hist[1:]:
                    acc *= x
                    acc += coef
                out.append(np.ascontiguousarray(acc.T))
            vs[-1] *= np.conj(workspace.kern.pair_phase)
    info = {"steps": 1, "terms": terms, "error_bound": bound, "tolerance": DEPTH_TOL}
    return values, info


def _rk4_blocks(provider, space: _BlockSpace, length: float, steps: int):
    """Classical fourth-order steps of dU = (1/2) V H dz, dV = (1/2) U H* dz.

    Works blockwise with preallocated buffers; the 1/2 of the equations is
    folded into the stage constants so provider blocks are used as-is.  The
    kernel blocks at the start, middle and end of a step live in three
    buffers owned here; the end buffer becomes the next step's start.
    """
    dims = _block_dims(space)
    U = [np.eye(d, dtype=complex) for d in dims]
    V = [np.zeros((d, d), dtype=complex) for d in dims]
    h = length / steps
    buf = [
        {name: np.empty((d, d), dtype=complex)
         for name in ("tmp", "k1u", "k1v", "k2u", "k2v", "k3u", "k3v", "k4u", "k4v")}
        for d in dims
    ]
    a_lo, a_mid, a_hi = ([np.empty((d, d), dtype=complex) for d in dims] for _ in range(3))

    def conjed(blocks):
        return [np.conj(arr) for arr in blocks]

    provider.blocks(0.0, a_lo)
    a_lo_c = conjed(a_lo)
    for n in range(steps):
        z = n * h
        provider.blocks(z + 0.5 * h, a_mid)
        a_mid_c = conjed(a_mid)
        provider.blocks(z + h, a_hi)
        a_hi_c = conjed(a_hi)
        for s in range(space.nblocks):
            u, v, b = U[s], V[s], buf[s]
            tmp = b["tmp"]
            # stage slopes carry twice the true derivative; the factors of
            # 1/2 reappear in the h/4, h/2 and h/12 constants below
            np.matmul(v, a_lo[s], out=b["k1u"])
            np.matmul(u, a_lo_c[s], out=b["k1v"])
            np.multiply(b["k1v"], 0.25 * h, out=tmp)
            tmp += v
            np.matmul(tmp, a_mid[s], out=b["k2u"])
            np.multiply(b["k1u"], 0.25 * h, out=tmp)
            tmp += u
            np.matmul(tmp, a_mid_c[s], out=b["k2v"])
            np.multiply(b["k2v"], 0.25 * h, out=tmp)
            tmp += v
            np.matmul(tmp, a_mid[s], out=b["k3u"])
            np.multiply(b["k2u"], 0.25 * h, out=tmp)
            tmp += u
            np.matmul(tmp, a_mid_c[s], out=b["k3v"])
            np.multiply(b["k3v"], 0.5 * h, out=tmp)
            tmp += v
            np.matmul(tmp, a_hi[s], out=b["k4u"])
            np.multiply(b["k3u"], 0.5 * h, out=tmp)
            tmp += u
            np.matmul(tmp, a_hi_c[s], out=b["k4v"])
            for k1, k2, k3, k4, target in (
                ("k1u", "k2u", "k3u", "k4u", u),
                ("k1v", "k2v", "k3v", "k4v", v),
            ):
                acc = b[k1]
                b[k2] += b[k3]
                b[k2] *= 2.0
                acc += b[k2]
                acc += b[k4]
                acc *= h / 12.0
                target += acc
        a_lo, a_hi = a_hi, a_lo
        a_lo_c = a_hi_c
    return U, V


def _rk4_blocks_to_tol(provider, space: _BlockSpace, length: float):
    """``_rk4_blocks`` at 8, 16, 32, ... steps until the step-doubling
    estimate meets ``DEPTH_TOL``.

    After each doubling the error of the 2n-step blocks is estimated as
    max |W_2n - W_n| / 15 over the weight-absorbed U and V blocks
    (Richardson; Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.4).
    Returns the 2n-step blocks and an info dict with the step count, the
    estimate, the tolerance and the RK4 steps taken in all; raises
    StepCountError when the estimate is not finite or the next doubling
    would pass ``RK4_MAX_STEPS``.
    """
    steps = RK4_START_STEPS
    U, V = _rk4_blocks(provider, space, length, steps)
    taken = steps
    while 2 * steps <= RK4_MAX_STEPS:
        steps *= 2
        U2, V2 = _rk4_blocks(provider, space, length, steps)
        taken += steps
        estimate = max(
            float(np.max(np.abs(fine - coarse)))
            for fine, coarse in zip(U2 + V2, U + V)
        ) / 15.0
        U, V = U2, V2
        if estimate <= DEPTH_TOL:
            return U, V, {"steps": steps, "error_estimate": estimate,
                          "tolerance": DEPTH_TOL, "steps_taken": taken}
        if not math.isfinite(estimate):
            break
    raise StepCountError(
        f"RK4 step-doubling estimate {estimate:.2e} at {steps} steps exceeds "
        f"tolerance {DEPTH_TOL:g} (cap {RK4_MAX_STEPS} steps)"
    )


def _bogoliubov_defect(U, V) -> float:
    """Largest entry of U+U - V^T conj(V) - 1 and of U V^T - V U^T.

    Both are identities of the Bogoliubov transformation (Braunstein, PRA
    71, 055801 (2005)) that the depth equations conserve, so the defect
    measures integration error.  The point-group bases are real, so
    conjugation and transposition act block by block and the defect is
    taken on the weight-absorbed blocks as they are.
    """
    worst = 0.0
    for u, v in zip(U, V):
        d = u.conj().T @ u - v.T @ v.conj()
        np.fill_diagonal(d, np.diagonal(d) - 1.0)
        uvt = u @ v.T
        worst = max(worst, float(np.max(np.abs(d))), float(np.max(np.abs(uvt - uvt.T))))
    return worst


def solve_UV_ode(
    kern: FieldKernels,
    grid: ModeGrid,
    steps: int | None = None,
    length: float | None = None,
    symmetry: bool = True,
    workspace: GridWorkspace | None = None,
) -> BogoliubovSolution:
    """Integrate the forward/conjugate kernel pair through the crystal.

    From the identity/zero initial kernels, with the fully z-dependent pair
    kernel.  With ``steps=None`` the Taylor regime is solved by the exact
    z-Taylor recurrence (``_taylor_blocks``); ``info``
    then holds ``steps`` 1 (one Taylor step over [0, L]), ``terms``,
    ``error_bound`` and ``tolerance``.  The direct regime (max |L Delta| >
    1.5) doubles the classical fourth-order step count from 8 until the
    step-doubling estimate meets ``DEPTH_TOL``; ``info`` then holds
    ``steps``, ``error_estimate``, ``tolerance`` and ``steps_taken``.  An
    explicit ``steps`` (at least 64) runs that fixed RK4 count in either
    regime.  ``info["blocks"]`` lists the block sizes; ``forward`` and
    ``conjugate`` hold the U and V blocks of the workspace's block space.
    ``constraint_defect`` is the Bogoliubov identity defect of the result.
    ``symmetry=True`` block-diagonalizes over the square grid point group
    when the grid allows it (same result to rounding).
    """
    if steps is not None and steps < 64:
        raise ValueError("steps must be >= 64")
    workspace = _workspace_for(kern, grid, length, symmetry, workspace)
    space = workspace.space
    if steps is not None:
        U, V = _rk4_blocks(workspace.provider, space, workspace.length, steps)
        info = {"steps": steps}
    elif isinstance(workspace.provider, _TaylorProvider):
        [(U, V)], info = _taylor_blocks(workspace)
    else:
        U, V, info = _rk4_blocks_to_tol(workspace.provider, space, workspace.length)
    info["blocks"] = _block_dims(space)
    return BogoliubovSolution(
        forward=BlockKernel(grid, space, U),
        conjugate=BlockKernel(grid, space, V),
        constraint_defect=_bogoliubov_defect(U, V),
        info=info,
    )


def series_UV(
    kern: FieldKernels,
    grid: ModeGrid,
    order: int = 4,
    length: float | None = None,
    z_nodes: int = 33,
    symmetry: bool = True,
    workspace: GridWorkspace | None = None,
) -> tuple[BlockKernel, BlockKernel]:
    """Iterated-integral expansion of the kernel pair up to ``order``.

    Nested z-ordered integrals are evaluated by cumulative trapezoid
    rule over ``z_nodes`` (at least 2) equally spaced depths.  Returns the
    U and V blocks of the workspace's block space.
    """
    if not 1 <= order <= 6:
        raise ValueError("order must be in 1..6")
    if z_nodes < 2:
        raise ValueError(f"z_nodes must be >= 2, got {z_nodes}")
    workspace = _workspace_for(kern, grid, length, symmetry, workspace)
    u_blocks, v_blocks = _series_blocks(workspace, order, z_nodes)
    return (
        BlockKernel(grid, workspace.space, u_blocks),
        BlockKernel(grid, workspace.space, v_blocks),
    )


def _series_blocks(workspace: GridWorkspace, order: int, z_nodes: int):
    space = workspace.space
    provider = workspace.provider
    zs = np.linspace(0.0, workspace.length, z_nodes)
    h = zs[1] - zs[0]
    dims = _block_dims(space)
    nb = space.nblocks
    cur = [np.empty((d, d), dtype=complex) for d in dims]

    # running iterated integrals T_k(z); T_k integrates T_{k-1} against the
    # kernel (conjugated for odd k).  Each level is brought up to date at a
    # node before the next level's integrand is formed there.
    levels = [
        [np.zeros((d, d), dtype=complex) for d in dims] for _ in range(order)
    ]
    # at the first node every level is zero, so only the first level has a
    # nonzero integrand there
    provider.blocks(zs[0], cur)
    prev_f = [[np.conj(c) for c in cur]] + [None] * (order - 1)
    for z in zs[1:]:
        provider.blocks(z, cur)
        conj = [np.conj(c) for c in cur]
        for lvl in range(order):
            mats = conj if lvl % 2 == 0 else cur
            f = mats if lvl == 0 else [levels[lvl - 1][s] @ mats[s] for s in range(nb)]
            for s in range(nb):
                if prev_f[lvl] is None:
                    levels[lvl][s] += (0.5 * h) * f[s]
                else:
                    levels[lvl][s] += (0.5 * h) * (prev_f[lvl][s] + f[s])
            prev_f[lvl] = f

    u_blocks = [np.eye(d, dtype=complex) for d in dims]
    v_blocks = [np.zeros((d, d), dtype=complex) for d in dims]
    for lvl in range(order):
        coeff = 0.5 ** (lvl + 1)
        target = v_blocks if lvl % 2 == 0 else u_blocks
        for s in range(nb):
            target[s] += coeff * levels[lvl][s]
    return u_blocks, v_blocks


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


def ab_consistency_defect(
    kern: FieldKernels,
    grid: ModeGrid,
    steps: int = 256,
    stations: int = 8,
    length: float | None = None,
) -> float:
    """Residual of the squeezed-kernel depth equations along the trajectory.

    The kernel pair's Taylor coefficients (``_taylor_blocks``, one block
    spanning the grid) are evaluated by Horner's rule at ``stations``
    evenly spaced depths z = m h and at z = m h +- h, with h = L / steps.
    The derivative of the composed kernels is estimated there by central
    differences and compared against the right-hand side built from the
    pair kernel; returns the worst relative residual.  Raises ValueError
    outside the Taylor regime, for ``stations < 1`` and when a station
    lacks a neighbour inside [0, L].
    """
    workspace = GridWorkspace(kern, grid, length, symmetry=False)
    if not isinstance(workspace.provider, _TaylorProvider):
        raise ValueError("ab_consistency_defect needs the Taylor regime (max |L Delta| <= 1.5)")
    if stations < 1:
        raise ValueError(f"stations must be >= 1, got {stations}")
    station_steps = sorted(
        {int(round(i * steps / (stations + 1))) for i in range(1, stations + 1)}
    )
    if station_steps[0] < 1 or station_steps[-1] > steps - 1:
        raise ValueError(
            f"{stations} stations at {steps} steps: a station lacks a neighbour inside [0, L]"
        )
    h = workspace.length / steps
    zetas = [(m + d) / steps for m in station_steps for d in (-1, 0, 1)]
    values, _ = _taylor_blocks(workspace, zetas)

    worst = 0.0
    for i, m in enumerate(station_steps):
        (a_prev, b_prev), (a_here, b_here), (a_next, b_next) = (
            _compose_ab(u[0], v[0]) for u, v in values[3 * i:3 * i + 3]
        )
        da = (a_next - a_prev) / (2.0 * h)
        db = (b_next - b_prev) / (2.0 * h)
        ht = workspace.ops.htilde(m * h)
        rhs_a = 0.5 * (ht.conj().T @ np.conj(b_here)) + 0.5 * (b_here @ ht)
        rhs_b = 0.5 * (ht.conj().T @ a_here.T) + 0.5 * (a_here @ np.conj(ht))
        scale = max(np.max(np.abs(rhs_a)), np.max(np.abs(rhs_b)), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(da - rhs_a)) / scale),
            float(np.max(np.abs(db - rhs_b)) / scale),
        )
    return worst


# ---------------------------------------------------------------------------
# thin-crystal matrix functions (independent route to the kernel sums)


def hyperbolic_matrix_uv(kern: FieldKernels, grid: ModeGrid, length: float | None = None):
    """Matrix cosh/sinh of half the depth-integrated kernel magnitude.

    Returns weight-absorbed real symmetric matrices on every mode of the
    grid; their difference of squares is the identity to rounding error.
    """
    return hyperbolic_uv_subblock(kern, grid, np.arange(grid.size), length)


def hyperbolic_uv_subblock(
    kern: FieldKernels, grid: ModeGrid, indices: np.ndarray, length: float | None = None
):
    """cosh/sinh sub-blocks on selected modes of any tensor grid.

    The grid matrix is a Kronecker product of per-axis factors, so its
    eigenvectors and eigenvalues are products of theirs (Van Loan, J.
    Comput. Appl. Math. 123, 85 (2000)); only the requested rows of the
    eigenvector matrix are formed, never the full grid matrix.
    """
    if length is None:
        length = kern.cfg.crystal.length
    # half the depth-integrated magnitude: the omega factor carries L / 2
    mx, my, mw = _magnitude_factors(kern, grid)
    (lx, qx), (ly, qy), (lw, qw) = (np.linalg.eigh(f) for f in (mx, my, 0.5 * length * mw))
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


def oracle_zeta2(kern: FieldKernels, K1, omega1=None, rtol: float = 1e-9):
    """Leading-order idler amplitude by direct depth quadrature.

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
    if omega1 is None:
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
