"""Independent numerical verification: finite differences, Sturm multisection, scattering.

Nothing here reuses the closed-form machinery, so agreement between this
module and the algebraic results is a genuine cross-check.  Defaults: z in
[-12, 12] with 2001 points (every sech-localized state of interest decays
below 1e-10 by |z| = 12), Dirichlet boxes for bound states, eigenvalues
bracketed to 1e-10 by Sturm multisection (63 interior shifts per bracket and
sweep, a 200-sweep cap that raises when exhausted), and fixed-step classical
4th-order integration with h = 1e-3 for scattering.  Operators of one size are
solved as a batch: each sweep counts the shifts of every operator in one row
loop, and each operator leaves the batch when all of its own brackets have
converged, so its eigenvalues do not depend on what else is in the batch.  The
scattering equation is linear, so each RK4 step is a real 2x2 matrix M; the
march is their ordered product, formed chunk by chunk with a pairwise
(log-depth) reduction on four flat arrays that hold the entries of M - I.
Each scattering call evaluates the potential once, on the half-step lattice of
its finer march; the coarser march of the step-halving check reads every other
point of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .potentials import PotentialFamily, potential_values

DEFAULT_Z_MIN = -12.0
DEFAULT_Z_MAX = 12.0
DEFAULT_POINTS = 2001
BISECTION_TOL = 1e-10
BISECTION_MAX_ITER = 200  # multisection sweeps
MULTISECTION_SHIFTS = 63
SCATTER_HALF_WIDTH = 20.0
SCATTER_STEP = 1e-3
FLUX_TOL = 1e-6
STEP_HALVING_TOL = 1e-7
MARCH_CHUNK = 16384  # RK4 steps per batch of step matrices; bounds peak memory


class NumericalError(RuntimeError):
    """A numerical procedure failed its own sanity checks."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [z_min, z_max] with at least 3 points."""

    z_min: float = DEFAULT_Z_MIN
    z_max: float = DEFAULT_Z_MAX
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.points < 3:
            raise ValueError("need at least 3 grid points")
        if not self.z_min < self.z_max:
            raise ValueError("need z_min < z_max")

    @property
    def h(self) -> float:
        return (self.z_max - self.z_min) / (self.points - 1)

    def zs(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.points)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix for -d^2/dz^2 + V with Dirichlet walls."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if e.shape != (d.shape[0] - 1,):
            raise ValueError("off-diagonal must be one shorter than the diagonal")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]


def discretize(fam: PotentialFamily, grid: Grid) -> TridiagonalOperator:
    """Second-order central stencil: diagonal 2/h^2 + V(z_i), off-diagonal -1/h^2."""
    zs = grid.zs()
    v = potential_values(fam, zs)
    inv_h2 = 1.0 / grid.h ** 2
    return TridiagonalOperator(
        diagonal=2.0 * inv_h2 + v,
        off_diagonal=np.full(grid.points - 1, -inv_h2),
    )


def _counts_below(d: np.ndarray, e2: np.ndarray, shifts: np.ndarray,
                  owner: np.ndarray, pivmin: np.ndarray) -> np.ndarray:
    """Sturm counts of eigenvalues strictly below each shift, in one row loop.

    Column k of d (rows x operators) and of e2 (rows - 1 x operators) holds
    the diagonal and the squared off-diagonal of operator k, and pivmin[k] its
    pivot floor; shift j is counted for operator owner[j].  Each row spreads
    one short row of d and e2 over the shifts, so no array of rows x shifts
    is ever formed.
    """
    piv = pivmin.take(owner)
    neg_piv = -piv
    q = d[0].take(owner) - shifts
    q = np.where(np.abs(q) < piv, neg_piv, q)
    counts = (q < 0).astype(np.int64)
    for i in range(1, d.shape[0]):
        q = d[i].take(owner) - shifts - e2[i - 1].take(owner) / q
        q = np.where(np.abs(q) < piv, neg_piv, q)
        counts += q < 0
    return counts


def _stacked(ops: list[TridiagonalOperator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals and squared off-diagonals as columns, and each operator's pivot floor."""
    d = np.stack([op.diagonal for op in ops], axis=1)
    e2 = np.stack([op.off_diagonal * op.off_diagonal for op in ops], axis=1)
    return d, e2, np.maximum(1.0, e2.max(axis=0, initial=0.0)) * 1e-300


def _gershgorin_lower(op: TridiagonalOperator) -> float:
    """Lower bound on every eigenvalue (Gershgorin discs)."""
    pad = np.concatenate(([0.0], np.abs(op.off_diagonal), [0.0]))
    return float(np.min(op.diagonal - pad[:-1] - pad[1:]))


def bound_state_eigenvalues(op: TridiagonalOperator, below: float,
                            max_count: int, tol: float = BISECTION_TOL,
                            max_iter: int = BISECTION_MAX_ITER) -> list[float]:
    """All eigenvalues of one operator below a threshold, ascending.

    The batch of one: bound_state_eigenvalues_batch gives the method, the
    stopping rule and the errors.
    """
    return bound_state_eigenvalues_batch([(op, below, max_count)], tol, max_iter)[0]


def bound_state_eigenvalues_batch(requests: list[tuple[TridiagonalOperator, float, int]],
                                  tol: float = BISECTION_TOL,
                                  max_iter: int = BISECTION_MAX_ITER) -> list[list[float]]:
    """Eigenvalues below a threshold for several operators of one size, by multisection.

    Each request is (operator, below, max_count); the result lists, in request
    order, each operator's ascending eigenvalues below its `below`.  Every
    sweep splits each bracket at MULTISECTION_SHIFTS interior shifts and keeps
    the sub-interval where the Sturm count first reaches the bracket's index
    (Barth, Martin & Wilkinson 1967).  The shifts of every bracket of every
    operator are counted in a single row loop per sweep.  All brackets of an
    operator start as [Gershgorin bound, below], so the first sweep counts
    each operator's shifts once, together with its ceiling, which gives the
    number of brackets.

    An operator's brackets leave the batch together, at the start of the
    first sweep in which none of them is wider than max(tol, two ulps);
    until then all of them keep narrowing.  This is the stopping rule
    of an operator run alone, so each result is the same to the bit whatever
    else is in the batch.  Finding more than max_count eigenvalues for an
    operator, or one still unconverged after max_iter sweeps, raises instead
    of returning an unconverged answer.
    """
    ops = [op for op, _below, _max_count in requests]
    results: list[list[float]] = [[] for _ in ops]
    if not ops:
        return results
    if len({op.size for op in ops}) != 1:
        raise ValueError("the operators of one batch must have the same size")
    d, e2, pivmin = _stacked(ops)
    fractions = np.arange(1, MULTISECTION_SHIFTS + 1) / (MULTISECTION_SHIFTS + 1)
    lower = np.array([_gershgorin_lower(op) for op in ops])
    upper = np.array([float(below) for _op, below, _max_count in requests])
    live = np.flatnonzero(lower < upper)
    if not live.size:
        return results
    lo, hi = lower[live], upper[live]
    # per live operator: its shifts in [lower, upper], then its ceiling
    first_shifts = np.concatenate((lo[:, None] + (hi - lo)[:, None] * fractions,
                                   hi[:, None]), axis=1)
    first_counts = _counts_below(d, e2, first_shifts.ravel(),
                                 np.repeat(live, MULTISECTION_SHIFTS + 1),
                                 pivmin).reshape(live.size, -1)
    totals = first_counts[:, -1]
    for k, total in zip(live.tolist(), totals.tolist()):
        _op, below, max_count = requests[k]
        if total and total > max_count:
            raise NumericalError(
                f"{total} eigenvalues found below {below}, exceeding max_count = {max_count}"
            )

    # the brackets of all operators, flat; owner[b] is bracket b's request
    owner = np.repeat(live, totals)
    if not owner.size:
        return results
    los = np.repeat(lo, totals)
    his = np.repeat(hi, totals)
    wanted = np.concatenate([np.arange(1, total + 1) for total in totals.tolist()])[:, None]
    counts = np.repeat(first_counts[:, :-1], totals, axis=0)
    for sweep in range(max_iter + 1):
        width = his - los
        floor = 2.0 * np.spacing(np.maximum(np.abs(los), np.abs(his)))
        converged = width <= np.maximum(tol, floor)  # False for a NaN width
        unconverged = np.bincount(owner[~converged], minlength=len(ops))
        leaving = unconverged[owner] == 0
        if leaving.any():
            mids = 0.5 * (los + his)
            for k in dict.fromkeys(owner[leaving].tolist()):
                results[k] = mids[owner == k].tolist()
            staying = ~leaving
            owner, los, his, width, wanted, counts = (
                a[staying] for a in (owner, los, his, width, wanted, counts))
            if not owner.size:
                return results
        if sweep == max_iter:
            raise NumericalError(
                f"eigenvalue brackets did not reach {tol:.1e} in {max_iter} multisection "
                f"sweeps; widest is {float(np.max(width[owner == owner[0]])):.3e}"
            )
        # edges[:, j] for j = 0..S+1 run from lo through the S shifts to hi
        edges = np.empty((owner.size, MULTISECTION_SHIFTS + 2))
        edges[:, 0] = los
        edges[:, 1:-1] = los[:, None] + width[:, None] * fractions
        edges[:, -1] = his
        if sweep:  # the first sweep's counts came with the ceilings
            counts = _counts_below(d, e2, edges[:, 1:-1].ravel(),
                                   np.repeat(owner, MULTISECTION_SHIFTS),
                                   pivmin).reshape(owner.size, -1)
        # the count at hi always reaches the index, so argmax finds a True
        reached = np.concatenate((counts >= wanted, np.ones((owner.size, 1), bool)), axis=1)
        first = np.argmax(reached, axis=1)
        rows = np.arange(owner.size)
        los = edges[rows, first]
        his = edges[rows, first + 1]


@dataclass(frozen=True)
class ScatteringResult:
    """|R|^2, |T|^2 and the flux defect 1 - (|R|^2 + |T|^2) for one energy.

    The values are those of the fine march, at step `step`.  The diagnostics
    are step_halving_drift = | |R|^2 at that step - |R|^2 at twice that step |
    and rk4_steps, the step counts (coarse, fine) of the two marches.
    """

    k: float
    r2: float
    t2: float
    flux_defect: float
    half_width: float
    step: float
    step_halving_drift: float
    rk4_steps: tuple[int, int]


def _rk4_step_deltas(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray,
                     s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The entries (D00, D01, D10, D11) of D_j = M_j - I, one flat array each,
    where (psi, psi')_{j+1} = M_j (psi, psi')_j is one RK4 step.

    For y' = A(z) y with A = [[0, 1], [v, 0]], the four classical stages
    compose to M = I + s/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A0,
    K2 = A1 (I + s/2 K1), K3 = A1 (I + s/2 K2), K4 = A2 (I + s K3); v0, v1,
    v2 are V - E at the start, middle and end of each step.  Storing M - I
    keeps the O(s^2) diagonal entries at full precision: rounding 1 + O(s^2)
    would repeat the same error at every step of a constant tail.
    """
    s2 = s * s
    return (s2 * (v0 + 2.0 * v1) / 6.0 + s2 * s2 * v0 * v1 / 24.0,
            s + s * s2 * v1 / 6.0,
            s * (v0 + 4.0 * v1 + v2) / 6.0 + s * s2 * v1 * (v0 + v2) / 12.0,
            s2 * (2.0 * v1 + v2) / 6.0 + s2 * s2 * v1 * v2 / 24.0)


def _ordered_product_delta(d00: np.ndarray, d01: np.ndarray, d10: np.ndarray,
                           d11: np.ndarray) -> tuple[float, float, float, float]:
    """(I + D_{n-1}) ... (I + D_1) (I + D_0) - I, by pairwise reduction.

    D_j has the entries d00[j], d01[j], d10[j], d11[j].  Each level merges
    neighbours as (I + b)(I + a) - I = a + b + b a, written out per entry on
    the four flat arrays, and carries an odd last matrix up unchanged, so the
    depth is log2(n) and the result stays in difference form.
    """
    while d00.shape[0] > 1:
        n = d00.shape[0]
        a00, a01, a10, a11 = d00[0:n - 1:2], d01[0:n - 1:2], d10[0:n - 1:2], d11[0:n - 1:2]
        b00, b01, b10, b11 = d00[1::2], d01[1::2], d10[1::2], d11[1::2]
        merged = (a00 + b00 + (b00 * a00 + b01 * a10),
                  a01 + b01 + (b00 * a01 + b01 * a11),
                  a10 + b10 + (b10 * a00 + b11 * a10),
                  a11 + b11 + (b10 * a01 + b11 * a11))
        if n % 2:
            merged = tuple(np.concatenate((m, d[-1:])) for m, d in
                           zip(merged, (d00, d01, d10, d11)))
        d00, d01, d10, d11 = merged
    return d00.item(), d01.item(), d10.item(), d11.item()


def _integrate_scattering(v_shift: np.ndarray, k: float,
                          half_width: float) -> tuple[complex, complex]:
    """March psi'' = (V - E) psi from +L to -L, transmitted plane wave as seed.

    v_shift holds V - E on the half-step lattice of the march, 2 n + 1 points
    running from z = L down to z = -L, so the march takes n steps of
    s = -2L/n.  Classical fixed-step 4th-order scheme.  The equation is
    linear, so the march is the ordered product of the real RK4 step
    matrices, taken MARCH_CHUNK steps at a time and folded into a running
    2x2 product.  Returns (A, B), the incident and reflected amplitudes for
    unit transmission.
    """
    n_steps = (v_shift.shape[0] - 1) // 2
    s = -2.0 * half_width / n_steps
    # the running product, as Python floats, so results and the records
    # built from them hold floats and bools rather than numpy scalars
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    for start in range(0, n_steps, MARCH_CHUNK):
        stop = min(start + MARCH_CHUNK, n_steps)
        q00, q01, q10, q11 = _ordered_product_delta(*_rk4_step_deltas(
            v_shift[2 * start:2 * stop:2], v_shift[2 * start + 1:2 * stop:2],
            v_shift[2 * start + 2:2 * stop + 1:2], s))
        p00, p01, p10, p11 = (p00 + (q00 * p00 + q01 * p10), p01 + (q00 * p01 + q01 * p11),
                              p10 + (q10 * p00 + q11 * p10), p11 + (q10 * p01 + q11 * p11))
    phase = cmath.exp(1j * k * half_width)
    dphase = 1j * k * phase  # the transmitted wave e^{ikz} and its slope at z = L
    psi = p00 * phase + p01 * dphase
    dpsi = p10 * phase + p11 * dphase
    a = 0.5 * (psi + dpsi / (1j * k)) * phase
    b = 0.5 * (psi - dpsi / (1j * k)) / phase
    return a, b


def scattering_amplitudes(fam: PotentialFamily, k: float,
                          half_width: float = SCATTER_HALF_WIDTH,
                          step: float = SCATTER_STEP) -> ScatteringResult:
    """Reflection/transmission probabilities at wavenumber k above the asymptote.

    The incident energy is E = k^2 + V_inf.  V - E is evaluated once, on the
    half-step lattice of the fine march (step h/2); the coarse march (step h)
    reads every other point of it.  Unequal asymptotes, or a V that has not
    decayed to within 1e-10 of V_inf at the lattice's end points +-L, raise
    NumericalError before the march.  Two built-in sanity checks guard the
    integration: flux conservation |R|^2 + |T|^2 = 1 within 1e-6, and
    agreement of |R|^2 between step h and h/2 within 1e-7.  Violations raise
    NumericalError with diagnostics; a k, half width or step that is not
    positive and finite raises ValueError.
    """
    k, half_width, step = float(k), float(half_width), float(step)
    for name, value in (("wavenumber", k), ("half width", half_width), ("step", step)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    v_inf, right = fam.asymptotes
    if v_inf != right:
        raise NumericalError(
            "scattering runs are restricted to symmetric tails; "
            f"{fam!r} has unequal asymptotes {v_inf} and {right}"
        )
    energy = k * k + v_inf

    def probabilities(v_shift: np.ndarray) -> tuple[float, float]:
        a, b = _integrate_scattering(v_shift, k, half_width)
        try:
            a2 = abs(a) ** 2
            b2 = abs(b) ** 2
        except OverflowError:
            a2 = b2 = math.inf
        if not (0.0 < a2 < math.inf and b2 < math.inf):
            raise NumericalError(
                f"|A|^2 and |B|^2 are not finite doubles at k = {k!r}: "
                f"|A| = {abs(a):.3e}, |B| = {abs(b):.3e}"
            )
        return b2 / a2, 1.0 / a2

    n_steps = max(2, int(round(2.0 * half_width / step)))
    h = 2.0 * half_width / n_steps
    # linspace ends exactly at +-L, so its end points are the tails to check
    v_fine = potential_values(fam, np.linspace(half_width, -half_width, 4 * n_steps + 1))
    defect = float(np.max(np.abs(v_fine[[0, -1]] - v_inf)))
    if not (defect <= 1e-10):
        raise NumericalError(
            f"potential has not decayed at |z| = {half_width}: |V - V_inf| = {defect:.3e}; "
            "increase the half width"
        )
    v_fine -= energy
    r2_coarse = probabilities(v_fine[::2])[0]
    r2, t2 = probabilities(v_fine)
    drift = abs(r2 - r2_coarse)
    if not (drift <= STEP_HALVING_TOL):
        raise NumericalError(
            f"step-halving check failed: |R|^2 moved by {drift:.3e} "
            f"between h = {h:.2e} and h = {0.5 * h:.2e}"
        )
    flux_defect = 1.0 - (r2 + t2)
    if not (abs(flux_defect) <= FLUX_TOL):
        raise NumericalError(
            f"flux conservation violated: 1 - (|R|^2 + |T|^2) = {flux_defect:.3e}"
        )
    return ScatteringResult(k=k, r2=r2, t2=t2, flux_defect=flux_defect,
                            half_width=half_width, step=0.5 * h,
                            step_halving_drift=drift, rk4_steps=(n_steps, 2 * n_steps))


def sech_well_reflection_exact(l: float, k: float) -> float:
    """Closed-form |R|^2 = sin^2(pi l)/(sinh^2(pi k) + sin^2(pi l)) for the sech well.

    Classical scattering result for V = -l(l+1) sech^2 z; used as an
    independent cross-check of the integrator (zero exactly at integer l).
    """
    s = math.sin(math.pi * l) ** 2
    return s / (math.sinh(math.pi * k) ** 2 + s)
