"""Independent numerical verification: finite differences, Sturm multisection, scattering.

Nothing here reuses the closed-form levels, energies or waves, so agreement
between this module and the algebraic results is a genuine cross-check: a
potential enters only as its exact polynomial P in t = tanh z (a TanhPoly,
such as a partner W^2 -+ W'), and V(z) = P(tanh z) is evaluated by
potentials.potential_values.  Defaults: z in [-12, 12] with 2001 points
(every sech-localized state of interest decays below 1e-10 by |z| = 12),
Dirichlet boxes for bound states, eigenvalues bracketed to 1e-10 by Sturm
multisection (each sweep splits a bracket into 64 sub-intervals at 63
interior shifts, a 200-sweep cap that raises when exhausted), and fixed-step
classical 4th-order integration with h = 1e-3 for scattering.  Operators of
one size are solved as a batch: each sweep counts the shifts of every
operator in one row loop, or in two while at least TWO_STAGE_BRACKETS
brackets are live (7 shifts per bracket each: every eighth edge, then the 7
inside the eighth that holds the level), and each operator leaves the batch
when all of its own brackets have converged, so its eigenvalues do not
depend on what else is in the batch.  The row loop takes the rows in blocks,
gathers each block's coefficients once per bracket into contiguous arrays,
and checks the pivot floor once per block; it redoes a block row by row with
the floor only where the floor would have fired, so the pivots are those of
the plain row-by-row recurrence bit for bit.  The
scattering equation is linear, so each RK4 step is a real 2x2 matrix M; the
march is their ordered product, kept in difference form M - I.  Scattering
takes even wells only, V(-z) = V(z), and marches only from +L to 0: an RK4
step taken backwards is the adjugate of the forward step, bit for bit, so the
march from 0 to -L is P adj(R) P with R the march from +L to 0 and
P = diag(1, -1), which is R with its diagonal entries swapped.  One loop
streams the half-step lattice of the finer march from +L to 0 in blocks of
MARCH_BLOCK steps: a block evaluates V once on its new points (the same
doubles as np.linspace), scales u = s^2 (V - E) in place, and forms the step
deltas of both marches from u, the coarser march of the step-halving check
reading every other point.  The two marches' deltas are reduced together by
one pairwise (log-depth) product over a stacked 2 x 2 x march x step array
and folded into running 2x2 products, so the work grows with the lattice and
the memory only with the block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .potentials import TanhPoly, potential_values

BISECTION_TOL = 1e-10
BISECTION_MAX_ITER = 200  # multisection sweeps
STAGE = 8  # a two-stage sweep counts every 8th of the 65 edges, then the 7 inside one eighth
# interior shifts of a sweep: STAGE ** 2 sub-intervals, so that two stages of
# STAGE - 1 shifts each pick the same one as a full scan
MULTISECTION_SHIFTS = STAGE * STAGE - 1
# the fewest live brackets for which a sweep counts in two stages: solving one
# sech well of 2001 points, two stages took 1.59x the time of one pass with 1
# bracket and 1.06x with 5, broke even with 6 (0.98x) and won from 7 (0.86x)
# to 21 (0.50x); 20001 points gave the same crossover (BENCH_sturm_two_stage.json)
TWO_STAGE_BRACKETS = 6
SCATTER_HALF_WIDTH = 20.0
SCATTER_STEP = 1e-3
FLUX_TOL = 1e-6
STEP_HALVING_TOL = 1e-7
MARCH_BLOCK = 16384  # fine RK4 steps per block of the scattering march (even)
COUNT_BLOCK = 16384  # Sturm pivots per block of rows; bounds the block arrays (128 KB each)


class NumericalError(RuntimeError):
    """A numerical procedure failed its own sanity checks."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [z_min, z_max] with at least 3 points and a finite width."""

    z_min: float
    z_max: float
    points: int

    def __post_init__(self):
        if self.points < 3:
            raise ValueError("need at least 3 grid points")
        # NaN or infinite bounds, and a width past the double range, fail here too
        if not 0.0 < self.z_max - self.z_min < math.inf:
            raise ValueError(f"need finite z_min < z_max with a finite width, "
                             f"got [{self.z_min}, {self.z_max}]")

    @property
    def h(self) -> float:
        return (self.z_max - self.z_min) / (self.points - 1)

    @property
    def h2(self) -> float:
        """h^2; a spacing whose square is past the double range raises NumericalError."""
        h2 = self.h * self.h
        if h2 == math.inf:
            raise NumericalError(f"grid spacing h = {self.h:.3e} puts h^2 past the double range")
        return h2

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


def discretize(v: TanhPoly, grid: Grid) -> TridiagonalOperator:
    """Central stencil of V(z) = v(tanh z): diagonal 2/h^2 + V(z_i), off-diagonal -1/h^2.

    A spacing so fine that 1/h^2, or so coarse that h^2, is not a finite
    double raises NumericalError.
    """
    h2 = grid.h2
    inv_h2 = 1.0 / h2 if h2 else math.inf
    if inv_h2 == math.inf:
        raise NumericalError(f"grid spacing h = {grid.h:.3e} puts 1/h^2 past the double range")
    return TridiagonalOperator(
        diagonal=2.0 * inv_h2 + potential_values(v, grid.zs()),
        off_diagonal=np.full(grid.points - 1, -inv_h2),
    )


def _counts_below(d: np.ndarray, e2: np.ndarray, shifts: np.ndarray,
                  owner: np.ndarray, pivmin: np.ndarray) -> np.ndarray:
    """Sturm counts of eigenvalues strictly below each shift, in one row loop.

    Column k of d (rows x operators) and of e2 (rows - 1 x operators) holds
    the diagonal and the squared off-diagonal of operator k, and pivmin[k] its
    pivot floor.  shifts is groups x width (one group per bracket, say), every
    shift of group g is counted for operator owner[g], and the counts come
    back in the shape of shifts.  Row i sets each pivot to
    q_i = (d_i - s) - e2_{i-1} / q_{i-1}, in that order of evaluation, and the
    pivot floor turns a q_i with |q_i| < pivmin into -pivmin.

    Rows run in blocks of COUNT_BLOCK // shifts.size rows (at least one).  A
    block gathers its rows of d and e2 once per group, not once per shift,
    into contiguous block x groups x width arrays (d - s, and e2 repeated
    across the width, so that each row's divide reads no stride-0 operand),
    then costs two numpy calls per row.  Row 0 reads e2 = 0 against an entry
    pivot of inf, and 0 / inf = 0 leaves d_0 - s as it is.

    The floor is checked once per block: the block runs without it, and if
    every |q| in it is at least the largest floor, the floor would have
    changed no pivot, so these are the floored pivots bit for bit.  If not,
    and also if the block holds a NaN, the block runs again from its entry
    pivots with the floor applied row by row.  Either way every pivot, and so
    every count, is that of the floored recurrence run one row at a time.
    """
    rows = d.shape[0]
    piv = pivmin.take(owner)[:, None]
    neg_piv, piv_max = -piv, piv.max()
    e2 = np.concatenate((np.zeros((1, e2.shape[1])), e2))  # row 0 reads 0 / inf = 0
    step = max(1, COUNT_BLOCK // shifts.size)
    qs, a_buf, c_buf = np.empty((3, min(step, rows), *shifts.shape))
    tmp = np.empty(shifts.shape)
    entry = np.full(shifts.shape, np.inf)
    counts = np.zeros(shifts.shape, np.int64)
    for b0 in range(0, rows, step):
        b1 = min(b0 + step, rows)
        a = np.subtract(d[b0:b1].take(owner, axis=1)[:, :, None], shifts, out=a_buf[:b1 - b0])
        c = c_buf[:b1 - b0]
        c[...] = e2[b0:b1].take(owner, axis=1)[:, :, None]
        block = qs[:b1 - b0]
        for guarded in (False, True):
            # a pass without the floor may divide by a zero pivot, and is then
            # redone: its warnings are not the recurrence's
            quiet = None if guarded else "ignore"
            with np.errstate(divide=quiet, over=quiet, invalid=quiet):
                q = entry
                for a_i, c_i, q_i in zip(a, c, block):
                    np.divide(c_i, q, out=tmp)
                    q = np.subtract(a_i, tmp, out=q_i)
                    if guarded:
                        np.copyto(q, neg_piv, where=np.abs(q) < piv)
            if guarded or np.abs(block).min() >= piv_max:
                break
        counts += (block < 0).sum(axis=0)
        entry[...] = block[-1]
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
                            max_count: int) -> list[float]:
    """All eigenvalues of one operator below a threshold, ascending.

    The batch of one: bound_state_eigenvalues_batch gives the method, the
    stopping rule and the errors.
    """
    return bound_state_eigenvalues_batch([(op, below, max_count)])[0]


def bound_state_eigenvalues_batch(requests: list[tuple[TridiagonalOperator, float, int]]
                                  ) -> list[list[float]]:
    """Eigenvalues below a threshold for several operators of one size, by multisection.

    Each request is (operator, below, max_count); the result lists, in request
    order, each operator's ascending eigenvalues below its `below`.  Every
    sweep splits each bracket [lo, hi] at MULTISECTION_SHIFTS = 63 interior
    shifts into 64 sub-intervals and keeps the first one whose upper edge's
    Sturm count reaches the bracket's index (Barth, Martin & Wilkinson 1967).
    All brackets of an operator start as [Gershgorin bound, below], so the
    first sweep counts each operator's 63 shifts once, together with its
    ceiling, which gives the number of brackets.

    A later sweep with fewer than TWO_STAGE_BRACKETS live brackets counts all
    63 shifts of every bracket in one row loop.  With more, it counts in two
    row loops of 7 shifts per bracket: the edges j = 8, 16, ..., 56, which
    pick the first eighth whose upper edge reaches the index, then the 7
    edges inside that eighth.  Either way, a bracket with
    count(lo) < index <= count(hi) keeps a sub-interval that has it too,
    since each kept edge was counted.  The two-stage pick is the sub-interval
    of the full scan wherever the computed count does not decrease along the
    edges, which holds for this recurrence with the pivot floor under IEEE
    round-to-nearest (Kahan 1966; Demmel, Dhillon & Ren 1995, ETNA 3, 116),
    so the eigenvalues are the same to the bit.  The edges themselves are
    lo + width * (j / 64) for j = 1..63, with lo and hi, in both cases.

    An operator's brackets leave the batch together, at the start of the
    first sweep in which none of them is wider than max(BISECTION_TOL, two
    ulps); until then all of them keep narrowing.  This is the stopping rule
    of an operator run alone, so each result is the same to the bit whatever
    else is in the batch.  Finding more than max_count eigenvalues for an
    operator, or one still unconverged after BISECTION_MAX_ITER sweeps,
    raises instead of returning an unconverged answer.
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
    first_counts = _counts_below(d, e2, first_shifts, live, pivmin)
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
    for sweep in range(BISECTION_MAX_ITER + 1):
        width = his - los
        floor = 2.0 * np.spacing(np.maximum(np.abs(los), np.abs(his)))
        converged = width <= np.maximum(BISECTION_TOL, floor)  # False for a NaN width
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
        if sweep == BISECTION_MAX_ITER:
            raise NumericalError(
                f"eigenvalue brackets did not reach {BISECTION_TOL:.1e} in {BISECTION_MAX_ITER} "
                f"multisection sweeps; widest is {float(np.max(width[owner == owner[0]])):.3e}"
            )
        # edges[:, j] for j = 0..S+1 run from lo through the S shifts to hi
        edges = np.empty((owner.size, MULTISECTION_SHIFTS + 2))
        edges[:, 0] = los
        edges[:, 1:-1] = los[:, None] + width[:, None] * fractions
        edges[:, -1] = his
        # the first sweep's counts came with the ceilings
        upper = (_upper_edges(d, e2, edges, owner, pivmin, wanted) if sweep
                 else 1 + _first_reaching(counts, wanted))
        rows = np.arange(owner.size)
        los = edges[rows, upper - 1]
        his = edges[rows, upper]


def _first_reaching(counts: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Per row, the first column whose count reaches `wanted`, or counts.shape[1]
    if none does: the edge above the last column always reaches."""
    reached = counts >= wanted
    return np.where(reached.any(axis=1), reached.argmax(axis=1), counts.shape[1])


def _upper_edges(d: np.ndarray, e2: np.ndarray, edges: np.ndarray, owner: np.ndarray,
                 pivmin: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Per bracket b (a row of edges, lo to hi), the first edge j in 1..64 whose
    Sturm count reaches wanted[b], the count at hi being taken to reach.

    Fewer than TWO_STAGE_BRACKETS brackets count their 63 interior edges in
    one _counts_below call.  More count in two calls of 7 shifts each: the
    edges j = 8, 16, ..., 56 give the first eighth whose upper edge reaches,
    and the 7 edges inside that eighth give j.
    """
    if owner.size < TWO_STAGE_BRACKETS:
        return 1 + _first_reaching(_counts_below(d, e2, edges[:, 1:-1], owner, pivmin), wanted)
    coarse = _counts_below(d, e2, edges[:, STAGE:-1:STAGE], owner, pivmin)
    base = STAGE * _first_reaching(coarse, wanted)
    inner = edges[np.arange(owner.size)[:, None], base[:, None] + np.arange(1, STAGE)]
    return base + 1 + _first_reaching(_counts_below(d, e2, inner, owner, pivmin), wanted)


@dataclass(frozen=True)
class ScatteringResult:
    """|R|^2, |T|^2 and the flux defect 1 - (|R|^2 + |T|^2) for one energy.

    The values are those of the fine march, at step `step`.  The diagnostics
    are step_halving_drift = | |R|^2 at that step - |R|^2 at twice that step |
    and rk4_steps, the step counts (coarse, fine) of the two marches.
    """

    r2: float
    t2: float
    flux_defect: float
    half_width: float
    step: float
    step_halving_drift: float
    rk4_steps: tuple[int, int]


def _rk4_step_deltas(u0: np.ndarray, u1: np.ndarray, u2: np.ndarray, s: float,
                     out: np.ndarray) -> np.ndarray:
    """Write D_j = M_j - I into out[:, :, j] (out is 2 x 2 x steps) and return out,
    where (psi, psi')_{j+1} = M_j (psi, psi')_j is one RK4 step of size s.

    For y' = A(z) y with A = [[0, 1], [v, 0]], the four classical stages
    compose to M = I + s/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A0,
    K2 = A1 (I + s/2 K1), K3 = A1 (I + s/2 K2), K4 = A2 (I + s K3).  u0, u1,
    u2 are u = s^2 (V - E) at the start, middle and end of each step, and with
    w = 1/6 + u1/24 the composition reads
        D00 = u0 w + u1/3,   D11 = u2 w + u1/3,   D01 = s (1 + u1/6),
        D10 = [(u0 + u2)(1/6 + u1/12) + 2 u1/3] / s.
    Storing M - I keeps the O(s^2) diagonal entries at full precision:
    rounding 1 + O(s^2) would repeat the same error at every step of a
    constant tail.
    """
    w = u1 * (1.0 / 24.0)
    w += 1.0 / 6.0
    third = u1 * (1.0 / 3.0)
    np.multiply(u0, w, out=out[0, 0])
    out[0, 0] += third
    np.multiply(u2, w, out=out[1, 1])
    out[1, 1] += third
    np.multiply(u1, s / 6.0, out=out[0, 1])
    out[0, 1] += s
    np.multiply(u1, 1.0 / 12.0, out=w)
    w += 1.0 / 6.0
    d10 = np.add(u0, u2, out=out[1, 0])
    d10 *= w
    third *= 2.0
    d10 += third
    d10 /= s
    return out


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + b)(I + a) - I = a + b + b a for stacks of 2 x 2 deltas (2 x 2 x ...).

    b a is the batched product einsum("ij...,jk...->ik...", b, a), formed as
    two broadcast products so that each numpy call covers all four entries.
    """
    ba = b[:, :1] * a[:1]
    ba += b[:, 1:] * a[1:]
    c = a + b
    c += ba
    return c


def _ordered_product_delta(d: np.ndarray) -> np.ndarray:
    """(I + D_{n-1}) ... (I + D_1) (I + D_0) - I with D_j = d[..., j], pairwise.

    d is 2 x 2 x ... x n: the first two axes are the matrix entries, the last
    runs over the steps, and any axes between them are columns, each reduced
    on its own.  Each level merges neighbours with _merge and carries an odd
    last matrix up unchanged, so the depth is log2(n) and the result, of
    shape d.shape[:-1], stays in difference form.
    """
    while (n := d.shape[-1]) > 1:
        c = _merge(d[..., 0:n - 1:2], d[..., 1::2])
        d = np.concatenate((c, d[..., -1:]), axis=-1) if n % 2 else c
    return d[..., 0]


def _march(v: TanhPoly, energy: float, half_width: float, n_steps: int) -> np.ndarray:
    """Product deltas of both RK4 marches from z = L down to z = -L, for the
    even potential V(z) = v(tanh z).

    The coarse march takes n_steps steps of s_c = -2L/n_steps and the fine
    march 2 n_steps steps of s_f = s_c / 2 (exactly).  Only the half from L
    to 0 is marched; the other half is its mirror image.  The step from u2
    back to u0, of size -s, is the adjugate of the step M from u0 to u2, bit
    for bit (_rk4_step_deltas' formulas), and z -> -z maps an even V onto
    itself and (psi, psi') onto P (psi, psi'), P = diag(1, -1).  So if R is
    the product over L..0, the march over 0..-L is P adj(R) P, which for a
    2x2 matrix is R with its diagonal entries swapped, R~, and the full
    march is R~ R.  scattering_amplitudes refuses a v that is not even.

    The half runs on the fine march's half-step lattice,
    np.linspace(L, -L, 4 n_steps + 1)[:2 n_steps + 1], taken MARCH_BLOCK fine
    steps at a time.  A block evaluates V on its new lattice points in one
    potential_values call, with linspace's own formula j dz + L and the last
    point set to 0.0, so every V is that of the linspace lattice bit for bit;
    it carries the point it shares with the next block.  It scales once,
    u = s_f^2 (V - E) in place, and the coarse march reads 4 u on every
    other point, which is s_c^2 (V - E) exactly.  The fine step deltas are
    merged in pairs, stacked beside the coarse ones, and both marches are
    reduced together by _ordered_product_delta, then folded into running
    products.

    For an odd n_steps the middle coarse step straddles 0.  The last block
    then appends the mirror images of its two points before 0, u(-z) = u(z),
    and marches one fine step past 0, so that its last stacked pair holds
    the middle coarse step and the two fine steps around 0.  That centre C
    is its own mirror, and the march is R~ C R with R the product before it.

    The potential must have decayed to within 1e-10 of its tail v(1) at
    z = +-L.  V(-L) is evaluated on its own and V(L) is the first lattice
    point; both are checked before the first block is marched.  Returns the
    product deltas as a 2 x 2 x 2 array, [i, j, march] with march 0 the
    coarse and 1 the fine.
    """
    v_inf = float(v(1))
    steps = 2 * n_steps
    s = -2.0 * half_width / steps
    dz = -2.0 * half_width / (2 * steps)  # linspace's (stop - start) / (points - 1)
    # even, so the last block of an odd march has room for its step past 0
    block = min(MARCH_BLOCK, n_steps + n_steps % 2)
    # the call's buffers are views of one allocation: measured with getrusage,
    # separate buffers cost about 670 minor page faults per default call, one
    # allocation about none
    work = np.empty(14 * block + 3)
    index, lattice, zs = work[:6 * block + 3].reshape(3, 2 * block + 1)
    index[:] = np.arange(2 * block + 1)
    fine = work[6 * block + 3:10 * block + 3].reshape(2, 2, block)
    pairs = work[10 * block + 3:].reshape(2, 2, 2, block // 2)
    total = np.zeros((2, 2, 2))
    centre = None
    v_far = potential_values(v, np.array([-half_width]))[0]
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        first = 2 * start + (start > 0)  # the block's first new lattice point
        new_points = 2 * stop + 1 - first
        z = np.add(index[:new_points], first, out=zs[:new_points])
        z *= dz
        z += half_width
        if stop == n_steps:
            z[-1] = 0.0
        vz = potential_values(v, z)
        if start == 0:
            defect = float(np.max(np.abs(np.subtract((vz[0], v_far), v_inf))))
            if not (defect <= 1e-10):
                raise NumericalError(
                    f"potential has not decayed at |z| = {half_width}: "
                    f"|V - V_inf| = {defect:.3e}; increase the half width"
                )
        m = stop - start
        u = lattice[:2 * m + 1]
        if start:
            u[0] = lattice[-1]  # the previous block, always a full one, ended there
        new = u[1:] if start else u
        np.subtract(vz, energy, out=new)
        new *= s * s
        centred = m % 2  # only the last block of an odd march
        if centred:
            u = lattice[:2 * m + 3]
            u[-2], u[-1] = u[-4], u[-5]  # mirrored about the last point, z = 0
            m += 1
        d = _rk4_step_deltas(u[0:-1:2], u[1::2], u[2::2], s, fine[..., :m])
        p = pairs[..., :m // 2]
        p[:, :, 1] = _merge(d[..., 0::2], d[..., 1::2])
        uc = u[::2] * 4.0
        _rk4_step_deltas(uc[0:-1:2], uc[1::2], uc[2::2], 2.0 * s, p[:, :, 0])
        if centred:
            centre, p = p[..., -1], p[..., :-1]
        if p.shape[-1]:
            total = _merge(total, _ordered_product_delta(p))
    mirror = total.copy()
    mirror[0, 0], mirror[1, 1] = total[1, 1], total[0, 0]
    if centre is not None:
        total = _merge(total, centre)
    return _merge(total, mirror)


def _amplitudes(p: list[list[float]], k: float, half_width: float) -> tuple[complex, complex]:
    """(A, B), the incident and reflected amplitudes for unit transmission,
    from the product delta p of a march seeded at z = L with the transmitted
    plane wave e^{ikz}.  A phase k L past the double range raises NumericalError."""
    (p00, p01), (p10, p11) = p
    kl = k * half_width
    if not math.isfinite(kl):
        raise NumericalError(f"the phase k L = {k!r} * {half_width!r} is past the double range")
    phase = cmath.exp(1j * kl)
    dphase = 1j * k * phase  # the transmitted wave and its slope at z = L
    psi = (1.0 + p00) * phase + p01 * dphase
    dpsi = p10 * phase + (1.0 + p11) * dphase
    a = 0.5 * (psi + dpsi / (1j * k)) * phase
    b = 0.5 * (psi - dpsi / (1j * k)) / phase
    return a, b


def require_positive_finite(values: dict[str, float]) -> None:
    """Raise ValueError naming the first of the named values that is not
    positive and finite: scattering's rule for its k, half width and step."""
    for name, value in values.items():
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def scattering_amplitudes(v: TanhPoly, k: float,
                          half_width: float = SCATTER_HALF_WIDTH,
                          step: float = SCATTER_STEP) -> ScatteringResult:
    """Reflection/transmission probabilities at wavenumber k above the tail.

    For V(z) = v(tanh z) the incident energy is E = k^2 + V_inf, V_inf = v(1).
    psi'' = (V - E) psi is marched from +L to -L with the transmitted plane
    wave as seed, by classical fixed-step RK4 at step h and at h/2 (_march,
    which marches +L to 0 and mirrors it).  A well that is not even (v changes
    under t -> -t, which unequal tails v(-1) != v(1) always do), or a V that
    has not decayed to within 1e-10 of V_inf at +-L, raises
    NumericalError before anything is marched.  Two built-in sanity checks
    guard the integration: flux conservation |R|^2 + |T|^2 = 1 within 1e-6,
    and agreement of |R|^2 between step h and h/2 within 1e-7.  Violations
    raise NumericalError with diagnostics; a k, half width or step that is
    not positive and finite raises ValueError.
    """
    k, half_width, step = float(k), float(half_width), float(step)
    require_positive_finite({"wavenumber": k, "half width": half_width, "step": step})
    v_inf = float(v(1))
    if v.reflected() != v:
        raise NumericalError(
            f"scattering runs are restricted to even wells; V = P(tanh z) with "
            f"P = {v!r} has V(-z) != V(z) (asymptotes {float(v(-1))} and {v_inf})")

    def probabilities(p: list[list[float]]) -> tuple[float, float]:
        a, b = _amplitudes(p, k, half_width)
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
    # Python floats, so results and the records built from them hold floats
    coarse, fine = np.moveaxis(_march(v, k * k + v_inf, half_width, n_steps), -1, 0).tolist()
    r2_coarse = probabilities(coarse)[0]
    r2, t2 = probabilities(fine)
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
    return ScatteringResult(r2=r2, t2=t2, flux_defect=flux_defect,
                            half_width=half_width, step=0.5 * h,
                            step_halving_drift=drift, rk4_steps=(n_steps, 2 * n_steps))


def sech_well_reflection_exact(l: float, k: float) -> float:
    """Closed-form |R|^2 = sin^2(pi l)/(sinh^2(pi k) + sin^2(pi l)) for the sech well.

    Classical scattering result for V = -l(l+1) sech^2 z; used as an
    independent cross-check of the integrator (zero exactly at integer l).
    At l = 0, where sin^2(pi l) is exactly 0, it returns 0.0 without the
    division, which would be 0/0 once sinh^2(pi k) underflows.  Past k ~ 113,
    where sinh^2(pi k) = (1 - x)^2 / 4x with x = e^{-2 pi k} overflows, it
    takes the same ratio in x.
    """
    s = math.sin(math.pi * l) ** 2
    if s == 0.0:
        return 0.0
    try:
        return s / (math.sinh(math.pi * k) ** 2 + s)
    except OverflowError:
        x = math.exp(-2.0 * math.pi * k)
        return 4.0 * s * x / ((1.0 - x) ** 2 + 4.0 * s * x)
