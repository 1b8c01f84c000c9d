"""Vectorized batch solving of the bandwidth-wall equation.

The hot loop behind every sweep grid, experiment id and ``/v1/sweep``
request is :meth:`repro.core.scaling.BandwidthWallModel.supportable_cores`
— one guarded bisection per grid point.  This module solves whole grids
at once with numpy while keeping the results **byte-identical** to the
scalar path, which is what lets the golden harness, the jobs subsystem's
checkpoint identity guarantees and the response cache keep working
unchanged on top of it.

How the equation vectorizes
---------------------------
For a technique stack the effective cache pool is *affine* in the core
count: ``S_eff(P) = cf * (d*(N - f*P) + L*sd*N) = K - q*P`` with
``K = cf*N*(d + L*sd)`` and ``q = cf*d*f``.  The governing equation
(Equation 7 generalised to all techniques) is therefore

.. math::  (P/P_1) \\cdot \\big((K - qP)/(P S_1)\\big)^{-\\alpha} = B t

For the paper's default :math:`\\alpha = 1/2` (and any other
small-denominator rational alpha) raising both sides to the denominator
turns this into a **low-degree polynomial** — a depressed cubic for
:math:`\\alpha = 1/2` — with exactly one root in the feasible interval,
solvable in closed form for the whole grid at once.  Non-polynomial
alphas fall back to a vectorized safeguarded Newton iteration on the
log form.  Both are selected automatically per batch.

Why a "replay" pass instead of returning the analytic root
----------------------------------------------------------
Two floating-point facts force the final answer to come from replaying
the scalar bisection rather than from the polynomial root directly:

1. the scalar solver returns the midpoint of a ``tol``-wide bisection
   bracket, not the correctly-rounded root, so an analytically better
   answer would *differ* from the goldens by ~1e-13; and
2. numpy's SIMD ``**`` for float64 deviates from CPython's libm ``pow``
   by 1 ulp on a few percent of inputs, so even a numpy re-run of the
   exact bisection arithmetic is not bit-reproducible.

The batch kernel therefore uses the analytic root only as an
*estimate*: the bisection trajectory of the scalar solver is a fixed
dyadic subdivision of ``[lo, hi]`` whose branch decisions compare
``traffic(mid)`` against the budget, and every decision whose midpoint
lies further than a safety margin from the estimated root is decided
positionally with no function evaluation at all.  Only the handful of
midpoints inside the margin (the margin is orders of magnitude wider
than the estimate's error) are evaluated with *scalar* CPython
arithmetic — the identical sequence of float operations the scalar
solver performs — so every branch decision, and hence the returned
bit pattern, matches the scalar path exactly.  Grid points whose
bracket guards fail (area-limited designs, unsolvably tiny budgets)
are delegated to the scalar solve so ``BracketError`` semantics and
messages stay identical too.

``REPRO_VECTORIZED=off`` degrades every entry point to the scalar
loop, the reference the differential suite compares against;
``REPRO_VECTORIZED=force`` routes even single solves through the batch
kernel, which is how that suite proves equivalence across every golden
experiment id.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as _np

if TYPE_CHECKING:  # import cycle guard (typing only)
    from .scaling import BandwidthWallModel, ScalingSolution
    from .techniques import TechniqueEffect

__all__ = [
    "configure",
    "mode",
    "use_batch",
    "solve_batch",
    "MIN_BATCH_SIZE",
    "MODE_ENV_VAR",
]

#: Environment variable selecting the dispatch mode at process start:
#: ``auto`` (default), ``force`` (route every solve through the batch
#: kernel — used by the differential test suite) or ``off``.
MODE_ENV_VAR = "REPRO_VECTORIZED"

#: Below this batch size the numpy fixed costs outweigh the win, so
#: ``auto`` mode keeps small grids on the scalar loop.
MIN_BATCH_SIZE = 16

#: Mirrors the defaults of :func:`repro.core.solver.solve_increasing`,
#: which :meth:`BandwidthWallModel.supportable_cores` relies on.
_TOL = 1e-12
_MAX_ITER = 200

#: Half-width of the band around the estimated root inside which replay
#: decisions are made by exact scalar evaluation instead of by position.
#: The polished estimate is accurate to a few ulps (~1e-15 relative);
#: 1e-12 relative leaves three orders of magnitude of safety while
#: keeping the exact evaluations to ~5 of the ~48 bisection steps.
_MARGIN_REL = 1e-12

#: Relative half-width of the band around the budget inside which the
#: bracket-guard comparisons are re-evaluated with scalar arithmetic
#: (outside it the numpy estimate decides safely).
_GUARD_BAND_REL = 1e-9

_VALID_MODES = ("auto", "force", "off")


def _initial_mode() -> str:
    raw = os.environ.get(MODE_ENV_VAR, "auto").strip().lower()
    return raw if raw in _VALID_MODES else "auto"


_MODE = _initial_mode()


def configure(mode_name: str) -> None:
    """Select the dispatch mode: ``auto``, ``force`` or ``off``."""
    global _MODE
    if mode_name not in _VALID_MODES:
        raise ValueError(
            f"mode must be one of {_VALID_MODES}, got {mode_name!r}"
        )
    _MODE = mode_name


def mode() -> str:
    """The current dispatch mode."""
    return _MODE


def use_batch(batch_size: int) -> bool:
    """Should a batch of this size go through the vectorized kernel?"""
    if _MODE == "off":
        return False
    return _MODE == "force" or batch_size >= MIN_BATCH_SIZE


# ----------------------------------------------------------------------
# Exact scalar arithmetic (must mirror BandwidthWallModel bit-for-bit)
# ----------------------------------------------------------------------


def _effect_coeffs(effect: "TechniqueEffect") -> Tuple[float, float, float,
                                                       float, float]:
    """``(f, d, ls, cf, tf)`` — the floats the traffic formula consumes.

    ``ls`` pre-multiplies ``stacked_layers * resolved_stacked_density``
    exactly as :meth:`TechniqueEffect.effective_cache_ceas` evaluates
    that (left-associative) product, so using it keeps the arithmetic
    identical.
    """
    return (
        effect.core_area_fraction,
        effect.on_die_density,
        effect.stacked_layers * effect.resolved_stacked_density,
        effect.capacity_factor,
        effect.traffic_factor,
    )


def _traffic_exact(
    p: float,
    total: float,
    f: float,
    d: float,
    ls: float,
    cf: float,
    tf: float,
    p1: float,
    s1: float,
    neg_alpha: float,
) -> float:
    """``BandwidthWallModel.relative_traffic`` as straight-line scalar code.

    Operation-for-operation identical to the method (including the
    intermediate rounding of every step), minus the attribute lookups.
    Used for the few replay decisions that positional reasoning cannot
    settle — those must round exactly as the scalar solver's own
    evaluations do.
    """
    die = total - f * p
    if die < 0:
        raise ValueError(
            f"{p} cores of size {f} CEA do not fit on a {total}-CEA die"
        )
    raw = d * die
    raw = raw + ls * total
    s2 = (cf * raw) / p
    if s2 <= 0:
        return math.inf
    return (p / p1) * (s2 / s1) ** neg_alpha / tf


# ----------------------------------------------------------------------
# Estimate-side numpy arithmetic (fast, 1-ulp accuracy is fine)
# ----------------------------------------------------------------------


def _traffic_estimate(p, total, f, d, ls, cf, tf, p1, s1, neg_alpha):
    """Vectorized traffic; may differ from the scalar path by ~1 ulp."""
    die = total - f * p
    raw = d * die + ls * total
    with _np.errstate(all="ignore"):
        s2 = (cf * raw) / p
        traffic = (p / p1) * (s2 / s1) ** neg_alpha / tf
        return _np.where(s2 <= 0, _np.inf, traffic)


def _rational_alpha(alpha: float, max_denominator: int = 8
                    ) -> Optional[Tuple[int, int]]:
    """``(u, v)`` with ``alpha == u/v`` exactly, if such small ints exist."""
    fraction = Fraction(alpha).limit_denominator(max_denominator)
    if float(fraction) == alpha and fraction.numerator >= 1:
        return fraction.numerator, fraction.denominator
    return None


def _cubic_roots(K, q, A, s1):
    """The single real root of ``s1*p^3 + A*q*p - A*K = 0`` (alpha = 1/2).

    ``A = (budget * tf * p1)^2``.  With ``q >= 0`` the cubic is strictly
    increasing, so the hyperbolic (single-real-root) branch of Cardano's
    method applies everywhere; degenerate coefficients produce
    non-finite values the caller's Newton polish repairs.
    """
    with _np.errstate(all="ignore"):
        c1 = A * q / s1
        c0 = -(A * K) / s1
        scale = _np.sqrt(c1 / 3.0)
        arg = (3.0 * c0) / (2.0 * c1) * _np.sqrt(3.0 / c1)
        root = -2.0 * scale * _np.sinh(_np.arcsinh(arg) / 3.0)
        # c1 == 0 (no cache shrink term) degenerates to a pure cube.
        cube = _np.cbrt(-c0)
        return _np.where(c1 > 0, root, cube)


def _polynomial_roots(u, v, K, q, hi, target_eff, p1, s1):
    """Batched ``np.roots`` for alpha = u/v: companion-matrix eigenvalues.

    Raising the governing equation to the ``v``-th power yields
    ``s1^u * p^(u+v) = (B*tf*p1)^v * (K - q*p)^u`` — a degree ``u+v``
    polynomial per grid point.  All companion matrices are stacked and
    solved with one ``eigvals`` call; the real eigenvalue inside
    ``(0, hi)`` is the root (the power-raising can add spurious roots
    only outside the feasible interval, where ``K - q*p <= 0``).
    """
    n = K.shape[0]
    degree = u + v
    lead = float(s1) ** u
    rhs = target_eff ** v * float(p1) ** v
    # coeffs[:, j] multiplies p^j; monic after dividing by s1^u.
    coeffs = _np.zeros((n, degree))
    for j in range(u + 1):
        binom = math.comb(u, j)
        coeffs[:, j] = -rhs * binom * K ** (u - j) * (-q) ** j / lead
    companion = _np.zeros((n, degree, degree))
    companion[:, 1:, :-1] = _np.eye(degree - 1)
    companion[:, :, -1] = -coeffs
    with _np.errstate(all="ignore"):
        eigen = _np.linalg.eigvals(companion)
    real = _np.where(
        (_np.abs(eigen.imag) <= 1e-9 * (_np.abs(eigen.real) + 1.0))
        & (eigen.real > 0)
        & (eigen.real < hi[:, None]),
        eigen.real,
        _np.nan,
    )
    # At most one candidate survives; nanmax collapses the axis.
    with _np.errstate(all="ignore"):
        return _np.nanmax(real, axis=1)


def _estimate_roots(total, target, hi, a, b, f, d, ls, cf, tf,
                    alpha, p1, s1):
    """Per-point root estimates, polished to float saturation.

    Dispatch: analytic cubic for alpha = 1/2, batched companion-matrix
    eigenvalues (``np.roots`` semantics) for other small-denominator
    rational alphas, and the safeguarded Newton fallback — which also
    polishes the polynomial starts — for everything else.

    Returns ``(estimate, converged)``; non-converged points keep a
    usable bracket midpoint but must be replayed with exact evaluation
    at every step (the caller widens their margin to infinity).
    """
    K = cf * (d * total + ls * total)
    q = cf * d * f
    target_eff = target * tf

    rational = _rational_alpha(alpha)
    if alpha == 0.5:
        start = _cubic_roots(K, q, (target_eff * p1) ** 2, s1)
    elif rational is not None and sum(rational) <= 6:
        start = _polynomial_roots(rational[0], rational[1], K, q, hi,
                                  target_eff, p1, s1)
    else:
        start = _np.full_like(total, _np.nan)

    lo_br = a.copy()
    hi_br = b.copy()
    x = _np.where(_np.isfinite(start) & (start > a) & (start < b),
                  start, 0.5 * (a + b))
    # log-space constant of the monotone form h(p) = (1+alpha)*ln p
    # - alpha*ln(K - q p) - C; Newton on h never needs a pow.
    with _np.errstate(all="ignore"):
        c_log = (_np.log(target_eff) + math.log(p1)
                 - alpha * math.log(s1))
    converged = _np.zeros(total.shape, dtype=bool)
    for _ in range(80):
        with _np.errstate(all="ignore"):
            slack = K - q * x
            h = ((1.0 + alpha) * _np.log(x) - alpha * _np.log(slack)
                 - c_log)
            lo_br = _np.where(h < 0, x, lo_br)
            hi_br = _np.where(h > 0, x, hi_br)
            hp = (1.0 + alpha) / x + alpha * q / slack
            step = h / hp
            nxt = x - step
            outside = ~((nxt > lo_br) & (nxt < hi_br))
            nxt = _np.where(outside, 0.5 * (lo_br + hi_br), nxt)
            done = _np.abs(nxt - x) <= 4e-16 * _np.abs(nxt)
        # Freeze elements that have already converged: while the loop
        # keeps running for their batch-mates, an underflowed Newton
        # step (nxt == x == lo_br) would otherwise trip the `outside`
        # safeguard and teleport a finished iterate to the bracket
        # midpoint.
        frozen = converged.copy()
        converged |= done & _np.isfinite(nxt)
        x = _np.where(~frozen & _np.isfinite(nxt), nxt, x)
        if bool(converged.all()):
            break
    return x, converged


# ----------------------------------------------------------------------
# The byte-exact replay
# ----------------------------------------------------------------------


def _replay_bisection(total, target, a, b, xhat, margin, scalars):
    """Reproduce the scalar bisection bit-for-bit across the batch.

    ``a``/``b`` are the already-guarded inner bracket endpoints.  Each
    of the <= 200 rounds mirrors one iteration of
    :func:`repro.core.solver.solve_increasing`: midpoints further than
    ``margin`` from the estimated root take the branch their position
    dictates; the rest evaluate ``traffic(mid)`` with exact scalar
    arithmetic.  Elements freeze as soon as their bracket reaches the
    scalar solver's tolerance, exactly like the scalar early-exit.
    """
    total_l = total.tolist()
    target_l = target.tolist()
    (f_l, d_l, ls_l, cf_l, tf_l), (p1, s1, neg_alpha) = scalars
    active = _np.ones(total.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (a + b)
        below = mid < xhat
        near = active & (_np.abs(mid - xhat) <= margin)
        if bool(near.any()):
            indices = _np.nonzero(near)[0].tolist()
            mids = mid[indices].tolist()
            for i, m in zip(indices, mids):
                below[i] = _traffic_exact(
                    m, total_l[i], f_l[i], d_l[i], ls_l[i], cf_l[i],
                    tf_l[i], p1, s1, neg_alpha,
                ) < target_l[i]
        a = _np.where(active & below, mid, a)
        b = _np.where(active & ~below, mid, b)
        active &= (b - a) > _TOL
        if not bool(active.any()):
            break
    return 0.5 * (a + b)


# ----------------------------------------------------------------------
# Public batch entry point
# ----------------------------------------------------------------------


def solve_batch(
    model: "BandwidthWallModel",
    queries: Sequence[Tuple[float, float, Any]],
) -> List["ScalingSolution"]:
    """Solve ``(total_ceas, traffic_budget, effect)`` queries as a batch.

    The counterpart of calling
    :meth:`BandwidthWallModel.supportable_cores` once per query, with
    bit-identical results and exceptions: invalid queries raise the same
    ``ValueError``; unsolvable ones the same :class:`BracketError`
    (always for the earliest offending query index).
    :meth:`BandwidthWallModel.supportable_cores_batch` calls it for
    batches large enough to pay for the kernel.

    In ``off`` mode every query runs through the scalar path unchanged.
    """
    queries = list(queries)
    if _MODE == "off":
        return [model.solve_point(t, budget, effect)
                for t, budget, effect in queries]
    n = len(queries)
    for total_ceas, traffic_budget, _ in queries:
        model.validate_query(total_ceas, traffic_budget)

    total = _np.array([q[0] for q in queries], dtype=float)
    target = _np.array([q[1] for q in queries], dtype=float)
    f = _np.empty(n)
    d = _np.empty(n)
    ls = _np.empty(n)
    cf = _np.empty(n)
    tf = _np.empty(n)
    coeff_cache: dict = {}
    for i, (_, _, effect) in enumerate(queries):
        coeffs = coeff_cache.get(id(effect))
        if coeffs is None:
            coeffs = _effect_coeffs(effect)
            coeff_cache[id(effect)] = coeffs
        f[i], d[i], ls[i], cf[i], tf[i] = coeffs

    p1 = float(model.baseline.num_cores)
    s1 = float(model.baseline.cache_per_core)
    alpha = model.alpha
    neg_alpha = -alpha

    # Bracket setup, op-for-op as supportable_cores + solve_increasing.
    lo = _np.zeros(n)
    hi = total / f
    span = hi - lo
    a = lo + span * 1e-12
    b = hi - span * 1e-12

    est_args = (total, f, d, ls, cf, tf, p1, s1, neg_alpha)
    fa = _traffic_estimate(a, *est_args)
    fb = _traffic_estimate(b, *est_args)

    # Guard decisions: clearly-bracketed points solve in the batch;
    # points near either guard threshold re-check with exact scalar
    # arithmetic; failures (and non-finite budgets, which the scalar
    # path rejects inside solve_increasing) delegate wholesale so
    # BracketError handling and the area-limited fallback stay on the
    # scalar code path.
    with _np.errstate(all="ignore"):
        band_a = _GUARD_BAND_REL * (_np.abs(fa) + _np.abs(target))
        band_b = _GUARD_BAND_REL * (_np.abs(fb) + _np.abs(target))
        ok = (fa < target - band_a) & (fb > target + band_b)
        unsure = (~ok) & (_np.abs(fa - target) <= band_a)
        unsure |= (~ok) & (_np.abs(fb - target) <= band_b)
        ok &= _np.isfinite(target)
        unsure &= _np.isfinite(target)
    if bool(unsure.any()):
        f_l, d_l, ls_l, cf_l, tf_l = (f.tolist(), d.tolist(), ls.tolist(),
                                      cf.tolist(), tf.tolist())
        for i in _np.nonzero(unsure)[0].tolist():
            fa_i = _traffic_exact(float(a[i]), float(total[i]), f_l[i],
                                  d_l[i], ls_l[i], cf_l[i], tf_l[i],
                                  p1, s1, neg_alpha)
            fb_i = _traffic_exact(float(b[i]), float(total[i]), f_l[i],
                                  d_l[i], ls_l[i], cf_l[i], tf_l[i],
                                  p1, s1, neg_alpha)
            ok[i] = fa_i <= target[i] and fb_i >= target[i]

    keep = _np.nonzero(ok)[0]
    solutions: List[Optional["ScalingSolution"]] = [None] * n
    if keep.size:
        kt, ktarget = total[keep], target[keep]
        ka, kb, khi = a[keep], b[keep], hi[keep]
        kf, kd, kls, kcf, ktf = f[keep], d[keep], ls[keep], cf[keep], \
            tf[keep]
        xhat, converged = _estimate_roots(
            kt, ktarget, khi, ka, kb, kf, kd, kls, kcf, ktf,
            alpha, p1, s1,
        )
        margin = _np.maximum(_MARGIN_REL * _np.abs(xhat), 2.0 * _TOL)
        margin = _np.where(converged, margin, _np.inf)
        scalars = ((kf.tolist(), kd.tolist(), kls.tolist(),
                    kcf.tolist(), ktf.tolist()), (p1, s1, neg_alpha))
        roots = _replay_bisection(kt, ktarget, ka, kb, xhat, margin,
                                  scalars)
        roots_l = roots.tolist()
        for j, i in enumerate(keep.tolist()):
            total_ceas, traffic_budget, effect = queries[i]
            solutions[i] = model.finish_solution(
                total_ceas, traffic_budget, effect, roots_l[j],
                area_limited=False,
            )
    failed = [i for i in range(n) if solutions[i] is None]
    if failed:
        # Batched guard-failure path.  Each failed point is classified
        # with two exact endpoint evaluations (vs ~48 for a delegated
        # bisection): exactly-bracketed stragglers (estimate/exact
        # disagreement near a guard band) re-solve as a second batch;
        # unbracketed points resolve area-limited through the same
        # finish_solution call the scalar fallback makes, or delegate
        # to solve_point so the canonical BracketError/ValueError —
        # for the earliest offending index — stays byte-identical.
        stragglers: List[int] = []
        errors: List[int] = []
        t_l, tgt_l = total.tolist(), target.tolist()
        a_l, b_l = a.tolist(), b.tolist()
        f_l, d_l, ls_l, cf_l, tf_l = (f.tolist(), d.tolist(),
                                      ls.tolist(), cf.tolist(),
                                      tf.tolist())
        for i in failed:
            if not math.isfinite(tgt_l[i]):
                errors.append(i)
                continue
            args_i = (t_l[i], f_l[i], d_l[i], ls_l[i], cf_l[i],
                      tf_l[i], p1, s1, neg_alpha)
            fa_i = _traffic_exact(a_l[i], *args_i)
            fb_i = _traffic_exact(b_l[i], *args_i)
            if fa_i <= tgt_l[i] <= fb_i:
                stragglers.append(i)
                continue
            # Mirror solve_point's BracketError handler op-for-op:
            # budget admits a full-die core allocation -> area-limited.
            total_ceas, traffic_budget, effect = queries[i]
            max_cores = total_ceas / effect.core_area_fraction
            if model.relative_traffic(
                total_ceas, max_cores * (1 - 1e-12), effect
            ) < traffic_budget:
                solutions[i] = model.finish_solution(
                    total_ceas, traffic_budget, effect, max_cores,
                    area_limited=True,
                )
            else:
                errors.append(i)
        for i in errors:
            # The first call raises the canonical scalar exception; the
            # loop shape is defensive against a classification miss.
            total_ceas, traffic_budget, effect = queries[i]
            solutions[i] = model.solve_point(total_ceas, traffic_budget,
                                             effect)
        if stragglers:
            sidx = _np.array(stragglers, dtype=int)
            st, starget = total[sidx], target[sidx]
            sa, sb, shi = a[sidx], b[sidx], hi[sidx]
            sf, sd, sls, scf, stf = (f[sidx], d[sidx], ls[sidx],
                                     cf[sidx], tf[sidx])
            xhat, converged = _estimate_roots(
                st, starget, shi, sa, sb, sf, sd, sls, scf, stf,
                alpha, p1, s1,
            )
            margin = _np.maximum(_MARGIN_REL * _np.abs(xhat),
                                 2.0 * _TOL)
            margin = _np.where(converged, margin, _np.inf)
            scalars = ((sf.tolist(), sd.tolist(), sls.tolist(),
                        scf.tolist(), stf.tolist()),
                       (p1, s1, neg_alpha))
            roots = _replay_bisection(st, starget, sa, sb, xhat,
                                      margin, scalars)
            roots_l = roots.tolist()
            for j, i in enumerate(stragglers):
                total_ceas, traffic_budget, effect = queries[i]
                solutions[i] = model.finish_solution(
                    total_ceas, traffic_budget, effect, roots_l[j],
                    area_limited=False,
                )
    return solutions
