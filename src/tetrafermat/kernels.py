"""Numeric kernels: distance sums, resultants of unit vectors, the
safeguarded Newton iteration for the four-point distance minimizer and its
start off a vertex, and a simplex minimizer specialized to the same
objective.  ``newton`` has one step path: a Newton step that finds no
trial point it can accept ends the iteration.  Its stopping residual,
budget and vertex radius, ``newton_columns``' budget and the number of
instances it finishes on floats, are parameters whose values ``solver``
sets (``GRAD_TOL``, ``MAX_ITER``, ``VERTEX_EPS``, ``FLOAT_TAIL``), as it
chooses the vertex that ``ray_start`` steps off (``solver._newton_start``).

Every kernel takes ``rows``, the four vertices as (x, y, z) triples
(``Tetrahedron.frame``, built once per tetrahedron).  The arithmetic of
the pull norms (``_vertex_resultants``, ``pull_norms``), of the start off
a vertex (``ray_start``) and of a Newton iterate (``distances``, then
``newton_step``: legs, gradient, Hessian, adjugate step) is written once,
for coordinates that are Python floats or 1-D float64 columns with one
element per tetrahedron (see ``ops``; ``sqrt`` and ``all`` come from the
``xp`` passed in).  Two drivers call it: ``newton`` on floats, with every
safeguard, and ``newton_columns`` on columns, which runs a chunk of
tetrahedra in lockstep while each takes full Newton steps and the sweeps
hold enough of them to pay, and finishes the rest through ``newton`` on
floats, each from the iterate where it stands, so that it returns
``newton``'s outcome, CONVERGED or MAXITER, for every instance.  On four
points a numpy call costs more than the arithmetic it vectorizes, so the
scalar API stays on floats.  The kernels bind the twelve row coordinates
once and write the four legs (for ``pull_norms`` the six edges) out as
straight-line code, with no per-row loop; ``newton`` carries the
distances of an accepted trial point into the next iterate.
``nelder_mead`` writes the distance sums of its reflection and of its one
further trial out in its loop as well, on the twelve coordinates bound
once: they are nearly all of its evaluations, and on four points a
function call costs about as much as the sum.  Each keeps the
floating-point operations of a per-row loop in the same order, so its
answers are bit-identical to one, on floats and on columns alike.
``nelder_mead`` and ``distance_sum`` (``distances`` on floats) compute on
floats only.
"""

from __future__ import annotations

from math import inf, sqrt
from operator import itemgetter

import numpy as np

from .ops import FLOATS, Columns

# newton() status codes
CONVERGED = 0
MAXITER = 1

#: a trial point is accepted when it raises the objective by at most this
#: relative amount, so steps that change it only at rounding level are kept
ACCEPT_SLACK = 1e-15
#: shortened Newton steps tried after a rejected full step (the retry at the
#: nearest vertex's distance, then halvings) before the iteration gives up
MAX_HALVINGS = 30


def resultant_norm(rows, x: float, y: float, z: float) -> float:
    """Norm of the sum of unit vectors from (x, y, z) toward the four rows.

    This is the balancing residual; zero exactly at an interior minimizer.
    The point must not coincide with a row.
    """
    rx = ry = rz = 0.0
    for vx, vy, vz in rows:
        dx = vx - x
        dy = vy - y
        dz = vz - z
        d = sqrt(dx * dx + dy * dy + dz * dz)
        rx += dx / d
        ry += dy / d
        rz += dz / d
    return sqrt(rx * rx + ry * ry + rz * rz)


def _vertex_resultants(rows, xp):
    """The resultant at each row, in row order: the sum of the unit vectors
    from the row toward the other three, taken in row order.

    Straight-line code over the six edges, each normalised once: the unit
    from row i toward row j (i < j) serves row i, and its negation, which
    is exact, serves row j.  Each sum starts from 0.0, as a per-row loop's
    does, so the results match that loop bit for bit, signed zeros
    included.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    sqrt = xp.sqrt
    ex, ey, ez = bx - ax, by - ay, bz - az
    n = sqrt(ex * ex + ey * ey + ez * ez)
    abx, aby, abz = ex / n, ey / n, ez / n
    ex, ey, ez = cx - ax, cy - ay, cz - az
    n = sqrt(ex * ex + ey * ey + ez * ez)
    acx, acy, acz = ex / n, ey / n, ez / n
    ex, ey, ez = dx - ax, dy - ay, dz - az
    n = sqrt(ex * ex + ey * ey + ez * ez)
    adx, ady, adz = ex / n, ey / n, ez / n
    ex, ey, ez = cx - bx, cy - by, cz - bz
    n = sqrt(ex * ex + ey * ey + ez * ez)
    bcx, bcy, bcz = ex / n, ey / n, ez / n
    ex, ey, ez = dx - bx, dy - by, dz - bz
    n = sqrt(ex * ex + ey * ey + ez * ez)
    bdx, bdy, bdz = ex / n, ey / n, ez / n
    ex, ey, ez = dx - cx, dy - cy, dz - cz
    n = sqrt(ex * ex + ey * ey + ez * ez)
    cdx, cdy, cdz = ex / n, ey / n, ez / n
    return (
        (0.0 + abx + acx + adx, 0.0 + aby + acy + ady, 0.0 + abz + acz + adz),
        (0.0 - abx + bcx + bdx, 0.0 - aby + bcy + bdy, 0.0 - abz + bcz + bdz),
        (0.0 - acx - bcx + cdx, 0.0 - acy - bcy + cdy, 0.0 - acz - bcz + cdz),
        (0.0 - adx - bdx - cdx, 0.0 - ady - bdy - cdy, 0.0 - adz - bdz - cdz),
    )


def pull_norms(rows, xp=FLOATS):
    """Pull norm of each row, in row order: the norm of the sum of the unit
    vectors from the other three rows toward it (the resultant at the row,
    negated)."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = (
        _vertex_resultants(rows, xp)
    )
    sqrt = xp.sqrt
    return (
        sqrt(ax * ax + ay * ay + az * az),
        sqrt(bx * bx + by * by + bz * bz),
        sqrt(cx * cx + cy * cy + cz * cz),
        sqrt(dx * dx + dy * dy + dz * dz),
    )


def ray_start(v, others, xp):
    """One Newton step off the row ``v`` along its descent ray, ``v + s r``,
    given the other three rows ``others`` in row order: a kernel on floats
    or on columns.

    The legs from ``v`` toward the other three rows, taken in row order,
    give units u_j and weights w_j = 1 / d_j; their resultant, of norm p
    (the pull norm of ``v``, up to rounding), gives the unit ray r.  Along
    the ray the distance sum is phi(s) = s + sum_j |v + s r - v_j|, with
    phi'(0) = 1 - p and phi''(0) = kappa = sum_j (1 - (u_j . r)^2) w_j, so
    the step is s = (p - 1) / kappa.  It is exact to first order when the
    minimizer sits near ``v``, and positive when p > 1 (the interior
    case); far from ``v`` it can land outside the hull, and ``newton``'s
    safeguards take it from there.  Straight-line code, like
    ``_vertex_resultants``.
    """
    vx, vy, vz = v
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = others
    sqrt = xp.sqrt
    ex, ey, ez = ax - vx, ay - vy, az - vz
    d = sqrt(ex * ex + ey * ey + ez * ez)
    wa = 1.0 / d
    uax, uay, uaz = ex / d, ey / d, ez / d
    ex, ey, ez = bx - vx, by - vy, bz - vz
    d = sqrt(ex * ex + ey * ey + ez * ez)
    wb = 1.0 / d
    ubx, uby, ubz = ex / d, ey / d, ez / d
    ex, ey, ez = cx - vx, cy - vy, cz - vz
    d = sqrt(ex * ex + ey * ey + ez * ez)
    wc = 1.0 / d
    ucx, ucy, ucz = ex / d, ey / d, ez / d
    rx = uax + ubx + ucx
    ry = uay + uby + ucy
    rz = uaz + ubz + ucz
    p = sqrt(rx * rx + ry * ry + rz * rz)
    rx, ry, rz = rx / p, ry / p, rz / p
    ca = uax * rx + uay * ry + uaz * rz
    cb = ubx * rx + uby * ry + ubz * rz
    cc = ucx * rx + ucy * ry + ucz * rz
    kappa = (1.0 - ca * ca) * wa + (1.0 - cb * cb) * wb + (1.0 - cc * cc) * wc
    s = (p - 1.0) / kappa
    return vx + s * rx, vy + s * ry, vz + s * rz


def distances(rows, x, y, z, xp):
    """The distances from (x, y, z) to the four rows and their sum, added
    left to right: a kernel on floats or on columns."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    sqrt = xp.sqrt
    tx, ty, tz = x - ax, y - ay, z - az
    n0 = sqrt(tx * tx + ty * ty + tz * tz)
    tx, ty, tz = x - bx, y - by, z - bz
    n1 = sqrt(tx * tx + ty * ty + tz * tz)
    tx, ty, tz = x - cx, y - cy, z - cz
    n2 = sqrt(tx * tx + ty * ty + tz * tz)
    tx, ty, tz = x - dx, y - dy, z - dz
    n3 = sqrt(tx * tx + ty * ty + tz * tz)
    return n0, n1, n2, n3, n0 + n1 + n2 + n3


def distance_sum(rows, x: float, y: float, z: float) -> float:
    """Sum of Euclidean distances from (x, y, z) to the four rows: the sum
    ``distances`` adds, on floats."""
    return distances(rows, x, y, z, FLOATS)[4]


def newton_step(rows, x, y, z, d0, d1, d2, d3, grad_tol, xp):
    """One Newton iterate at (x, y, z), whose distances to the rows are
    d0..d3 (none zero): the balancing residual ``res = |g|`` and
    ``(det H, H^-1 g)``, the full step, where ``g`` is the sum of the unit
    legs toward the rows and ``H = sum (I - u_i u_i^T) / d_i``, solved by
    the closed-form 3x3 adjugate.  A kernel on floats or on columns.  When
    every residual is at most ``grad_tol`` there is no step to take, and
    the step is None.  The step is meaningless where ``det H`` is not
    positive; a zero determinant divides as 1, so that floats never raise.

    Every floating-point operation keeps the order of a per-row loop that
    accumulates from 0.0.  The gradient and diagonal Hessian sums start
    from their first term instead, which cannot change them, as none of
    their terms is -0.0; the off-diagonal Hessian terms
    (``0.0 - a - b - c - d``) keep the 0.0, as a -0.0 term can occur there.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    w0 = 1.0 / d0
    w1 = 1.0 / d1
    w2 = 1.0 / d2
    w3 = 1.0 / d3
    # the legs toward the rows; each squares exactly as its negation, so
    # the distances ``distances`` measured are theirs
    ux0, uy0, uz0 = (ax - x) * w0, (ay - y) * w0, (az - z) * w0
    ux1, uy1, uz1 = (bx - x) * w1, (by - y) * w1, (bz - z) * w1
    ux2, uy2, uz2 = (cx - x) * w2, (cy - y) * w2, (cz - z) * w2
    ux3, uy3, uz3 = (dx - x) * w3, (dy - y) * w3, (dz - z) * w3
    gx = ux0 + ux1 + ux2 + ux3
    gy = uy0 + uy1 + uy2 + uy3
    gz = uz0 + uz1 + uz2 + uz3
    res = xp.sqrt(gx * gx + gy * gy + gz * gz)
    if xp.all(res <= grad_tol):
        return res, None
    hxx = ((1.0 - ux0 * ux0) * w0 + (1.0 - ux1 * ux1) * w1
           + (1.0 - ux2 * ux2) * w2 + (1.0 - ux3 * ux3) * w3)
    hyy = ((1.0 - uy0 * uy0) * w0 + (1.0 - uy1 * uy1) * w1
           + (1.0 - uy2 * uy2) * w2 + (1.0 - uy3 * uy3) * w3)
    hzz = ((1.0 - uz0 * uz0) * w0 + (1.0 - uz1 * uz1) * w1
           + (1.0 - uz2 * uz2) * w2 + (1.0 - uz3 * uz3) * w3)
    hxy = (0.0 - ux0 * uy0 * w0 - ux1 * uy1 * w1
           - ux2 * uy2 * w2 - ux3 * uy3 * w3)
    hxz = (0.0 - ux0 * uz0 * w0 - ux1 * uz1 * w1
           - ux2 * uz2 * w2 - ux3 * uz3 * w3)
    hyz = (0.0 - uy0 * uz0 * w0 - uy1 * uz1 * w1
           - uy2 * uz2 * w2 - uy3 * uz3 * w3)
    c00 = hyy * hzz - hyz * hyz
    c01 = hxz * hyz - hxy * hzz
    c02 = hxy * hyz - hxz * hyy
    det = hxx * c00 + hxy * c01 + hxz * c02
    c11 = hxx * hzz - hxz * hxz
    c12 = hxy * hxz - hxx * hyz
    c22 = hxx * hyy - hxy * hxy
    # the added False is an exact + 0 wherever det is not zero
    q = det + (det == 0.0)
    px = (c00 * gx + c01 * gy + c02 * gz) / q
    py = (c01 * gx + c11 * gy + c12 * gz) / q
    pz = (c02 * gx + c12 * gy + c22 * gz) / q
    return res, (det, px, py, pz)


def newton(rows, sx, sy, sz, grad_tol, max_iter, vertex_eps):
    """Safeguarded Newton iteration for the four-point distance minimizer.

    Precondition: no row passes the vertex-optimality test (every pull
    norm exceeds 1), so the minimizer is interior.  ``solver.solve`` runs
    ``solver.classify`` first and calls this only in the interior case.

    Each iteration solves ``H s = g``, where ``g`` is the sum of the unit
    vectors u_i toward the rows (the negative gradient) and
    ``H = sum (I - u_i u_i^T) / d_i`` the Hessian (``newton_step``), and
    takes the step only when ``det H > 0``.  A trial point is accepted when
    the objective rises by at most ``ACCEPT_SLACK`` relative to the current
    value.  The full step is tried first.  The quadratic model of a leg
    ``|x - v_i|`` holds only within about ``d_i`` of ``v_i``, so a
    rejected full step ``s`` is retried at length ``dmin``, the distance to
    the nearest row (step fraction ``dmin / |s|``, when that is below 0.5,
    else 0.5), and then halved; ``MAX_HALVINGS`` shortened trials are made
    in all.  When no trial point passes, or when ``det H`` is not positive
    (zero or negative after rounding, or NaN when the distances are so
    small, about 1e-103 and below, that the determinant, cubic in the
    weights ``1 / d_i``, sums terms that overflow to ``inf - inf``), the
    iteration stops with MAXITER at the iterate it stands at; that step
    counts as an iteration, and ``solver.solve`` raises NonConvergence on
    it.  This is the quadratically convergent scheme of Overton (Math.
    Programming 27, 1983), which keeps its guarantees with any sequence of
    trial steps that ends in the same acceptance test.

    An iterate within ``vertex_eps`` of a row is a singular point of the
    iteration; it restarts ``10 * vertex_eps`` off the row along the
    resultant of the other three legs there, the negated pull (the descent
    ray, nonzero by the precondition).  ``vertex_eps`` is a length in the
    units of ``rows``.  Each Newton step and escape counts as one
    iteration.

    The arithmetic is that of the kernels ``distances`` and
    ``newton_step``, which ``newton_columns`` runs on columns too; the
    distances an accepted trial point was judged by are the next iterate's
    distances and are not computed again.

    Returns ``(x, y, z, value, residual, iterations, status)``, where
    ``value`` is the distance sum at (x, y, z), bit-identical to
    ``distance_sum`` there (the same squares, summed left to right),
    ``residual`` is the balancing residual (the norm of ``g``) at (x, y, z)
    and status is CONVERGED (residual <= ``grad_tol``) or MAXITER
    (``max_iter`` iterations ran out, or a step found no trial point).  At
    the iterate where the budget has run out only the residual is
    computed, not the Hessian or the step no iteration would take.
    """
    x, y, z = float(sx), float(sy), float(sz)
    escape = 10.0 * vertex_eps
    it = 0
    d0, d1, d2, d3, f = distances(rows, x, y, z, FLOATS)
    while True:
        dmin = d0
        if d1 < dmin:
            dmin = d1
        if d2 < dmin:
            dmin = d2
        if d3 < dmin:
            dmin = d3
        if dmin <= vertex_eps:
            # the first row at the least distance
            imin = (d0, d1, d2, d3).index(dmin)
            vx, vy, vz = rows[imin]
            rx, ry, rz = _vertex_resultants(rows, FLOATS)[imin]
            rn = sqrt(rx * rx + ry * ry + rz * rz)
            x = vx + escape * rx / rn
            y = vy + escape * ry / rn
            z = vz + escape * rz / rn
            it += 1
            if it >= max_iter:
                res = resultant_norm(rows, x, y, z)
                return (x, y, z, distance_sum(rows, x, y, z), res, it, MAXITER)
            d0, d1, d2, d3, f = distances(rows, x, y, z, FLOATS)
            continue
        if it >= max_iter:
            # no step is taken, so an infinite tolerance skips computing
            # one; the residual alone decides the status
            res, _ = newton_step(rows, x, y, z, d0, d1, d2, d3, inf, FLOATS)
            return (x, y, z, f, res, it, CONVERGED if res <= grad_tol else MAXITER)
        res, step = newton_step(rows, x, y, z, d0, d1, d2, d3, grad_tol, FLOATS)
        if step is None:
            return (x, y, z, f, res, it, CONVERGED)
        it += 1
        det, px, py, pz = step
        if not det > 0.0:
            # zero or negative after rounding, or NaN: no Newton step
            return (x, y, z, f, res, it, MAXITER)
        fmax = f * (1.0 + ACCEPT_SLACK)
        t = 1.0
        for k in range(MAX_HALVINGS + 1):
            nx = x + t * px
            ny = y + t * py
            nz = z + t * pz
            n0, n1, n2, n3, fn = distances(rows, nx, ny, nz, FLOATS)
            if fn <= fmax:
                x, y, z = nx, ny, nz
                d0, d1, d2, d3, f = n0, n1, n2, n3, fn
                break
            if k == 0:
                # the quadratic model of a leg holds only within about its
                # length, so retry at the nearest vertex's distance
                t = dmin / sqrt(px * px + py * py + pz * pz)
                if t >= 0.5:
                    t = 0.5
            else:
                t *= 0.5
        else:
            # no trial point passes: the step makes no progress
            return (x, y, z, f, res, it, MAXITER)


def newton_columns(rows, sx, sy, sz, grad_tol, max_iter, vertex_eps, tail):
    """``newton`` on columns, one element per instance: the instances run
    in lockstep while they take full Newton steps, and each one the
    lockstep does not finish continues through ``newton`` on floats, from
    the iterate where it stands.

    ``rows`` holds the four rows as (x, y, z) triples of columns, and
    ``sx, sy, sz`` and ``vertex_eps`` are columns too.  Each sweep runs the
    kernels ``newton_step`` and ``distances`` on the instances still
    iterating; one whose residual is at most ``grad_tol`` is CONVERGED,
    with the sweep's count as its iterations.  An instance continues on
    floats at the first iterate where ``newton`` would take a path other
    than the full step: it lies within ``vertex_eps`` of a row (an
    escape), ``det H`` is not positive (NaN included) or the full step is
    rejected (a retry).  So does every instance still iterating once a
    sweep would hold at most ``tail`` of them, where a sweep's numpy calls
    cost more than finishing each on floats, or once ``max_iter``
    iterations have run out.  ``newton`` gets the budget left of
    ``max_iter``, its iterations add to the sweeps', and its status is
    the instance's, so every safeguard and every MAXITER outcome has
    ``newton``'s one implementation.  ``newton`` keeps no memory between
    iterates, and the distances it measures at the iterate it starts from
    are the ones the columns carried, so every instance took exactly
    ``newton``'s path from its start: its point, value, residual,
    iterations and status are ``newton``'s, bit for bit.

    Returns ``newton``'s ``(x, y, z, value, residual, iterations,
    status)`` as columns over all instances.  Evaluates under
    ``np.errstate(all="ignore")``: an instance that continues on floats
    may meet NaN or infinite values on its way out of the columns.

    The instances still iterating are the columns of one state array.  A
    sweep writes the accepted iterate and its distances into its rows in
    place and each finished instance's outcome row by row; the rows are
    sliced into views again only after instances leave the array.
    """
    n = len(sx)
    out = np.zeros((5, n))
    iterations = np.zeros(n, dtype=np.int64)
    status = np.full(n, CONVERGED, dtype=np.int64)
    # (sweep count, the instances' state columns) of each set of instances
    # that continues on floats
    handed = []
    it = 0
    with np.errstate(all="ignore"):
        # the instances still iterating, one column each: the twelve row
        # coordinates, the vertex radius, the instance index, the iterate,
        # its four distances and its value
        state = np.vstack([
            *[c for row in rows for c in row], vertex_eps,
            np.arange(n, dtype=float), sx, sy, sz,
            *distances(rows, sx, sy, sz, Columns),
        ])
        fresh = True
        while state.shape[1]:
            if state.shape[1] <= tail or it >= max_iter:
                handed.append((it, state))
                break
            if fresh:
                # views of the state's rows, until instances leave it
                rows = tuple(zip(state[0:12:3], state[1:12:3], state[2:12:3]))
                eps, index, x, y, z, d0, d1, d2, d3, f = state[12:]
            # an escape, which only newton makes
            near = np.minimum(np.minimum(d0, d1), np.minimum(d2, d3)) <= eps
            res, step = newton_step(rows, x, y, z, d0, d1, d2, d3, grad_tol, Columns)
            converged = (res <= grad_tol) & ~near
            if converged.any():
                j = index[converged].astype(np.int64)
                for r, value in enumerate((x, y, z, f, res)):
                    out[r, j] = value[converged]
                iterations[j] = it
            if step is None:
                handed.append((it, state[:, near]))
                break
            det, px, py, pz = step
            nx, ny, nz = x + px, y + py, z + pz
            trial = distances(rows, nx, ny, nz, Columns)
            full = ~near & (det > 0.0) & (trial[4] <= f * (1.0 + ACCEPT_SLACK))
            if not full.all():
                handed.append((it, state[:, ~converged & ~full]))
            it += 1
            for r, value in enumerate((nx, ny, nz, *trial), 14):
                state[r] = value
            keep = full & ~converged
            # a sweep that keeps every instance, as the first ones mostly do,
            # copies none
            fresh = not keep.all()
            if fresh:
                state = state[:, keep]
    # (index, x, y, z, value, residual, iterations, status) of each
    # instance newton finishes
    finished = []
    for start, columns in handed:
        for c in columns.T.tolist():
            x, y, z, f, res, steps, ends = newton(
                (c[0:3], c[3:6], c[6:9], c[9:12]), c[14], c[15], c[16],
                grad_tol, max_iter - start, c[12],
            )
            finished.append((c[13], x, y, z, f, res, start + steps, ends))
    if finished:
        index, *values, steps, ends = np.array(finished).T
        j = index.astype(np.int64)
        out[:, j] = values
        iterations[j] = steps
        status[j] = ends
    return (*out, iterations, status)


def nelder_mead(rows, sx, sy, sz, step, xatol, fatol, max_iter):
    """Nelder-Mead on the four-point distance sum, from (sx, sy, sz).

    Standard reflect/expand/contract/shrink scheme with coefficients
    1, 2, 0.5, 0.5.  Terminates when the simplex collapses below ``xatol``
    in every coordinate and the value spread drops below ``fatol``, when
    its best and worst values are equal, or after ``max_iter`` iterations.
    Returns ``(x, y, z, fmin, iterations)``.

    Equal values leave the search nothing to compare: near a smooth
    minimum f is flat to rounding over about sqrt(eps) * scale, and further
    iterations only sample rounding.  At a vertex minimizer (a kink) the
    values keep differing until ``xatol``.  A simplex of four infinite
    values stops too; one of NaN values runs to ``max_iter``.

    The simplex is kept in sixteen scalar locals, vertex k as
    ``(fk, xk, yk, zk)``, ordered best to worst as if by a stable sort, so
    vertices with equal values keep their previous order: the first simplex
    and each shrunk one are sorted, and a new vertex replacing the worst is
    inserted after every survivor whose value does not exceed its own, the
    vertices behind it shifting down one place.  The returned vertex is the
    first one with the smallest value.  The answers are kept bit-identical
    on purpose, iteration counts included: every expression and the order
    of its floating-point operations is fixed, because the oracle's
    restarts and the tests that pin them depend on it.

    An iteration evaluates the distance sum at the reflection and at most
    once more, at the one point its reflected value selects (the expansion
    or a contraction).  Those two evaluations, nearly all of the search's,
    are written out in the loop on the twelve row coordinates bound once,
    as ``distances`` computes them (the same squares, summed left to
    right), since a function call costs about as much as the arithmetic of
    four distances; the start values and a shrink's three call
    ``distances``.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    x0, y0, z0 = float(sx), float(sy), float(sz)
    value = itemgetter(0)
    s0, s1, s2, s3 = sorted(
        [
            (distances(rows, x, y, z, FLOATS)[4], x, y, z)
            for x, y, z in (
                (x0, y0, z0), (x0 + step, y0, z0),
                (x0, y0 + step, z0), (x0, y0, z0 + step),
            )
        ],
        key=value,
    )
    f0, x0, y0, z0 = s0
    f1, x1, y1, z1 = s1
    f2, x2, y2, z2 = s2
    f3, x3, y3, z3 = s3

    it = 0
    while it < max_iter:
        if f3 == f0 or f3 - f0 <= fatol and max(
            abs(x1 - x0), abs(y1 - y0), abs(z1 - z0),
            abs(x2 - x0), abs(y2 - y0), abs(z2 - z0),
            abs(x3 - x0), abs(y3 - y0), abs(z3 - z0),
        ) <= xatol:
            break

        # the centroid of the three best vertices
        mx = (x0 + x1 + x2) / 3.0
        my = (y0 + y1 + y2) / 3.0
        mz = (z0 + z1 + z2) / 3.0

        xr = 2.0 * mx - x3
        yr = 2.0 * my - y3
        zr = 2.0 * mz - z3
        tx, ty, tz = xr - ax, yr - ay, zr - az
        fr = sqrt(tx * tx + ty * ty + tz * tz)
        tx, ty, tz = xr - bx, yr - by, zr - bz
        fr += sqrt(tx * tx + ty * ty + tz * tz)
        tx, ty, tz = xr - cx, yr - cy, zr - cz
        fr += sqrt(tx * tx + ty * ty + tz * tz)
        tx, ty, tz = xr - dx, yr - dy, zr - dz
        fr += sqrt(tx * tx + ty * ty + tz * tz)
        if fr < f0 or not fr < f2:
            if fr < f0:
                # expansion
                xn = 3.0 * mx - 2.0 * x3
                yn = 3.0 * my - 2.0 * y3
                zn = 3.0 * mz - 2.0 * z3
            elif fr < f3:
                # outside contraction
                xn = 1.5 * mx - 0.5 * x3
                yn = 1.5 * my - 0.5 * y3
                zn = 1.5 * mz - 0.5 * z3
            else:
                # inside contraction
                xn = 0.5 * mx + 0.5 * x3
                yn = 0.5 * my + 0.5 * y3
                zn = 0.5 * mz + 0.5 * z3
            tx, ty, tz = xn - ax, yn - ay, zn - az
            fn = sqrt(tx * tx + ty * ty + tz * tz)
            tx, ty, tz = xn - bx, yn - by, zn - bz
            fn += sqrt(tx * tx + ty * ty + tz * tz)
            tx, ty, tz = xn - cx, yn - cy, zn - cz
            fn += sqrt(tx * tx + ty * ty + tz * tz)
            tx, ty, tz = xn - dx, yn - dy, zn - dz
            fn += sqrt(tx * tx + ty * ty + tz * tz)
            if fr < f0:
                # the expansion replaces the reflection only when strictly
                # better
                if not fn < fr:
                    fn = fr
                    xn = xr
                    yn = yr
                    zn = zr
            elif fn > fr if fr < f3 else fn >= f3:
                # the contraction failed: shrink toward the best vertex
                x1 = x0 + 0.5 * (x1 - x0)
                y1 = y0 + 0.5 * (y1 - y0)
                z1 = z0 + 0.5 * (z1 - z0)
                x2 = x0 + 0.5 * (x2 - x0)
                y2 = y0 + 0.5 * (y2 - y0)
                z2 = z0 + 0.5 * (z2 - z0)
                x3 = x0 + 0.5 * (x3 - x0)
                y3 = y0 + 0.5 * (y3 - y0)
                z3 = z0 + 0.5 * (z3 - z0)
                s0, s1, s2, s3 = sorted(
                    [
                        (f0, x0, y0, z0),
                        (distances(rows, x1, y1, z1, FLOATS)[4], x1, y1, z1),
                        (distances(rows, x2, y2, z2, FLOATS)[4], x2, y2, z2),
                        (distances(rows, x3, y3, z3, FLOATS)[4], x3, y3, z3),
                    ],
                    key=value,
                )
                f0, x0, y0, z0 = s0
                f1, x1, y1, z1 = s1
                f2, x2, y2, z2 = s2
                f3, x3, y3, z3 = s3
                it += 1
                continue
        else:
            # the reflection is kept
            fn = fr
            xn = xr
            yn = yr
            zn = zr
        # the new vertex replaces the worst; the ones behind it shift down
        if fn < f2:
            f3 = f2
            x3 = x2
            y3 = y2
            z3 = z2
            if fn < f1:
                f2 = f1
                x2 = x1
                y2 = y1
                z2 = z1
                if fn < f0:
                    f1 = f0
                    x1 = x0
                    y1 = y0
                    z1 = z0
                    f0 = fn
                    x0 = xn
                    y0 = yn
                    z0 = zn
                else:
                    f1 = fn
                    x1 = xn
                    y1 = yn
                    z1 = zn
            else:
                f2 = fn
                x2 = xn
                y2 = yn
                z2 = zn
        else:
            f3 = fn
            x3 = xn
            y3 = yn
            z3 = zn
        it += 1

    return (x0, y0, z0, f0, it)
