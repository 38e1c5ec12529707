"""Scalar kernels: distance sums, resultants of unit vectors, the
safeguarded Newton iteration for the four-point distance minimizer and its
start off a vertex, and a simplex minimizer specialized to the same
objective.  ``newton`` has one step path: a Newton step that finds no
trial point it can accept ends the iteration.

Every kernel takes ``rows``, the four vertices as (x, y, z) tuples of Python
floats (``Tetrahedron.rows``, built once per tetrahedron).  Scalar math
only; no numpy inside the loops.  With four points the per-call overhead of
numpy outweighs the arithmetic it would vectorize.  The hot kernels
(``pull_norms``, ``newton``, ``nelder_mead``'s objective) bind the twelve row
coordinates once and write the four legs (for ``pull_norms`` the six edges)
out as straight-line code, with no per-row loop; ``newton`` carries the
distances of an accepted trial point into the next iterate.  Each keeps the
floating-point operations of a per-row loop in the same order, so its
answers are bit-identical to one.
"""

from __future__ import annotations

from math import sqrt
from operator import itemgetter

# newton() status codes
CONVERGED = 0
MAXITER = 1

#: a trial point is accepted when it raises the objective by at most this
#: relative amount, so steps that change it only at rounding level are kept
ACCEPT_SLACK = 1e-15
#: shortened Newton steps tried after a rejected full step (the retry at the
#: nearest vertex's distance, then halvings) before the iteration gives up
MAX_HALVINGS = 30


def _distance_fn(rows):
    """``f(x, y, z)``: the sum of the distances to the four rows, added left
    to right, with the rows' twelve coordinates bound once."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows

    def f(x, y, z):
        xa = x - ax
        ya = y - ay
        za = z - az
        xb = x - bx
        yb = y - by
        zb = z - bz
        xc = x - cx
        yc = y - cy
        zc = z - cz
        xd = x - dx
        yd = y - dy
        zd = z - dz
        return (sqrt(xa * xa + ya * ya + za * za)
                + sqrt(xb * xb + yb * yb + zb * zb)
                + sqrt(xc * xc + yc * yc + zc * zc)
                + sqrt(xd * xd + yd * yd + zd * zd))

    return f


def distance_sum(rows, x: float, y: float, z: float) -> float:
    """Sum of Euclidean distances from (x, y, z) to the four rows."""
    return _distance_fn(rows)(x, y, z)


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


def _vertex_resultants(rows):
    """The resultant at each row, in row order: the sum of the unit vectors
    from the row toward the other three, taken in row order.

    Straight-line code over the six edges, each normalised once: the unit
    from row i toward row j (i < j) serves row i, and its negation, which
    is exact, serves row j.  Each sum starts from 0.0, as a per-row loop's
    does, so the results match that loop bit for bit, signed zeros
    included.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
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


def pull_norms(rows) -> tuple[float, float, float, float]:
    """Pull norm of each row, in row order: the norm of the sum of the unit
    vectors from the other three rows toward it (the resultant at the row,
    negated)."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = (
        _vertex_resultants(rows)
    )
    return (
        sqrt(ax * ax + ay * ay + az * az),
        sqrt(bx * bx + by * by + bz * bz),
        sqrt(cx * cx + cy * cy + cz * cz),
        sqrt(dx * dx + dy * dy + dz * dz),
    )


def vertex_ray_start(rows, k):
    """One Newton step off row ``k`` along its descent ray: ``v_k + s r``.

    The legs from row k toward the other three rows, taken in row order,
    give units u_j and weights w_j = 1 / d_j; their resultant, of norm p
    (row k's pull norm, up to rounding), gives the unit ray r.  Along the
    ray the distance sum is phi(s) = s + sum_j |v_k + s r - v_j|, with
    phi'(0) = 1 - p and phi''(0) = kappa = sum_j (1 - (u_j . r)^2) w_j, so
    the step is s = (p - 1) / kappa.  It is exact to first order when the
    minimizer sits near v_k, and positive when p > 1 (the interior case);
    far from v_k it can land outside the hull, and ``newton``'s safeguards
    take it from there.  Straight-line code, like ``_vertex_resultants``.
    """
    vx, vy, vz = rows[k]
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = rows[:k] + rows[k + 1:]
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


def newton(rows, sx, sy, sz, grad_tol, max_iter, vertex_eps, escape_step):
    """Safeguarded Newton iteration for the four-point distance minimizer.

    Precondition: no row passes the vertex-optimality test (every pull
    norm exceeds 1), so the minimizer is interior.  ``solver.solve`` runs
    ``solver.classify`` first and calls this only in the interior case.

    Each iteration solves ``H s = g``, where ``g`` is the sum of the unit
    vectors u_i toward the rows (the negative gradient) and
    ``H = sum (I - u_i u_i^T) / d_i`` the Hessian, by the closed-form 3x3
    adjugate, and takes the step only when ``det H > 0``.  A trial point is
    accepted when the objective rises by at most ``ACCEPT_SLACK`` relative
    to the current value.  The full step is tried first.  The quadratic
    model of a leg ``|x - v_i|`` holds only within about ``d_i`` of
    ``v_i``, so a rejected full step ``s`` is retried at length ``dmin``,
    the distance to the nearest row (step fraction ``dmin / |s|``, when
    that is below 0.5, else 0.5), and then halved; ``MAX_HALVINGS``
    shortened trials are made in all.  When no trial point passes, or when
    ``det H`` is not positive (zero or negative after rounding, or NaN when
    the distances are so small, about 1e-103 and below, that the
    determinant, cubic in the weights ``1 / d_i``, sums terms that overflow
    to ``inf - inf``), the iteration stops with MAXITER at the iterate it
    stands at; that step counts as an iteration, and ``solver.solve``
    raises NonConvergence on it.  This is the quadratically convergent
    scheme of Overton (Math. Programming 27, 1983), which keeps its
    guarantees with any sequence of trial steps that ends in the same
    acceptance test.

    An iterate within ``vertex_eps`` of a row is a singular point of the
    iteration; it restarts ``escape_step`` off the row along the resultant
    of the other three legs there, the negated pull (the descent ray,
    nonzero by the precondition).  ``vertex_eps`` and ``escape_step`` are
    lengths in the units of ``rows``.  Each Newton step and escape counts
    as one iteration.

    The four legs, distances, gradient and Hessian are straight-line code
    on the twelve row coordinates, bound once.  The distances an accepted
    trial point was judged by are the next iterate's distances and are not
    computed again.  Every floating-point operation keeps the order of a
    per-row loop that accumulates from 0.0.  The distance, gradient and
    diagonal Hessian sums start from their first term instead, which
    cannot change them, as none of their terms is -0.0; the off-diagonal
    Hessian terms (``0.0 - a - b - c - d``) keep the 0.0, as a -0.0 term
    can occur there.

    Returns ``(x, y, z, value, residual, iterations, status)``, where
    ``value`` is the distance sum at (x, y, z), bit-identical to
    ``distance_sum`` there (the same squares, summed left to right),
    ``residual`` is the balancing residual (the norm of ``g``) at (x, y, z)
    and status is CONVERGED (residual <= ``grad_tol``) or MAXITER
    (``max_iter`` iterations ran out, or a step found no trial point).
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    x, y, z = float(sx), float(sy), float(sz)
    it = 0
    carried = False
    while True:
        # the legs toward the rows; each squares exactly as its negation,
        # so the distances match the objective's
        ex0, ey0, ez0 = ax - x, ay - y, az - z
        ex1, ey1, ez1 = bx - x, by - y, bz - z
        ex2, ey2, ez2 = cx - x, cy - y, cz - z
        ex3, ey3, ez3 = dx - x, dy - y, dz - z
        if carried:
            carried = False
        else:
            d0 = sqrt(ex0 * ex0 + ey0 * ey0 + ez0 * ez0)
            d1 = sqrt(ex1 * ex1 + ey1 * ey1 + ez1 * ez1)
            d2 = sqrt(ex2 * ex2 + ey2 * ey2 + ez2 * ez2)
            d3 = sqrt(ex3 * ex3 + ey3 * ey3 + ez3 * ez3)
            f = d0 + d1 + d2 + d3
        dmin, imin = d0, 0
        if d1 < dmin:
            dmin, imin = d1, 1
        if d2 < dmin:
            dmin, imin = d2, 2
        if d3 < dmin:
            dmin, imin = d3, 3
        if dmin <= vertex_eps:
            vx, vy, vz = rows[imin]
            rx, ry, rz = _vertex_resultants(rows)[imin]
            rn = sqrt(rx * rx + ry * ry + rz * rz)
            x = vx + escape_step * rx / rn
            y = vy + escape_step * ry / rn
            z = vz + escape_step * rz / rn
            it += 1
            if it >= max_iter:
                res = resultant_norm(rows, x, y, z)
                return (x, y, z, distance_sum(rows, x, y, z), res, it, MAXITER)
            continue
        w0 = 1.0 / d0
        w1 = 1.0 / d1
        w2 = 1.0 / d2
        w3 = 1.0 / d3
        ux0, uy0, uz0 = ex0 * w0, ey0 * w0, ez0 * w0
        ux1, uy1, uz1 = ex1 * w1, ey1 * w1, ez1 * w1
        ux2, uy2, uz2 = ex2 * w2, ey2 * w2, ez2 * w2
        ux3, uy3, uz3 = ex3 * w3, ey3 * w3, ez3 * w3
        gx = ux0 + ux1 + ux2 + ux3
        gy = uy0 + uy1 + uy2 + uy3
        gz = uz0 + uz1 + uz2 + uz3
        res = sqrt(gx * gx + gy * gy + gz * gz)
        if res <= grad_tol:
            return (x, y, z, f, res, it, CONVERGED)
        if it >= max_iter:
            return (x, y, z, f, res, it, MAXITER)
        it += 1
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
        if not det > 0.0:
            # zero or negative after rounding, or NaN: no Newton step
            return (x, y, z, f, res, it, MAXITER)
        c11 = hxx * hzz - hxz * hxz
        c12 = hxy * hxz - hxx * hyz
        c22 = hxx * hyy - hxy * hxy
        px = (c00 * gx + c01 * gy + c02 * gz) / det
        py = (c01 * gx + c11 * gy + c12 * gz) / det
        pz = (c02 * gx + c12 * gy + c22 * gz) / det
        fmax = f * (1.0 + ACCEPT_SLACK)
        t = 1.0
        for k in range(MAX_HALVINGS + 1):
            nx = x + t * px
            ny = y + t * py
            nz = z + t * pz
            tx, ty, tz = nx - ax, ny - ay, nz - az
            n0 = sqrt(tx * tx + ty * ty + tz * tz)
            tx, ty, tz = nx - bx, ny - by, nz - bz
            n1 = sqrt(tx * tx + ty * ty + tz * tz)
            tx, ty, tz = nx - cx, ny - cy, nz - cz
            n2 = sqrt(tx * tx + ty * ty + tz * tz)
            tx, ty, tz = nx - dx, ny - dy, nz - dz
            n3 = sqrt(tx * tx + ty * ty + tz * tz)
            fn = n0 + n1 + n2 + n3
            if fn <= fmax:
                x, y, z = nx, ny, nz
                d0, d1, d2, d3, f = n0, n1, n2, n3, fn
                carried = True
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


def nelder_mead(rows, sx, sy, sz, step, xatol, fatol, max_iter):
    """Nelder-Mead on the four-point distance sum, from (sx, sy, sz).

    Standard reflect/expand/contract/shrink scheme with coefficients
    1, 2, 0.5, 0.5.  Terminates when the simplex collapses below ``xatol``
    in every coordinate and the value spread drops below ``fatol``, or after
    ``max_iter`` iterations.  Returns ``(x, y, z, fmin, iterations)``.

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
    """
    f = _distance_fn(rows)
    x0, y0, z0 = float(sx), float(sy), float(sz)
    value = itemgetter(0)
    s0, s1, s2, s3 = sorted(
        [
            (f(x0, y0, z0), x0, y0, z0),
            (f(x0 + step, y0, z0), x0 + step, y0, z0),
            (f(x0, y0 + step, z0), x0, y0 + step, z0),
            (f(x0, y0, z0 + step), x0, y0, z0 + step),
        ],
        key=value,
    )
    f0, x0, y0, z0 = s0
    f1, x1, y1, z1 = s1
    f2, x2, y2, z2 = s2
    f3, x3, y3, z3 = s3

    it = 0
    while it < max_iter:
        if f3 - f0 <= fatol and max(
            abs(x1 - x0), abs(y1 - y0), abs(z1 - z0),
            abs(x2 - x0), abs(y2 - y0), abs(z2 - z0),
            abs(x3 - x0), abs(y3 - y0), abs(z3 - z0),
        ) <= xatol:
            break

        cx = (x0 + x1 + x2) / 3.0
        cy = (y0 + y1 + y2) / 3.0
        cz = (z0 + z1 + z2) / 3.0

        xr = 2.0 * cx - x3
        yr = 2.0 * cy - y3
        zr = 2.0 * cz - z3
        fr = f(xr, yr, zr)
        if fr < f0:
            xn = 3.0 * cx - 2.0 * x3
            yn = 3.0 * cy - 2.0 * y3
            zn = 3.0 * cz - 2.0 * z3
            fn = f(xn, yn, zn)
            # the expansion replaces the reflection only when strictly better
            if not fn < fr:
                fn = fr
                xn = xr
                yn = yr
                zn = zr
        elif fr < f2:
            fn = fr
            xn = xr
            yn = yr
            zn = zr
        else:
            if fr < f3:
                xn = 1.5 * cx - 0.5 * x3
                yn = 1.5 * cy - 0.5 * y3
                zn = 1.5 * cz - 0.5 * z3
                fn = f(xn, yn, zn)
                shrink = fn > fr
            else:
                xn = 0.5 * cx + 0.5 * x3
                yn = 0.5 * cy + 0.5 * y3
                zn = 0.5 * cz + 0.5 * z3
                fn = f(xn, yn, zn)
                shrink = fn >= f3
            if shrink:
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
                        (f(x1, y1, z1), x1, y1, z1),
                        (f(x2, y2, z2), x2, y2, z2),
                        (f(x3, y3, z3), x3, y3, z3),
                    ],
                    key=value,
                )
                f0, x0, y0, z0 = s0
                f1, x1, y1, z1 = s1
                f2, x2, y2, z2 = s2
                f3, x3, y3, z3 = s3
                it += 1
                continue
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
