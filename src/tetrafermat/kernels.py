"""Scalar kernels: distance sums, resultants of unit vectors, the
safeguarded Newton iteration for the four-point distance minimizer, and a
simplex minimizer specialized to the same objective.

Every kernel takes ``rows``, the four vertices as (x, y, z) tuples of Python
floats (``Tetrahedron.rows``, built once per tetrahedron).  Scalar math
only; no numpy inside the loops.  With four points the per-call overhead of
numpy outweighs the arithmetic it would vectorize.
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
#: nearest vertex's distance, then halvings) before falling back to the
#: reweighted-average point
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


def _resultant(rows, x, y, z, skip):
    """Sum of the unit vectors from (x, y, z) toward every row but row
    ``skip`` (-1 keeps all four); no kept row may coincide with the point."""
    rx = ry = rz = 0.0
    for j, (vx, vy, vz) in enumerate(rows):
        if j == skip:
            continue
        dx = vx - x
        dy = vy - y
        dz = vz - z
        d = sqrt(dx * dx + dy * dy + dz * dz)
        rx += dx / d
        ry += dy / d
        rz += dz / d
    return rx, ry, rz


def resultant_norm(rows, x: float, y: float, z: float) -> float:
    """Norm of the sum of unit vectors from (x, y, z) toward the four rows.

    This is the balancing residual; zero exactly at an interior minimizer.
    The point must not coincide with a row.
    """
    rx, ry, rz = _resultant(rows, x, y, z, -1)
    return sqrt(rx * rx + ry * ry + rz * rz)


def pull_norms(rows) -> tuple[float, float, float, float]:
    """Pull norm of each row, in row order: the norm of the sum of the unit
    vectors from the other three rows toward it (the resultant at the row,
    negated)."""
    out = []
    for i, (x, y, z) in enumerate(rows):
        rx, ry, rz = _resultant(rows, x, y, z, i)
        out.append(sqrt(rx * rx + ry * ry + rz * rz))
    return tuple(out)


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
    shortened trials are made in all.  When no trial point passes, the
    iterate moves to the reweighted-average (Weiszfeld) point
    ``sum(v_i / d_i) / sum(1 / d_i)``, a descent step in exact arithmetic.
    This is the quadratically convergent scheme of Overton (Math.
    Programming 27, 1983), which keeps its guarantees with any sequence of
    trial steps that ends in the same acceptance test.

    An iterate within ``vertex_eps`` of a row is a singular point of the
    iteration; it restarts ``escape_step`` off the row along the resultant
    of the other three legs there, the negated pull (the descent ray,
    nonzero by the precondition).  ``vertex_eps`` and ``escape_step`` are
    absolute lengths.  Each Newton step, fallback step and escape counts
    as one iteration.

    Returns ``(x, y, z, residual, iterations, status)``, where ``residual``
    is the balancing residual (the norm of ``g``) at (x, y, z) and status
    is CONVERGED (residual <= ``grad_tol``) or MAXITER (``max_iter``
    iterations ran out).
    """
    dist = _distance_fn(rows)
    x, y, z = float(sx), float(sy), float(sz)
    it = 0
    while True:
        dmin = -1.0
        imin = -1
        f = 0.0
        dists = []
        for i, (vx, vy, vz) in enumerate(rows):
            dx = x - vx
            dy = y - vy
            dz = z - vz
            d = sqrt(dx * dx + dy * dy + dz * dz)
            dists.append(d)
            f += d
            if dmin < 0.0 or d < dmin:
                dmin = d
                imin = i
        if dmin <= vertex_eps:
            vx, vy, vz = rows[imin]
            rx, ry, rz = _resultant(rows, vx, vy, vz, imin)
            rn = sqrt(rx * rx + ry * ry + rz * rz)
            x = vx + escape_step * rx / rn
            y = vy + escape_step * ry / rn
            z = vz + escape_step * rz / rn
            it += 1
            if it >= max_iter:
                res = resultant_norm(rows, x, y, z)
                return (x, y, z, res, it, MAXITER)
            continue
        gx = gy = gz = 0.0
        hxx = hyy = hzz = hxy = hxz = hyz = 0.0
        for i, (vx, vy, vz) in enumerate(rows):
            w = 1.0 / dists[i]
            ux = (vx - x) * w
            uy = (vy - y) * w
            uz = (vz - z) * w
            gx += ux
            gy += uy
            gz += uz
            hxx += (1.0 - ux * ux) * w
            hyy += (1.0 - uy * uy) * w
            hzz += (1.0 - uz * uz) * w
            hxy -= ux * uy * w
            hxz -= ux * uz * w
            hyz -= uy * uz * w
        res = sqrt(gx * gx + gy * gy + gz * gz)
        if res <= grad_tol:
            return (x, y, z, res, it, CONVERGED)
        if it >= max_iter:
            return (x, y, z, res, it, MAXITER)
        it += 1
        c00 = hyy * hzz - hyz * hyz
        c01 = hxz * hyz - hxy * hzz
        c02 = hxy * hyz - hxz * hyy
        det = hxx * c00 + hxy * c01 + hxz * c02
        stepped = False
        if det > 0.0:
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
                if dist(nx, ny, nz) <= fmax:
                    x, y, z = nx, ny, nz
                    stepped = True
                    break
                if k == 0:
                    # the quadratic model of a leg holds only within about
                    # its length, so retry at the nearest vertex's distance
                    t = dmin / sqrt(px * px + py * py + pz * pz)
                    if t >= 0.5:
                        t = 0.5
                else:
                    t *= 0.5
        if not stepped:
            sxx = syy = szz = sw = 0.0
            for i, (vx, vy, vz) in enumerate(rows):
                w = 1.0 / dists[i]
                sxx += vx * w
                syy += vy * w
                szz += vz * w
                sw += w
            x = sxx / sw
            y = syy / sw
            z = szz / sw


def nelder_mead(rows, sx, sy, sz, step, xatol, fatol, max_iter):
    """Nelder-Mead on the four-point distance sum, from (sx, sy, sz).

    Standard reflect/expand/contract/shrink scheme with coefficients
    1, 2, 0.5, 0.5.  Terminates when the simplex collapses below ``xatol``
    in every coordinate and the value spread drops below ``fatol``, or after
    ``max_iter`` iterations.  Returns ``(x, y, z, fmin, iterations)``.

    The vertices are kept ordered best to worst as if by a stable sort, so
    vertices with equal values keep their previous order: the first simplex
    and each shrunk one are sorted, and a new vertex replacing the worst is
    inserted after every survivor whose value does not exceed its own.  The
    returned vertex is the first one with the smallest value.  The answers
    are kept bit-identical on purpose, iteration counts included: every
    expression and the order of its floating-point operations is fixed,
    because the oracle's restarts and the tests that pin them depend on it.
    """
    f = _distance_fn(rows)
    x0, y0, z0 = float(sx), float(sy), float(sz)
    # the simplex: four [value, x, y, z] records, best first
    S = [
        [f(x0, y0, z0), x0, y0, z0],
        [f(x0 + step, y0, z0), x0 + step, y0, z0],
        [f(x0, y0 + step, z0), x0, y0 + step, z0],
        [f(x0, y0, z0 + step), x0, y0, z0 + step],
    ]
    value = itemgetter(0)
    S.sort(key=value)

    it = 0
    while it < max_iter:
        f0, x0, y0, z0 = S[0]
        f1, x1, y1, z1 = S[1]
        f2, x2, y2, z2 = S[2]
        f3, x3, y3, z3 = S[3]
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
            xe = 3.0 * cx - 2.0 * x3
            ye = 3.0 * cy - 2.0 * y3
            ze = 3.0 * cz - 2.0 * z3
            fe = f(xe, ye, ze)
            if fe < fr:
                new = [fe, xe, ye, ze]
            else:
                new = [fr, xr, yr, zr]
        elif fr < f2:
            new = [fr, xr, yr, zr]
        else:
            if fr < f3:
                xc = 1.5 * cx - 0.5 * x3
                yc = 1.5 * cy - 0.5 * y3
                zc = 1.5 * cz - 0.5 * z3
                fc = f(xc, yc, zc)
                shrink = fc > fr
            else:
                xc = 0.5 * cx + 0.5 * x3
                yc = 0.5 * cy + 0.5 * y3
                zc = 0.5 * cz + 0.5 * z3
                fc = f(xc, yc, zc)
                shrink = fc >= f3
            if shrink:
                for k in (1, 2, 3):
                    _, x, y, z = S[k]
                    x = x0 + 0.5 * (x - x0)
                    y = y0 + 0.5 * (y - y0)
                    z = z0 + 0.5 * (z - z0)
                    S[k] = [f(x, y, z), x, y, z]
                S.sort(key=value)
                it += 1
                continue
            new = [fc, xc, yc, zc]
        fn = new[0]
        if fn < f1:
            if fn < f0:
                S = [new, S[0], S[1], S[2]]
            else:
                S = [S[0], new, S[1], S[2]]
        elif fn < f2:
            S[3] = S[2]
            S[2] = new
        else:
            S[3] = new
        it += 1

    f0, x, y, z = S[0]
    return (x, y, z, f0, it)
