"""Behavior of the numeric kernels."""

import math
from operator import itemgetter

import numpy as np
import pytest

from tetrafermat import NonConvergence, Tetrahedron, kernels
from tetrafermat.ops import FLOATS, Columns
from tetrafermat.sampling import random_tetrahedron
from tetrafermat.solver import (
    BOUNDARY_EPS, GRAD_TOL, INTERIOR, _newton_start, classify, solve,
)

from conftest import input_rows
from corpora import MIRROR_TIE, known_answer_tetrahedron

# the kernels are tested on rows in input units, as they read any rows
RIGHT_CORNER = input_rows(Tetrahedron(
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
))
SYMMETRIC = input_rows(Tetrahedron(
    np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
))
# a tetrahedron whose smallest pull norm is 1 + 7.6e-5 (vertex 3)
NEAR_TIE = input_rows(Tetrahedron(np.array([
    [0.8949727407898387, 0.8604144367749376, 0.32137482233751336],
    [0.31687460853267846, 0.29913400765044673, 0.6884899769535706],
    [0.4134545612807018, 0.700293235979378, 0.36862247125054426],
    [0.16478835974904438, 0.9082636842342459, 0.5414058680395614],
])))


#: seed-0 unit-cube input 0 translated by 1e5: the balancing residual
#: stalls above grad_tol there, so every budget ends in MAXITER
OFFSET_1E5 = Tetrahedron(random_tetrahedron(0, 0).vertices + 1e5)


# Per-row loop versions of ``pull_norms``, ``newton`` and ``nelder_mead``:
# the reference the straight-line kernels must match bit for bit.


def loop_resultant(rows, x, y, z, skip):
    rx = ry = rz = 0.0
    for j, (vx, vy, vz) in enumerate(rows):
        if j == skip:
            continue
        dx = vx - x
        dy = vy - y
        dz = vz - z
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        rx += dx / d
        ry += dy / d
        rz += dz / d
    return rx, ry, rz


def loop_distance_sum(rows, x, y, z):
    f = 0.0
    for vx, vy, vz in rows:
        dx = x - vx
        dy = y - vy
        dz = z - vz
        f += math.sqrt(dx * dx + dy * dy + dz * dz)
    return f


def loop_pull_norms(rows):
    out = []
    for i, (x, y, z) in enumerate(rows):
        rx, ry, rz = loop_resultant(rows, x, y, z, i)
        out.append(math.sqrt(rx * rx + ry * ry + rz * rz))
    return tuple(out)


def loop_newton(rows, sx, sy, sz, grad_tol, max_iter, vertex_eps):
    x, y, z = float(sx), float(sy), float(sz)
    escape_step = 10.0 * vertex_eps
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
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            dists.append(d)
            f += d
            if dmin < 0.0 or d < dmin:
                dmin = d
                imin = i
        if dmin <= vertex_eps:
            vx, vy, vz = rows[imin]
            rx, ry, rz = loop_resultant(rows, vx, vy, vz, imin)
            rn = math.sqrt(rx * rx + ry * ry + rz * rz)
            x = vx + escape_step * rx / rn
            y = vy + escape_step * ry / rn
            z = vz + escape_step * rz / rn
            it += 1
            if it >= max_iter:
                rx, ry, rz = loop_resultant(rows, x, y, z, -1)
                res = math.sqrt(rx * rx + ry * ry + rz * rz)
                f = loop_distance_sum(rows, x, y, z)
                return (x, y, z, f, res, it, kernels.MAXITER)
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
        res = math.sqrt(gx * gx + gy * gy + gz * gz)
        if res <= grad_tol:
            return (x, y, z, f, res, it, kernels.CONVERGED)
        if it >= max_iter:
            return (x, y, z, f, res, it, kernels.MAXITER)
        it += 1
        c00 = hyy * hzz - hyz * hyz
        c01 = hxz * hyz - hxy * hzz
        c02 = hxy * hyz - hxz * hyy
        det = hxx * c00 + hxy * c01 + hxz * c02
        if not det > 0.0:
            return (x, y, z, f, res, it, kernels.MAXITER)
        c11 = hxx * hzz - hxz * hxz
        c12 = hxy * hxz - hxx * hyz
        c22 = hxx * hyy - hxy * hxy
        px = (c00 * gx + c01 * gy + c02 * gz) / det
        py = (c01 * gx + c11 * gy + c12 * gz) / det
        pz = (c02 * gx + c12 * gy + c22 * gz) / det
        fmax = f * (1.0 + kernels.ACCEPT_SLACK)
        t = 1.0
        for k in range(kernels.MAX_HALVINGS + 1):
            nx = x + t * px
            ny = y + t * py
            nz = z + t * pz
            if loop_distance_sum(rows, nx, ny, nz) <= fmax:
                x, y, z = nx, ny, nz
                break
            if k == 0:
                t = dmin / math.sqrt(px * px + py * py + pz * pz)
                if t >= 0.5:
                    t = 0.5
            else:
                t *= 0.5
        else:
            return (x, y, z, f, res, it, kernels.MAXITER)


def loop_nelder_mead(rows, sx, sy, sz, step, xatol, fatol, max_iter, seen):
    """A plain simplex of four ``(f, x, y, z)`` vertices, sorted stably by
    value, each value from ``loop_distance_sum``; adds to ``seen`` the name
    of every step it takes and of the test that stops it."""
    def vertex(x, y, z):
        return (loop_distance_sum(rows, x, y, z), x, y, z)

    def toward(simplex, a, b):
        # a * (the centroid of the three best) + b * (the worst); p + -q
        # rounds as p - q, so a negative b gives the kernel's difference
        c = [(simplex[0][k] + simplex[1][k] + simplex[2][k]) / 3.0 for k in (1, 2, 3)]
        return vertex(*[a * c[k - 1] + b * simplex[3][k] for k in (1, 2, 3)])

    x, y, z = float(sx), float(sy), float(sz)
    simplex = sorted(
        [vertex(x, y, z), vertex(x + step, y, z), vertex(x, y + step, z),
         vertex(x, y, z + step)],
        key=itemgetter(0),
    )
    it = 0
    while True:
        best, worst = simplex[0], simplex[3]
        if it >= max_iter:
            seen.add("budget")
            break
        if worst[0] == best[0]:
            seen.add("equal values")
            break
        spread = max(abs(v[k] - best[k]) for v in simplex[1:] for k in (1, 2, 3))
        if worst[0] - best[0] <= fatol and spread <= xatol:
            seen.add("tolerances")
            break
        it += 1
        reflected = toward(simplex, 2.0, -1.0)
        if reflected[0] < best[0]:
            expanded = toward(simplex, 3.0, -2.0)
            kept = expanded[0] < reflected[0]
            seen.add("expansion kept" if kept else "expansion dropped")
            new = expanded if kept else reflected
        elif reflected[0] < simplex[2][0]:
            seen.add("reflection")
            new = reflected
        else:
            if reflected[0] < worst[0]:
                seen.add("outside contraction")
                new = toward(simplex, 1.5, -0.5)
                shrink = new[0] > reflected[0]
            else:
                seen.add("inside contraction")
                new = toward(simplex, 0.5, 0.5)
                shrink = new[0] >= worst[0]
            if shrink:
                seen.add("shrink")
                simplex = sorted(
                    [best] + [
                        vertex(*[best[k] + 0.5 * (v[k] - best[k]) for k in (1, 2, 3)])
                        for v in simplex[1:]
                    ],
                    key=itemgetter(0),
                )
                continue
        # after every survivor whose value does not exceed the new one's
        survivors = simplex[:3]
        k = len([v for v in survivors if not v[0] > new[0]])
        simplex = survivors[:k] + [new] + survivors[k:]
    f, x, y, z = simplex[0]
    return (x, y, z, f, it)


def loop_vertex_ray_start(rows, k):
    """Per-row loop version of ``ray_start`` off row k."""
    vx, vy, vz = rows[k]
    units, weights = [], []
    for j, (x, y, z) in enumerate(rows):
        if j == k:
            continue
        ex, ey, ez = x - vx, y - vy, z - vz
        d = math.sqrt(ex * ex + ey * ey + ez * ez)
        units.append((ex / d, ey / d, ez / d))
        weights.append(1.0 / d)
    rx = ry = rz = 0.0
    for ux, uy, uz in units:
        rx += ux
        ry += uy
        rz += uz
    p = math.sqrt(rx * rx + ry * ry + rz * rz)
    rx, ry, rz = rx / p, ry / p, rz / p
    kappa = 0.0
    for (ux, uy, uz), w in zip(units, weights):
        c = ux * rx + uy * ry + uz * rz
        kappa += (1.0 - c * c) * w
    s = (p - 1.0) / kappa
    return (vx + s * rx, vy + s * ry, vz + s * rz)


def numpy_vertex_ray_start(rows, k):
    """``v_k + (p - 1) / kappa * r`` from numpy's norms and products."""
    v = np.asarray(rows)
    legs = np.delete(v, k, axis=0) - v[k]
    d = np.linalg.norm(legs, axis=1)
    u = legs / d[:, None]
    r = u.sum(axis=0)
    p = np.linalg.norm(r)
    r = r / p
    kappa = np.sum((1.0 - (u @ r) ** 2) / d)
    return v[k] + (p - 1.0) / kappa * r


def corpus(n=40, seed=11):
    out = []
    for i in range(n):
        t = random_tetrahedron(seed, i)
        c = t.vertices.mean(axis=0)
        out.append((input_rows(t), (float(c[0]), float(c[1]), float(c[2]))))
    return out


def newton_iterates(v, start, count):
    """The start point and up to ``count`` Newton iterates after it; a run
    with budget k stops at the k-th iterate, so each is read off its own
    run."""
    out = [start]
    for k in range(1, count + 1):
        x, y, z, _, _, _, status = kernels.newton(v, *start, 1e-10, k, 1e-12)
        out.append((x, y, z))
        if status != kernels.MAXITER:
            break
    return out


def assert_monotone(v, iterates):
    """The objective never rises along the iterates by more than the
    rounding slack the step acceptance test allows."""
    prev = kernels.distance_sum(v, *iterates[0])
    for p in iterates[1:]:
        cur = kernels.distance_sum(v, *p)
        assert cur <= prev * (1.0 + kernels.ACCEPT_SLACK)
        prev = cur


class TestNewtonKernel:
    def test_monotone_descent(self):
        for v, c in corpus(20, seed=13):
            assert_monotone(v, newton_iterates(v, c, 60))

    def test_converged_status(self):
        v, c = corpus(1)[0]
        x, y, z, _, res, it, status = kernels.newton(
            v, *c, 1e-10, 10000, 1e-12
        )
        assert status == kernels.CONVERGED
        assert res <= 1e-10
        assert kernels.resultant_norm(v, x, y, z) <= 1e-10

    def test_maxiter_status(self):
        x, y, z, _, res, it, status = kernels.newton(
            RIGHT_CORNER, 0.25, 0.25, 0.25, 1e-10, 1, 1e-12
        )
        assert status == kernels.MAXITER
        assert it == 1
        assert res == kernels.resultant_norm(RIGHT_CORNER, x, y, z)

    @pytest.mark.parametrize(
        "start,vertex_eps",
        [
            ((0.0, 0.0, 0.0), 1e-12),
            # a vertex_eps wider than the centroid's distance to vertex 1
            ((0.25, 0.25, 0.25), 0.5),
        ],
        ids=["on_vertex", "within_vertex_eps"],
    )
    def test_vertex_escape(self, start, vertex_eps):
        # Vertex 1 of the right corner has pull norm sqrt(3) > 1, so an
        # iterate within vertex_eps of it restarts 10 * vertex_eps along the
        # descent ray (1, 1, 1) / sqrt(3); the escape uses up the budget and
        # the residual is the balancing residual there.
        x, y, z, _, res, it, status = kernels.newton(
            RIGHT_CORNER, *start, 1e-10, 1, vertex_eps
        )
        assert status == kernels.MAXITER
        assert it == 1
        e = 10.0 * vertex_eps / math.sqrt(3.0)
        assert (x, y, z) == (e, e, e)
        assert res == kernels.resultant_norm(RIGHT_CORNER, x, y, z)
        assert res > 0

    def test_singular_hessian_stops_at_start(self):
        # Far from the hull the four unit legs are nearly parallel, so H is
        # nearly singular along them; at 1e10 its determinant rounds to a
        # value <= 0, no Newton step can be taken, and the iteration stops
        # where it stands, whatever the budget.
        start = (1e10, 0.0, 0.0)
        x, y, z, f, res, it, status = kernels.newton(
            RIGHT_CORNER, *start, 1e-10, 10000, 1e-12
        )
        assert status == kernels.MAXITER
        assert it == 1
        assert (x, y, z) == start
        assert f == kernels.distance_sum(RIGHT_CORNER, *start)
        assert res == kernels.resultant_norm(RIGHT_CORNER, *start)

    def test_no_passing_trial_stops_at_start(self, monkeypatch):
        # with a negative slack no trial point passes the acceptance test:
        # the first step ends the iteration at its start, as in the loop
        monkeypatch.setattr(kernels, "ACCEPT_SLACK", -1.0)
        start = kernels.ray_start(RIGHT_CORNER[0], RIGHT_CORNER[1:], FLOATS)
        args = (RIGHT_CORNER, *start, 1e-10, 10000, 1e-12)
        out = kernels.newton(*args)
        assert out == loop_newton(*args)
        assert out[:3] == start
        assert out[5:] == (1, kernels.MAXITER)

    @pytest.mark.parametrize(
        "start",
        [(1e6, 0.0, 0.0), (1e6, 1e6, 1e6), (1e3, 0.0, 0.0)],
        ids=["far_axis", "far_diagonal", "near_axis"],
    )
    def test_far_start_converges(self, start):
        # A rejected full step is retried at the nearest vertex's distance.
        # A longer retry would let a far start jump to its mirror point,
        # where the objective is equal within the acceptance slack, and
        # bounce between the two until the budget runs out.
        x, y, z, _, res, it, status = kernels.newton(
            RIGHT_CORNER, *start, 1e-10, 10000, 1e-12
        )
        assert status == kernels.CONVERGED
        assert it <= 20
        assert np.allclose([x, y, z], 1.0 / 6.0, rtol=0, atol=1e-10)
        assert_monotone(RIGHT_CORNER, newton_iterates(RIGHT_CORNER, start, it))


class TestVertexRayStart:
    def test_right_corner_on_descent_ray(self):
        # vertex 1's three unit legs are the axes: the ray is (1, 1, 1) /
        # sqrt(3), p = sqrt(3), and each leg adds (1 - 1/3) / 1 to kappa
        p, kappa = math.sqrt(3.0), 2.0
        e = (p - 1.0) / kappa / math.sqrt(3.0)
        start = kernels.ray_start(RIGHT_CORNER[0], RIGHT_CORNER[1:], FLOATS)
        assert start == pytest.approx((e, e, e), abs=1e-15)

    def test_matches_loop_and_numpy_references(self):
        for i in range(200):
            t = random_tetrahedron(0, i)
            rows = input_rows(t)
            for k in range(4):
                start = kernels.ray_start(rows[k], rows[:k] + rows[k + 1:], FLOATS)
                assert start == loop_vertex_ray_start(rows, k)
                np.testing.assert_allclose(
                    start, numpy_vertex_ray_start(rows, k),
                    rtol=1e-12, atol=1e-13 * t.scale,
                )


class TestLeast:
    """``ops.least``, the first vertex with the least pull norm and the
    other three in row order: on columns as on floats, instance by
    instance."""

    @staticmethod
    def corpus():
        """Ties of the least pull norm at every vertex and at vertices 3
        and 4, then seed-0 interior inputs relabelled so that each of their
        vertices in turn takes the least pull norm."""
        out = [SYMMETRIC, input_rows(Tetrahedron(np.array(MIRROR_TIE)))]
        for i in range(40):
            rows = random_tetrahedron(0, i).frame
            pulls = kernels.pull_norms(rows)
            if min(pulls) <= 1.0 + BOUNDARY_EPS:
                continue
            k = min(range(4), key=pulls.__getitem__)
            for j in range(4):
                order = list(range(4))
                order[j], order[k] = k, j
                out.append(tuple(rows[o] for o in order))
        return out

    def test_columns_match_floats(self):
        cases = self.corpus()
        pulls = [kernels.pull_norms(v) for v in cases]
        want = [FLOATS.least(v, p) for v, p in zip(cases, pulls)]
        winners = [v.index(w[0]) for v, w in zip(cases, want)]
        assert winners[:2] == [0, 2] and set(winners) == {0, 1, 2, 3}
        rows = tuple(
            tuple(np.array([v[k][c] for v in cases]) for c in range(3))
            for k in range(4)
        )
        v, others = Columns.least(rows, np.array(pulls).T)
        for i, w in enumerate(want):
            got = (
                tuple(c[i].item() for c in v),
                tuple(tuple(c[i].item() for c in row) for row in others),
            )
            assert got == w

    def test_no_rows(self):
        # a chunk with no interior tetrahedron
        rows = tuple(tuple(np.empty(0) for _ in range(3)) for _ in range(4))
        v, others = Columns.least(rows, np.empty((4, 0)))
        assert np.shape(v) == (3, 0) and np.shape(others) == (3, 3, 0)


class TestLoopReference:
    """The straight-line kernels return the per-row loops' tuples exactly:
    same floats, same iteration counts, same statuses."""

    def test_pull_norms(self):
        cases = [RIGHT_CORNER, SYMMETRIC, NEAR_TIE, input_rows(OFFSET_1E5)]
        cases += [v for v, _ in corpus(300, seed=0)]
        for v in cases:
            assert kernels.pull_norms(v) == loop_pull_norms(v)

    @staticmethod
    def assert_newton_matches(v, start, max_iter, scale=1.0):
        args = (v, *start, 1e-10, max_iter, 1e-9 * scale)
        assert kernels.newton(*args) == loop_newton(*args)

    @staticmethod
    def interior_corpus(n, seed):
        """Corpus inputs that meet newton's precondition: every pull norm
        exceeds 1."""
        return [(v, c) for v, c in corpus(n, seed) if min(loop_pull_norms(v)) > 1.0]

    def test_newton_from_centroid(self):
        for seed in (0, 1):
            for v, c in self.interior_corpus(300, seed):
                self.assert_newton_matches(v, c, 10000)

    def test_newton_near_tie(self):
        c = tuple((a + b + c + d) / 4.0 for a, b, c, d in zip(*NEAR_TIE))
        self.assert_newton_matches(NEAR_TIE, c, 10000)

    def test_newton_from_each_vertex(self):
        # a start on a row is within vertex_eps of it: the escape path
        for v in [NEAR_TIE] + [v for v, _ in self.interior_corpus(20, 11)]:
            for start in v:
                self.assert_newton_matches(v, start, 10000)

    def test_newton_singular_hessian_start(self):
        # det H rounds to <= 0 far off the right corner: the iteration stops
        # at the first iterate
        for budget in (1, 2, 10000):
            self.assert_newton_matches(RIGHT_CORNER, (1e10, 0.0, 0.0), budget)

    def test_newton_nan_determinant_tiny_scale(self):
        # det H is NaN (inf - inf) at the centroid of 1e-102 x the unit cube,
        # unscaled: NaN is not positive, so the iteration stops there too
        t = Tetrahedron(random_tetrahedron(0, 2).vertices * 1e-102)
        rows = input_rows(t)
        c = tuple((a + b + c + d) / 4.0 for a, b, c, d in zip(*rows))
        self.assert_newton_matches(rows, c, 10000, t.scale)

    @pytest.mark.parametrize("budget", range(1, 21))
    def test_newton_maxiter_iterates_offset_input(self, budget):
        rows = input_rows(OFFSET_1E5)
        c = tuple((a + b + c + d) / 4.0 for a, b, c, d in zip(*rows))
        self.assert_newton_matches(rows, c, budget, OFFSET_1E5.scale)

    @pytest.mark.parametrize("budget", range(1, 5))
    def test_newton_budget_exit_known_answers(self, budget):
        # known answers seed 0 #0-23, from solve's start, with budgets too
        # small for most of them: where the budget runs out the iteration
        # stops at the loop's iterate, with its residual and count, and
        # solve's NonConvergence carries them
        stopped = 0
        for k in range(24):
            t, _ = known_answer_tetrahedron(0, k)
            cls = classify(t)
            if cls.kind != INTERIOR:
                continue
            m = t.to_frame
            start, eps = _newton_start(t.frame, cls.pull_norms, t.scale, m, FLOATS)
            args = (t.frame, *start, GRAD_TOL, budget, eps)
            x, y, z, _, res, it, status = got = kernels.newton(*args)
            assert got == loop_newton(*args)
            if status == kernels.CONVERGED:
                assert solve(t, budget).residual == res
                continue
            with pytest.raises(NonConvergence) as info:
                solve(t, budget)
            assert info.value.point.tolist() == [x / m, y / m, z / m]
            assert (info.value.residual, info.value.iterations) == (res, it)
            stopped += 1
        assert stopped >= 5


class TestNewtonColumns:
    """``newton_columns`` against ``newton``, instance by instance: every
    instance carries ``newton``'s outcome bit for bit, point, value,
    residual, iterations and status, CONVERGED or MAXITER, however many
    sweeps run in lockstep before the rest continue on floats with the
    budget left."""

    @staticmethod
    def cases():
        """(rows, start, vertex_eps) of instances that converge after
        full steps, after an escape from a start on a row, after rejected
        full steps from a far start, or never: a non-positive ``det H``
        at 1e10, an escape that uses the budget up, a stalled residual."""
        out = []
        for v, c in [(NEAR_TIE, None)] + TestLoopReference.interior_corpus(20, 11):
            out += [(v, start, 1e-9) for start in ([c] if c else []) + list(v)]
        out += [
            (RIGHT_CORNER, (1e6, 0.0, 0.0), 1e-12),
            (RIGHT_CORNER, (1e3, 0.0, 0.0), 1e-12),
            (RIGHT_CORNER, (1e10, 0.0, 0.0), 1e-12),
            (RIGHT_CORNER, (0.25, 0.25, 0.25), 0.5),
        ]
        rows = input_rows(OFFSET_1E5)
        c = tuple((a + b + c + d) / 4.0 for a, b, c, d in zip(*rows))
        return out + [(rows, c, 1e-9 * OFFSET_1E5.scale)]

    @pytest.mark.parametrize("tail", [0, 3, 10**6])
    @pytest.mark.parametrize("budget", [1, 3, 5, 32, 100])
    def test_done_instances_are_newtons(self, budget, tail):
        cases = self.cases()
        rows = tuple(
            tuple(np.array([v[k][i] for v, _, _ in cases]) for i in range(3))
            for k in range(4)
        )
        starts = np.array([start for _, start, _ in cases]).T
        eps = np.array([e for _, _, e in cases])
        got = kernels.newton_columns(rows, *starts, 1e-10, budget, eps, tail)
        assert got[5].dtype == got[6].dtype == np.int64
        statuses = set()
        for i, (v, start, e) in enumerate(cases):
            want = kernels.newton(v, *start, 1e-10, budget, e)
            statuses.add(want[6])
            assert [float.hex(float(c[i])) for c in got] == [
                float.hex(float(c)) for c in want
            ]
        assert kernels.MAXITER in statuses
        assert (kernels.CONVERGED in statuses) == (budget > 1)


class TestRows:
    def test_rows_match_elementwise_floats(self):
        # the kernels read Tetrahedron.frame, built once from the vertex
        # array; it must hold each element's float times to_frame, the
        # power of two that brings scale into [0.5, 1)
        for i in range(200):
            t = random_tetrahedron(0, i)
            vtx, m = t.vertices, t.to_frame
            assert math.frexp(m)[0] == 0.5 and 0.5 <= t.scale * m < 1.0
            expected = tuple(
                (float(vtx[k][0]) * m, float(vtx[k][1]) * m, float(vtx[k][2]) * m)
                for k in range(4)
            )
            assert type(t.frame) is tuple and len(t.frame) == 4
            assert all(type(r) is tuple for r in t.frame)
            assert t.frame == expected
            assert all(type(c) is float for r in t.frame for c in r)


class TestNelderMeadKernel:
    def test_minimizes_right_corner(self):
        x, y, z, fv, it = kernels.nelder_mead(
            RIGHT_CORNER, 0.3, 0.2, 0.4, 0.2, 1e-12, 1e-14, 2000
        )
        assert np.allclose([x, y, z], 1.0 / 6.0, atol=1e-7)
        assert fv == pytest.approx(5.0 * math.sqrt(3.0) / 3.0, abs=1e-12)

    def test_stops_on_equal_values(self):
        # a 1e-12 simplex at the minimizer: its four values round to one
        # number, so the search stops before its first iteration
        third = 1.0 / 6.0
        x, y, z, fv, it = kernels.nelder_mead(
            RIGHT_CORNER, third, third, third, 1e-12, 1e-15, 1e-14, 2000
        )
        assert (x, y, z, it) == (third, third, third, 0)
        assert fv == pytest.approx(5.0 * math.sqrt(3.0) / 3.0, abs=1e-15)

    def test_stops_on_infinite_values(self):
        x, y, z, fv, it = kernels.nelder_mead(
            RIGHT_CORNER, 1e308, 1e308, 1e308, 1.0, 1e-3, 1e-3, 50
        )
        assert (x, y, z, fv, it) == (1e308, 1e308, 1e308, math.inf, 0)

    def test_deterministic(self):
        v, c = corpus(1)[0]
        a = kernels.nelder_mead(v, *c, 0.2, 1e-10, 1e-13, 600)
        b = kernels.nelder_mead(v, *c, 0.2, 1e-10, 1e-13, 600)
        assert a == b

    #: ``oracle_solve``'s (step, xatol, fatol, max_iter), the first three in
    #: units of the tetrahedron's scale
    ORACLE_SETTINGS = (
        (0.2, 1e-3, 1e-6, 600), (1e-3, 1e-12, 1e-14, 500), (1e-5, 1e-12, 1e-14, 500),
    )

    def test_matches_loop_reference(self):
        # from the centroid, under each of the oracle's settings: the
        # corpus, the symmetric ties, the near tie, and two unit-cube inputs
        # whose minimizer is a vertex (a kink, where values keep differing),
        # as drawn and translated by 1e3, where the spacing of the
        # coordinates comes near xatol and the budget runs out
        vertex_minimizers = [random_tetrahedron(0, i).vertices for i in (4, 45)]
        assert all(classify(Tetrahedron(v)).kind != INTERIOR for v in vertex_minimizers)
        cases = [v for v, _ in corpus()] + [SYMMETRIC, NEAR_TIE] + [
            input_rows(Tetrahedron(v + offset))
            for offset in (0.0, 1e3) for v in vertex_minimizers
        ]
        seen = set()
        for v in cases:
            start = tuple((a + b + c + d) / 4.0 for a, b, c, d in zip(*v))
            scale = max(math.dist(p, q) for p in v for q in v)
            for step, xatol, fatol, max_iter in self.ORACLE_SETTINGS:
                args = (v, *start, step * scale, xatol * scale, fatol * scale, max_iter)
                got = kernels.nelder_mead(*args)
                want = loop_nelder_mead(*args, seen)
                assert [*map(float.hex, got[:4]), got[4]] == [
                    *map(float.hex, want[:4]), want[4]
                ]
        assert seen == {
            "reflection", "expansion kept", "expansion dropped",
            "outside contraction", "inside contraction", "shrink",
            "equal values", "tolerances", "budget",
        }

    @pytest.mark.parametrize(
        "vtx,start,args,expected",
        [
            # From the center the three perturbed vertices of the first
            # simplex have exactly equal values, so this case pins the
            # stable order of tied vertices.
            (
                SYMMETRIC, (0.0, 0.0, 0.0), (0.2, 1e-12, 1e-14, 2000),
                (0.0, 0.0, 0.0, 6.928203230275509, 118),
            ),
            (
                *corpus(1)[0], (0.2, 1e-10, 1e-13, 600),
                (0.6771431202334386, 0.568279692721028, 0.5237333610853623,
                 1.5887260825215628, 100),
            ),
            (
                NEAR_TIE,
                (0.44752256758806586, 0.692026341159752, 0.4799732846452973),
                (0.2, 1e-12, 1e-14, 2000),
                (0.41345571217665167, 0.7002947904084021, 0.3686362223114898,
                 1.3990646805304416, 182),
            ),
        ],
        ids=["symmetric_ties", "corpus", "near_tie"],
    )
    def test_pinned_output(self, vtx, start, args, expected):
        # The oracle's answers are kept bit-identical, iteration counts
        # included: any change to the order of the floating-point
        # operations or of tied vertices shows here.
        assert kernels.nelder_mead(vtx, *start, *args) == expected
