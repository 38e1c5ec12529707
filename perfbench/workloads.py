"""Workload side of the tetrafermat benchmark: one workload, one process.

Run by ``run.py`` in a fresh interpreter per measurement.  It builds the
workload's inputs from ``--seed``, times the package's public calls for
``--seconds`` seconds, checks every returned answer against its own numpy
recomputation, and prints one JSON object on stdout.

The package is driven only through names in ``tetrafermat.__all__`` plus
``tetrafermat.batch.run_batch_verify`` and
``tetrafermat.sampling.random_tetrahedron``.  With ``--trace 1`` each of
those calls is wrapped in a span from this file; nothing in the package is
patched.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import tetrafermat
from tetrafermat import (
    FiveAngles,
    NonConvergence,
    TetrafermatError,
    Tetrahedron,
    angle_sextuple,
    classify,
    direction_config,
    ft_substitution_residual,
    hull_points,
    objective,
    oracle_solve,
    resolve_branch,
    sixth_angle,
    solve,
    verify_fundamental_property,
)
from tetrafermat.batch import run_batch_verify
from tetrafermat.sampling import random_tetrahedron

from calibrate import REFERENCE_S, Probe

#: solver residual tolerance used by ``verify`` and ``batch-verify``
GRAD_TOL = 1e-10
#: a vertex is optimal when its pull norm is at most 1 + VERTEX_TOL
VERTEX_TOL = 1e-9
#: unit-cube tetrahedra flatter than this are redrawn, as batch-verify does
MIN_VOLUME = 1e-3
#: near-tie inputs put the smallest pull norm at 1 + 10**e, e in [-5, -2)
NEAR_TIE_DECADES = (-5, -4, -3)
#: golden-ratio step that spreads successive exponents evenly over a decade
GOLDEN = (5 ** 0.5 - 1) / 2
#: acceptance criterion 4: oracle agreement and probe-cloud bounds
ORACLE_OBJECTIVE_TOL = 1e-7
ORACLE_POSITION_TOL = 1e-5
PROBE_COUNT = 10_000
PROBE_SLACK = 1e-9
#: every span name a traced run reports, whether or not the workload calls it
SPANS = (
    "sampling.random_tetrahedron",
    "solver.classify",
    "solver.solve",
    "solver.oracle_solve",
    "solver.hull_points",
    "solver.objective",
    "geometry.direction_config",
    "properties.angle_sextuple",
    "properties.verify_fundamental_property",
    "formula.sixth_angle",
    "formula.resolve_branch",
    "formula.ft_substitution_residual",
)
FLAGS = ("boundary_tie", "vertex_capture", "outside_hull")
#: fewest whole timed passes over the inputs
MIN_PASSES = 2
#: wall time between two runs of the reference loop (see calibrate.py)
PROBE_PERIOD_S = 0.05
#: work scaled by the reference loops timed while it ran: at least this
#: much of it, and at least one loop
CHUNK_S = 0.1

PROBE = Probe(PROBE_PERIOD_S)
#: time that leaves out the reference loops
clock = PROBE.clock


# ---------------------------------------------------------------- tracing


def untraced(name, fn, *args):
    return fn(*args)


class Spans:
    """Call count and busy time per span name.

    Spans wrap single public calls and never each other, so a span's self
    time is its whole duration.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)

    def __call__(self, name, fn, *args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.self_s[name] += clock() - t0
            self.calls[name] += 1


# --------------------------------------------------- independent checks


def balance_residual(vertices: np.ndarray, point: np.ndarray) -> float:
    """|sum of unit vectors from ``point`` toward the four vertices|."""
    d = vertices - point
    u = d / np.sqrt((d * d).sum(axis=1))[:, None]
    r = u.sum(axis=0)
    return math.sqrt(float(r @ r))


def pull_norms(vertices: np.ndarray) -> np.ndarray:
    """Pull norm of every vertex: |sum of unit vectors from the other three
    vertices toward it|."""
    d = vertices[:, None, :] - vertices[None, :, :]
    n = np.sqrt((d * d).sum(axis=2))
    np.fill_diagonal(n, 1.0)
    return np.linalg.norm((d / n[:, :, None]).sum(axis=1), axis=1)


def gate(vertices: np.ndarray, sol) -> str | None:
    """Why a returned solution is wrong, or None when it checks out."""
    if sol.kind == "interior":
        r = balance_residual(vertices, sol.point)
        if not r <= GRAD_TOL:
            return f"interior residual {r:.3e} > {GRAD_TOL:.0e}"
        return None
    k = sol.vertex_index - 1
    if not np.array_equal(sol.point, vertices[k]):
        return f"vertex solution is not vertex {sol.vertex_index}"
    p = float(pull_norms(vertices)[k])
    if not p <= 1.0 + VERTEX_TOL:
        return f"vertex pull norm {p!r} > 1 + {VERTEX_TOL:.0e}"
    return None


# ------------------------------------------------------------- inputs


def unit_cube_tetrahedron(rng: np.random.Generator) -> Tetrahedron:
    while True:
        v = rng.random((4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) / 6.0 >= MIN_VOLUME:
            return Tetrahedron(v)


def cube_inputs(seed: int, count: int, stream: int) -> list[Tetrahedron]:
    return [
        unit_cube_tetrahedron(np.random.default_rng([seed, stream, i]))
        for i in range(count)
    ]


def near_tie_vertices(seed: int, index: int) -> np.ndarray:
    """A tetrahedron whose smallest pull norm is 1 + 10**e.

    Input ``index`` takes decade ``index % 3`` of NEAR_TIE_DECADES, so every
    decade gets a third of the inputs, and within it the fractional part
    of a seeded offset plus ``(index // 3)`` golden-ratio steps.  Whether
    the solver converges depends mostly on e, so spreading e evenly rather
    than at random keeps the failure count from swinging between seeds.

    Start from a unit-cube tetrahedron, take its vertex k of smallest pull
    norm, and slide it along the ray from the centroid of the other three
    vertices until its pull norm hits the target (bisection).  Draws whose
    ray never crosses the target, or whose result is flat or has another
    vertex below it, are redrawn; nothing is redrawn for how the solver
    fares on it.
    """
    rng = np.random.default_rng([seed, 3, index])
    offset = np.random.default_rng([seed, 4]).random()
    e = NEAR_TIE_DECADES[index % 3] + (offset + (index // 3) * GOLDEN) % 1.0
    target = 1.0 + 10.0 ** e
    while True:
        v0 = rng.random((4, 3))
        k = int(pull_norms(v0).argmin())
        g = np.delete(v0, k, axis=0).mean(axis=0)

        def at(s: float) -> np.ndarray:
            v = v0.copy()
            v[k] = g + s * (v0[k] - g)
            return v

        lo, hi = 0.0, 1.0
        if pull_norms(at(lo))[k] >= target:
            continue
        while pull_norms(at(hi))[k] <= target and hi < 1e3:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if pull_norms(at(mid))[k] < target:
                lo = mid
            else:
                hi = mid
        v = at(hi)
        p = pull_norms(v)
        if (
            abs(np.linalg.det(v[1:] - v[0])) / 6.0 >= MIN_VOLUME
            and int(p.argmin()) == k
            and 1.0 + 10.0 ** NEAR_TIE_DECADES[0] <= p[k] < 1.0 + 10.0 ** -2
        ):
            return v


# ----------------------------------------------------- one input, one call


class Outcome:
    """What one input produced: a solution, a typed error, or both."""

    __slots__ = ("tetra", "solution", "error", "exhausted_iterations",
                 "failed_check", "oracle")

    def __init__(self, tetra):
        self.tetra = tetra
        self.solution = None
        self.error = None
        #: iterations spent by a solve that raised NonConvergence
        self.exhausted_iterations = None
        #: the package's own identity check failed
        self.failed_check = None
        #: (oracle point, its objective, probe cloud or None)
        self.oracle = None

    def raised(self, exc: TetrafermatError):
        self.error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NonConvergence):
            self.exhausted_iterations = exc.iterations


def verify_path(tetra: Tetrahedron, call) -> Outcome:
    """The calls ``tetrafermat verify`` makes for one tetrahedron."""
    out = Outcome(tetra)
    try:
        call("solver.classify", classify, tetra)
        sol = out.solution = call("solver.solve", solve, tetra)
        if sol.kind == "interior":
            cfg = call("geometry.direction_config", direction_config, tetra, sol.point)
            call("properties.angle_sextuple", angle_sextuple, cfg)
            report = call(
                "properties.verify_fundamental_property",
                verify_fundamental_property, cfg,
            )
            if not report.passed:
                out.failed_check = "identity check above tol"
    except TetrafermatError as exc:
        out.raised(exc)
    return out


def oracle_path(tetra: Tetrahedron, index: int, seed: int, call) -> Outcome:
    """Acceptance criterion 4 for one tetrahedron: solver against oracle,
    and a vertex answer against a 10 000-point probe cloud."""
    out = Outcome(tetra)
    try:
        sol = out.solution = call("solver.solve", solve, tetra)
        orc = call("solver.oracle_solve", oracle_solve, tetra, index)
        f_orc = call("solver.objective", objective, tetra, orc)
        probes = None
        if sol.kind == "vertex":
            rng = np.random.default_rng([seed, index, 97])
            probes = call("solver.hull_points", hull_points, tetra, PROBE_COUNT, rng)
        out.oracle = (orc, f_orc, probes)
    except TetrafermatError as exc:
        out.raised(exc)
    return out


def oracle_miss(out: Outcome) -> str | None:
    """Criterion 4's bounds, checked from the outcome's numbers."""
    t, sol = out.tetra, out.solution
    orc, f_orc, probes = out.oracle
    scale = t.scale
    gap = abs(f_orc - sol.objective_value) / scale
    if not gap <= ORACLE_OBJECTIVE_TOL:
        return f"oracle objective gap {gap:.3e}"
    pos = float(np.linalg.norm(orc - sol.point))
    if not pos <= ORACLE_POSITION_TOL:
        return f"oracle position gap {pos:.3e}"
    if probes is not None:
        d = probes[:, None, :] - t.vertices[None, :, :]
        best = float(np.sqrt((d * d).sum(axis=2)).sum(axis=1).min())
        if not sol.objective_value <= best + PROBE_SLACK * scale:
            return "a probe point beats the vertex solution"
    return None


def batch_replay(corpus_seed: int, count: int, call) -> list[Outcome]:
    """The per-instance calls run_batch_verify makes, made one at a time so
    that each can carry a span."""
    outcomes = []
    for i in range(count):
        t = call("sampling.random_tetrahedron", random_tetrahedron, corpus_seed, i)
        out = Outcome(t)
        outcomes.append(out)
        try:
            sol = out.solution = call("solver.solve", solve, t)
        except TetrafermatError as exc:
            out.raised(exc)
            continue
        if sol.kind != "interior":
            continue
        cfg = call("geometry.direction_config", direction_config, t, sol.point)
        s = call("properties.angle_sextuple", angle_sextuple, cfg)
        report = call(
            "properties.verify_fundamental_property", verify_fundamental_property, cfg
        )
        if not report.passed:
            out.failed_check = "identity check above tol"
        try:
            call(
                "formula.sixth_angle",
                lambda: sixth_angle(FiveAngles(s.a102, s.a103, s.a104, s.a203, s.a204)),
            )
            call("formula.resolve_branch", resolve_branch, cfg)
            call("formula.ft_substitution_residual", ft_substitution_residual,
                 s.a102, s.a203)
        except TetrafermatError as exc:
            out.raised(exc)
    return outcomes


# ------------------------------------------------------------- workloads


class ScalarWorkload:
    """Inputs are tetrahedra passed one at a time; latency is per input."""

    batch = False

    def __init__(self, name, seed, count, make, path):
        self.name = name
        self.seed = seed
        self.count = count
        self._make = make
        self._path = path

    def inputs(self):
        return self._make(self.seed, self.count)

    def run(self, index, tetra, call):
        t0 = clock()
        out = self._path(index, tetra, call)
        return clock() - t0, [out]


class BatchWorkload:
    """Inputs are whole batch-verify corpora of ``count`` instances each;
    latency is per batch-verify call.  Untraced, a corpus goes through
    run_batch_verify; traced, through batch_replay."""

    name = "cube-batch"
    batch = True
    #: distinct corpora per pass: more of them steady the result across seeds
    corpora = 8

    def __init__(self, seed, count):
        self.seed = seed
        self.count = count

    def inputs(self):
        return [self.seed * self.corpora + j for j in range(self.corpora)]

    def run(self, index, corpus_seed, call):
        t0 = clock()
        if call is untraced:
            result = run_batch_verify(corpus_seed, self.count)
        else:
            result = batch_replay(corpus_seed, self.count, call)
        return clock() - t0, result


def make_workload(name: str, seed: int, count: int | None = None):
    """The named workload; ``count`` overrides its default input count."""
    if name == "cube-batch":
        return BatchWorkload(seed, count or 1000)
    if name == "cube-scalar":
        return ScalarWorkload(
            name, seed, count or 8000,
            lambda s, n: cube_inputs(s, n, stream=1),
            lambda i, t, call: verify_path(t, call),
        )
    if name == "near-tie":
        return ScalarWorkload(
            name, seed, count or 150,
            lambda s, n: [Tetrahedron(near_tie_vertices(s, i)) for i in range(n)],
            lambda i, t, call: verify_path(t, call),
        )
    if name == "oracle-crosscheck":
        return ScalarWorkload(
            name, seed, count or 400,
            lambda s, n: cube_inputs(s, n, stream=2),
            lambda i, t, call: oracle_path(t, i, seed, call),
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cube-batch", "cube-scalar", "near-tie", "oracle-crosscheck")


# ------------------------------------------------------------ measuring


class Tally:
    """Failed and wrong answers over every input.

    A failure is a typed error, an identity check above tol, or a miss of
    this file's own checks; a wrong answer is one of those misses.  Each
    instance counts once, however many passes run it, so ``attempted`` and
    ``failed`` depend only on the seed and the count, not on how many
    passes fit in the time; a pass that disagrees with an earlier one about
    whether an instance failed is a wrong answer.
    """

    def __init__(self, workload):
        self.workload = workload
        #: instance key -> why it failed, or None
        self.status: dict = {}
        self.wrong: list[str] = []
        self.batch_output: dict[int, tuple] = {}

    @property
    def attempted(self) -> int:
        return len(self.status)

    @property
    def failures(self) -> dict:
        return {k: why for k, why in self.status.items() if why is not None}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _record(self, key, why):
        first = self.status.setdefault(key, why)
        if (first is None) != (why is None):
            self.wrong.append(f"input {key}: failed in one pass but not in another")

    def outcomes(self, index, outcomes):
        for j, out in enumerate(outcomes):
            key = (index, j) if self.workload.batch else index
            miss = None
            if out.solution is not None:
                miss = gate(out.tetra.vertices, out.solution)
            if miss is None and out.oracle is not None:
                miss = oracle_miss(out)
            if miss is not None:
                self.wrong.append(f"input {key}: {miss}")
            self._record(key, miss or out.error or out.failed_check)

    def summary(self, index, corpus_seed, summary):
        """One run_batch_verify result: its counts must add up, and a repeat
        of the corpus must print the same text."""
        n = self.workload.count
        failing = {i for i, _ in summary.errors} | {i for i, _, _ in summary.failures}
        for i in range(n):
            self._record((index, i), "batch-verify error or check above tol"
                         if i in failing else None)
        kinds = (summary.interior_count, summary.vertex_count, len(summary.errors))
        if sum(kinds) != n:
            self.wrong.append(f"corpus {corpus_seed}: {kinds} does not add up to {n}")
        text = summary.format_text()
        if self.batch_output.setdefault(corpus_seed, (kinds, text))[1] != text:
            self.wrong.append(f"corpus {corpus_seed}: output differs between repeats")

    def replay(self, corpus_seed, outcomes):
        """A traced replay must sort the corpus as batch-verify did."""
        kinds = Counter("error" if o.error else o.solution.kind for o in outcomes)
        got = (kinds["interior"], kinds["vertex"], kinds["error"])
        want = self.batch_output[corpus_seed][0]
        if got != want:
            self.wrong.append(f"corpus {corpus_seed}: replay {got} != batch {want}")


def solver_counts(outcomes: list[Outcome]) -> dict[str, float]:
    """Iteration statistics and outcome counts over one pass."""
    iters, kinds, flags = [], Counter(), Counter()
    for out in outcomes:
        if out.exhausted_iterations is not None:
            kinds["nonconvergence"] += 1
            iters.append(out.exhausted_iterations)
        if out.solution is None:
            continue
        iters.append(out.solution.iterations)
        kinds[out.solution.kind] += 1
        flags.update(out.solution.flags)
    it = np.array(iters or [0], dtype=float)
    m = {
        "solver.iterations.mean": float(it.mean()),
        "solver.iterations.p99": float(np.percentile(it, 99)),
        "solver.iterations.max": float(it.max()),
        "solver.nonconvergence.count": kinds["nonconvergence"],
        "solver.interior.count": kinds["interior"],
        "solver.vertex.count": kinds["vertex"],
    }
    for f in FLAGS:
        m[f"solver.flag.{f}.count"] = flags[f]
    return m


class Run:
    """Timed passes over a workload's inputs until ``seconds`` run out.

    Untraced, MIN_PASSES whole passes, then passes cut off when the time
    is up, so that the whole time is measured and every input is timed at
    least twice.

    While inputs run, the reference loop is timed every PROBE_PERIOD_S;
    the inputs are grouped in chunks of at least CHUNK_S of work and one
    reference time, and each time is scaled by the mean reference time of
    its chunk (see calibrate.py).

    Traced, each untraced pass is followed by a traced one, so that their
    wall times give the tracing overhead; per-layer figures come from the
    traced passes.
    """

    def __init__(self, workload, seconds, trace):
        self.workload = workload
        self.units = workload.inputs()
        self.tally = Tally(workload)
        self.scaled = [[] for _ in self.units]
        self.raw = [[] for _ in self.units]
        self.walls = {False: [], True: []}
        self.spans: list[Spans] = []
        self.counts = None
        workload.run(0, self.units[0], untraced)  # warm-up, not timed
        deadline = time.perf_counter() + seconds
        while True:
            if trace:
                t0 = time.perf_counter()
                self._pass(traced=False)
                self._pass(traced=True)
                step = time.perf_counter() - t0
                if time.perf_counter() + step > deadline:
                    break
            elif len(self.walls[False]) < MIN_PASSES:
                self._pass(traced=False)
            elif time.perf_counter() < deadline:
                self._pass(traced=False, deadline=deadline)
            else:
                break

    @property
    def refs(self) -> list[float]:
        return PROBE.refs

    @property
    def passes(self) -> int:
        return len(self.walls[False]) + len(self.walls[True])

    def _pass(self, traced, deadline=None):
        """One pass over the inputs, or over as many as start before
        ``deadline``."""
        call = Spans() if traced else untraced
        results, times = [], []
        chunk, busy, wall = 0, 0.0, 0.0
        first = mark = len(PROBE.refs)
        with PROBE:
            for i, unit in enumerate(self.units):
                dt, result = self.workload.run(i, unit, call)
                self._check(i, unit, result)
                if traced:
                    results.append(result)
                times.append(dt)
                busy += dt
                last = i == len(self.units) - 1 or (
                    deadline is not None and time.perf_counter() >= deadline
                )
                if last or (busy >= CHUNK_S and len(PROBE.refs) > mark):
                    if len(PROBE.refs) == mark:
                        PROBE.sample()
                    scale = REFERENCE_S / float(np.mean(PROBE.refs[mark:]))
                    for j in range(chunk, i + 1):
                        self.raw[j].append(times[j])
                        self.scaled[j].append(times[j] * scale)
                    wall += busy * scale
                    chunk, busy, mark = i + 1, 0.0, len(PROBE.refs)
                if last:
                    break
        refs = PROBE.refs[first:]
        self.walls[traced].append(wall)
        if traced:
            pass_scale = REFERENCE_S / float(np.median(refs))
            call.self_s = {k: v * pass_scale for k, v in call.self_s.items()}
            self.spans.append(call)
            if self.counts is None:
                self.counts = solver_counts([o for r in results for o in r])

    def _check(self, index, unit, result):
        """Checks one input's answers as soon as it is timed, so that an
        untraced pass holds no answers (probe clouds take 240 kB each) and
        peak_rss_mb is not set by how many of them a seed produces."""
        if isinstance(result, list):
            self.tally.outcomes(index, result)
            if self.workload.batch:
                self.tally.replay(unit, result)
        else:
            self.tally.summary(index, unit, result)

    def end_to_end(self, times=None) -> dict[str, float]:
        """An input's latency is the median of its scaled times."""
        per_unit = np.array([np.median(x) for x in (times or self.scaled)])
        instances = len(self.units) * (self.workload.count if self.workload.batch else 1)
        return {
            "instances_per_s": instances / float(per_unit.sum()),
            "latency_p50_ms": float(np.percentile(per_unit, 50)) * 1e3,
            "latency_p99_ms": float(np.percentile(per_unit, 99)) * 1e3,
            "ok_frac": 1.0 - self.tally.failed / self.tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        """Figures per traced pass over all inputs, median over passes."""
        m = {}
        for name in SPANS:
            m[f"{name}.calls"] = self.spans[0].calls[name]
            m[f"{name}.self_s"] = float(
                np.median([s.self_s.get(name, 0.0) for s in self.spans])
            )
        m.update(self.counts)
        m["trace.overhead_s"] = float(
            np.median(self.walls[True]) - np.median(self.walls[False])
        )
        return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--count", type=int,
                   help="inputs per pass, or instances per corpus for cube-batch "
                   "(default: the workload's)")
    p.add_argument("--setup-only", action="store_true",
                   help="build one input, run it once, and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.count is not None and args.count < 1:
        p.error("--count must be positive")
    if args.setup_only:
        workload = make_workload(args.workload, args.seed, 1)
        workload.run(0, workload.inputs()[0], untraced)
        return 0
    workload = make_workload(args.workload, args.seed, args.count)
    run = Run(workload, args.seconds, args.trace == 1)
    raw = {} if args.trace else {
        k: v for k, v in run.end_to_end(run.raw).items() if k.endswith(("_s", "_ms"))
    }
    near_tie_failures = []
    if workload.name == "near-tie":
        near_tie_failures = [
            {"seed": args.seed, "index": i, "why": why,
             "vertices": run.units[i].vertices.tolist()}
            for i, why in sorted(run.tally.failures.items())
        ]
    print(json.dumps({
        "backend": getattr(tetrafermat, "BACKEND", None),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "count": workload.count,
        "inputs": len(run.units),
        "passes": run.passes,
        "reference_s": {"nominal": REFERENCE_S, "median": float(np.median(run.refs)),
                        "min": min(run.refs), "max": max(run.refs)},
        "unscaled": raw,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "fail_frac": run.tally.failed / run.tally.attempted,
        "wrong": run.tally.wrong,
        "near_tie_failures": near_tie_failures,
        "metrics": run.per_layer() if args.trace else run.end_to_end(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
