"""Workloads of the planeangle benchmark: seeded inputs, operations, checks.

A workload is a sequence of rounds.  A round is a fixed list of operations,
each one call (or a short fixed group of calls) into the public library API,
together with a check of its output at the acceptance tolerances.  Rounds
draw fresh inputs from the workload's seeded generator, so one seed always
gives the same inputs in the same order.

Inputs are couplings (alpha, beta), uniform on [-1.5, 1.5]^2 and kept when
|alpha + beta| <= 1.8, as in the acceptance tests.  The draw is stratified
over a 4 x 4 grid of cells (one point per cell, cells in seeded random
order), so that a run of a dozen couplings covers the square evenly and the
per-run medians vary less between seeds; each kept point is still uniform on
the admissible part of its cell.
"""

import itertools
import math

import numpy as np

# Operations call the library through its modules (pencil.find_zeros, not a
# name bound here), so that the traced run's wrappers see every call.
from planeangle import green_check, pencil, sector_solver, weighted_norms
from planeangle.cli import manufactured_nonlocal
from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.green_check import GreenConfig, bump_trig_pair
from planeangle.pencil import PoissonPencilProblem
from planeangle.sector_solver import DDProblem, NonlocalPoissonProblem
from planeangle.weighted_norms import WeightParams

# geometries and tolerances of tests/test_acceptance.py
GEO_NARROW = make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6])
GEO_WIDE = make_geometry([0.3, 0.3 + 0.9 * np.pi, 0.3 + 1.8 * np.pi])
GEO_SOLVE = make_geometry([np.pi / 6, np.pi / 6 + 0.5 * np.pi, np.pi / 6 + np.pi])
GEO_GREEN = make_geometry([0.3, 1.3, 2.3])
R_MIN, R_MAX = 0.5, 3.0
WINDOW = (-0.5, 0.5, -4.0, 4.0)
STRIP = (-4.0, 4.0)
MATCH_TOL = 1e-8
BOUNDARY_TOL = 1e-10
ORDER_RANGE = (1.7, 2.3)
GREEN_REL_TOL = 1e-8


class CheckFailed(Exception):
    """An operation returned, but its output missed the acceptance check."""


def coupling_stream(rng):
    """Endless stratified stream of admissible couplings (see module doc)."""
    while True:
        for cell in rng.permutation(16):
            i, j = divmod(int(cell), 4)
            a = -1.5 + 0.75 * (i + rng.uniform())
            b = -1.5 + 0.75 * (j + rng.uniform())
            if abs(a + b) <= 1.8:
                yield (float(a), float(b))


def take(stream, count):
    return [next(stream) for _ in range(count)]


class Op:
    """One timed call into the library and the check of what it returned."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# independent reference values


def pencil_problem(coupling, geo):
    a, b = coupling
    return PoissonPencilProblem(a, b, geo.angles[0], geo.angles[-1])


def reference_imag_parts(p, lo, hi):
    """Im lambda of the pencil eigenvalues in [lo, hi], from the product form.

    The determinant is -2 sinh(lambda d)(2 cosh(lambda d) + s) with
    d = (b3 - b1)/2 and s = alpha + beta.  On lambda = i y the first factor
    vanishes at y d = k pi (k != 0), the second where cos(y d) = -s/2.  This
    derivation shares no code with pencil.eigenvalues_closed_form.
    """
    d = 0.5 * (p.b3 - p.b1)
    theta = math.acos(-0.5 * p.coupling_sum)
    ys = []
    k_max = int(max(abs(lo), abs(hi)) * d / math.pi) + 2
    for k in range(-k_max, k_max + 1):
        if k != 0:
            ys.append(k * math.pi / d)
        ys.append((theta + 2.0 * math.pi * k) / d)
        ys.append((-theta + 2.0 * math.pi * k) / d)
    ys = sorted(y for y in ys if lo <= y <= hi)
    out = []
    for y in ys:
        if not out or y - out[-1] > 1e-10:
            out.append(y)
    return out


def same_set(got, want, what):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if len(got) != len(want):
        raise CheckFailed("%s: %d values, expected %d" % (what, len(got), len(want)))
    for z in want:
        if np.min(np.abs(got - z)) > MATCH_TOL:
            raise CheckFailed("%s: %s not matched within %g" % (what, z, MATCH_TOL))
    for z in got:
        if np.min(np.abs(want - z)) > MATCH_TOL:
            raise CheckFailed("%s: spurious value %s" % (what, z))


# ---------------------------------------------------------------------------
# solve_ladder


class SolveLadder:
    """solve_nonlocal_poisson on the manufactured problem, n = 64 ... 512.

    One round solves ten couplings at n = 64, the first five of them at
    n = 128, three at n = 256 and one at n = 512, so every rung above 64 has
    the rung below it on the same coupling for the observed-order check.
    The n = 512 solve takes about 20 s, so a run holds one round; the
    repeats of the small sizes give their medians several samples.
    """

    name = "solve_ladder"
    min_rounds = 1
    ladder = ((64, 10), (128, 5), (256, 3), (512, 1))
    kinds = tuple("solve_n%d" % n for n, _ in ladder)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.stream = coupling_stream(rng)
        self.u_exact, self.f_rhs = manufactured_nonlocal(GEO_SOLVE, R_MIN, R_MAX)

    def draw_round(self):
        return take(self.stream, max(c for _, c in self.ladder))

    def problem(self, coupling):
        a, b = coupling
        u = self.u_exact
        b1, b2, b3 = GEO_SOLVE.angles
        g1 = lambda r: u(r, b1) + a * u(r, b2)
        g3 = lambda r: u(r, b3) + b * u(r, b2)
        return NonlocalPoissonProblem(a, b, GEO_SOLVE, self.f_rhs, g1, g3, R_MIN, R_MAX)

    def solve_op(self, n, idx, coupling, errors):
        kind = "solve_n%d" % n

        def run():
            grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, n, n)
            return grid, sector_solver.solve_nonlocal_poisson(self.problem(coupling), grid)

        def check(out):
            grid, res = out
            if not res.boundary_residual <= BOUNDARY_TOL:
                raise CheckFailed("boundary residual %g" % res.boundary_residual)
            r, phi = grid.meshgrid()
            diff = res.solution.values - self.u_exact(r, phi)
            err = float(np.sqrt(np.sum(r * grid.dr * grid.dphi * np.abs(diff) ** 2)))
            if not (np.isfinite(err) and err > 0.0):
                raise CheckFailed("error against the manufactured solution %r" % err)
            errors[(idx, n)] = err
            coarse = errors.get((idx, n // 2))
            if coarse is not None:
                order = math.log2(coarse / err)
                if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
                    raise CheckFailed("observed order %.3f from n=%d" % (order, n // 2))

        return Op(kind, run, check)

    def build_round(self, couplings):
        errors = {}
        return [
            self.solve_op(n, idx, couplings[idx], errors)
            for n, count in self.ladder
            for idx in range(count)
        ]

    def warm_up(self):
        # every rung but n = 512, which takes about 20 s and fails today
        for n, _ in self.ladder[:-1]:
            grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, n, n)
            sector_solver.solve_nonlocal_poisson(self.problem((0.3, -0.8)), grid)


# ---------------------------------------------------------------------------
# pencil_search


class PencilSearch:
    """Primal and adjoint zero searches on the narrow and wide geometries.

    One round is a coupling and its mirror image (-alpha, -beta): primal
    then adjoint on each geometry, in the acceptance window
    (-0.5, 0.5, -4, 4).  The searches cost more for alpha + beta > 0 than
    for alpha + beta < 0; the mirror pair keeps every run balanced in that
    sign, which steadies the medians between seeds.
    """

    name = "pencil_search"
    # A coupling with alpha + beta near 1 (narrow) or 1.59 (wide) can take
    # 20 s instead of 2 s; twelve couplings keep the medians off such a draw
    # even when it comes first.
    min_rounds = 6
    kinds = ("primal_narrow", "adjoint_narrow", "primal_wide", "adjoint_wide")

    def __init__(self, seed):
        self.stream = coupling_stream(np.random.default_rng(seed))

    def draw_round(self):
        a, b = next(self.stream)
        return [(a, b), (-a, -b)]

    def build_round(self, couplings):
        ops = []
        for coupling, (label, geo) in itertools.product(
            couplings, (("narrow", GEO_NARROW), ("wide", GEO_WIDE))
        ):
            p = pencil_problem(coupling, geo)
            closed = pencil.eigenvalues_closed_form(p, STRIP).values
            found = {}

            def run_primal(p=p):
                return pencil.eigenvalues_numeric(p, WINDOW).values

            def check_primal(values, closed=closed, found=found):
                found["primal"] = values
                same_set(values, closed, "primal vs closed form")

            def run_adjoint(p=p):
                return pencil.adjoint_eigenvalues_numeric(p, WINDOW).values

            def check_adjoint(values, closed=closed, found=found):
                primal = found.get("primal", closed)
                same_set(values, np.conj(primal), "adjoint vs conjugated primal")

            ops.append(Op("primal_" + label, run_primal, check_primal))
            ops.append(Op("adjoint_" + label, run_adjoint, check_adjoint))
        return ops

    def warm_up(self):
        # a coupling whose searches take the typical time; alpha + beta = 1
        # (as in 0.6, 0.4) puts zeros on split lines and costs 20x more
        for geo in (GEO_NARROW, GEO_WIDE):
            p = pencil_problem((0.3, -0.8), geo)
            pencil.eigenvalues_numeric(p, WINDOW)
            pencil.adjoint_eigenvalues_numeric(p, WINDOW)


# ---------------------------------------------------------------------------
# diagnostics


class Diagnostics:
    """Certificates, Green identities, weighted norms and coercivity.

    One round: 100 certificate operations (one coupling each, geometries
    alternating, closed-form eigenvalues plus 9 weight lines), the two Green
    identities with their term magnitudes at chi12 = 1, 1.5, 2, the weighted
    norms of one field on an n = 256 grid, and discrete coercivity at n = 64
    for one coupling inside the regime and one outside it.
    """

    name = "diagnostics"
    min_rounds = 1
    kinds = ("certify", "green", "norms", "coercivity")
    certify_count = 100
    chi12s = (1.0, 1.5, 2.0)
    norms_grid = (0.3, 1.0, 256)
    coercivity_n = 64

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.stream = coupling_stream(self.rng)
        self.pair = bump_trig_pair()

    def outside_coupling(self):
        s = self.rng.choice((-1.0, 1.0)) * self.rng.uniform(2.2, 2.8)
        a = self.rng.uniform(max(-1.5, s - 1.5), min(1.5, s + 1.5))
        return (float(a), float(s - a))

    def draw_round(self):
        return {
            "certify": take(self.stream, self.certify_count),
            "green": next(self.stream),
            "norms": (
                self.rng.uniform(0.5, 2.0),
                self.rng.uniform(-1.0, 1.0),
                self.rng.uniform(-0.5, 0.7),
            ),
            "inside": next(self.stream),
            "outside": self.outside_coupling(),
        }

    @staticmethod
    def weight_lines(p):
        """Nine (a, l, solvable) triples: the free line Im = 0, a line through
        the first positive eigenvalue and the line halfway to the next."""
        ys = [y for y in reference_imag_parts(p, 0.0, 12.0) if y > 1e-12]
        first, second = ys[0], ys[1]
        lines = []
        for l in (0, 1, 2):
            lines.append((1.0 + l, l, True))
            lines.append((1.0 + l + first, l, False))
            lines.append((1.0 + l + 0.5 * (first + second), l, True))
        return lines

    def certify_op(self, coupling, geo):
        p = pencil_problem(coupling, geo)
        lines = self.weight_lines(p)

        def run():
            closed = pencil.eigenvalues_closed_form(p, STRIP).values
            return closed, [pencil.solvability_report(p, a, l).solvable for a, l, _ in lines]

        def check(out):
            closed, verdicts = out
            want = [1j * y for y in reference_imag_parts(p, *STRIP)]
            same_set(closed, want, "closed form vs product form")
            for (a, l, expected), got in zip(lines, verdicts):
                if got != expected:
                    raise CheckFailed("solvability at a=%g l=%d: %s" % (a, l, got))

        return Op("certify", run, check)

    def green_op(self, coupling, chi12):
        alpha_d, alpha_n = coupling
        pair = self.pair
        phi12 = GEO_GREEN.angles[1] - GEO_GREEN.angles[0]

        def run():
            out = []
            for alpha, neumann, residual in (
                (alpha_d, False, green_check.green_residual_dirichlet),
                (alpha_n, True, green_check.green_residual_neumann),
            ):
                cfg = GreenConfig(GEO_GREEN, alpha, chi12, phi12)
                out.append((residual(cfg, pair), green_check.term_magnitudes(cfg, pair, neumann=neumann)))
            return out

        def check(out):
            for res, mags in out:
                if not res <= GREEN_REL_TOL * sum(mags):
                    raise CheckFailed("Green residual %g, terms %g" % (res, sum(mags)))

        return Op("green", run, check)

    def norms_op(self, params):
        c1, c2, a = params
        r_lo, r_hi, n = self.norms_grid
        grid = SectorGrid(GEO_SOLVE, r_lo, r_hi, n, n)

        def field(r, phi):
            return c1 * r * np.cos(phi) + c2 * np.sin(2.0 * phi)

        def run():
            u = GridFunction.from_callable(grid, field)
            es = [weighted_norms.e_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
            hs = [weighted_norms.h_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
            # the trace integral is defined for l = 1, 2 only
            ts = [weighted_norms.trace_ratio(u, "gamma1", WeightParams(a, l)) for l in (1, 2)]
            return es, hs, ts

        def check(out):
            # on r <= 1 every weight grows with l, so both scales are ordered
            es, hs, ts = out
            if not (0.0 < es[0] <= es[1] <= es[2] and 0.0 < hs[0] <= hs[1] <= hs[2]):
                raise CheckFailed("norms not ordered in l: %s %s" % (es, hs))
            if not all(np.isfinite(t) and t > 0.0 for t in ts):
                raise CheckFailed("trace ratios %s" % ts)

        return Op("norms", run, check)

    def coercivity_op(self, coupling, inside):
        a, b = coupling
        n = self.coercivity_n
        grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, n, n)
        zero = GridFunction(grid, np.zeros((n + 1, n + 1)))
        p = DDProblem(a, b, GEO_SOLVE, zero, R_MIN, R_MAX)

        def run():
            return sector_solver.discrete_coercivity(p, grid)

        def check(value):
            if (value > 0.0) != inside:
                raise CheckFailed("coercivity %g at alpha+beta=%g" % (value, a + b))

        return Op("coercivity", run, check)

    def build_round(self, inputs):
        ops = [
            self.certify_op(c, (GEO_NARROW, GEO_WIDE)[i % 2])
            for i, c in enumerate(inputs["certify"])
        ]
        ops += [self.green_op(inputs["green"], chi12) for chi12 in self.chi12s]
        ops.append(self.norms_op(inputs["norms"]))
        ops.append(self.coercivity_op(inputs["inside"], True))
        ops.append(self.coercivity_op(inputs["outside"], False))
        return ops

    def warm_up(self):
        """Each kind once on a small instance of the same code path."""
        p = pencil_problem((0.6, 0.4), GEO_NARROW)
        pencil.eigenvalues_closed_form(p, STRIP)
        pencil.solvability_report(p, 2.0, 1)
        cfg = GreenConfig(GEO_GREEN, 0.7, 1.5, 1.0, order=4, panels=4)
        green_check.green_residual_dirichlet(cfg, self.pair)
        green_check.green_residual_neumann(cfg, self.pair)
        green_check.term_magnitudes(cfg, self.pair)
        grid = SectorGrid(GEO_SOLVE, 0.3, 1.0, 16, 16)
        u = GridFunction.from_callable(grid, lambda r, phi: r * np.cos(phi))
        weighted_norms.e_norm(u, WeightParams(0.3, 2))
        weighted_norms.h_norm(u, WeightParams(0.3, 2))
        weighted_norms.trace_ratio(u, "gamma1", WeightParams(0.3, 1))
        grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, 16, 16)
        zero = GridFunction(grid, np.zeros((17, 17)))
        sector_solver.discrete_coercivity(DDProblem(0.6, 0.4, GEO_SOLVE, zero, R_MIN, R_MAX), grid)


WORKLOADS = {w.name: w for w in (SolveLadder, PencilSearch, Diagnostics)}
