"""Nonlocal Poisson problem: solve, check rays, inspect the auxiliary field.

The solver lifts the ray data with cutoff functions, solves the coupled
differential-difference system for the auxiliary field w, and reassembles
u = u_lift + R_K w.  This script verifies the ray conditions, the error
against a manufactured solution, and the middle-ray trace identity that
ties w to the homogeneous part of u through the inverse shift matrix.
"""

import numpy as np

from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.difference_ops import apply_on_grid, two_sector_operator
from planeangle.manufactured import manufactured_nonlocal
from planeangle.sector_solver import NonlocalPoissonProblem, solve_nonlocal_poisson

B1 = np.pi / 6
geo = make_geometry([B1, B1 + 0.5 * np.pi, B1 + np.pi])
R_MIN, R_MAX = 0.5, 3.0
alpha, beta = 0.6, 0.4

u_exact, f_rhs = manufactured_nonlocal(geo, R_MIN, R_MAX)
b1, b2, b3 = geo.angles
g1 = lambda r: u_exact(r, b1) + alpha * u_exact(r, b2)
g3 = lambda r: u_exact(r, b3) + beta * u_exact(r, b2)

grid = SectorGrid(geo, R_MIN, R_MAX, 32, 32)
f = GridFunction.from_callable(grid, f_rhs)
problem = NonlocalPoissonProblem(alpha, beta, geo, f, g1, g3, R_MIN, R_MAX)
result = solve_nonlocal_poisson(problem, grid)

exact = GridFunction.from_callable(grid, u_exact)
r, _ = grid.meshgrid()
err = np.sqrt(np.sum(r * grid.dr * grid.dphi * np.abs(result.solution.values - exact.values) ** 2))

print("grid 32 x 32, alpha = %.1f, beta = %.1f" % (alpha, beta))
print("guaranteed solvable regime : %s" % problem.guaranteed_solvable)
print("equation residual          : %.2e" % result.equation_residual)
print("ray-condition residual     : %.2e" % result.boundary_residual)
print("weighted L2 error vs exact : %.4e" % err)

w = result.info["w"].values
s = grid.shift_columns
print()
print("auxiliary field w:")
print("  max |w| on gamma1        : %.1e (exact zero: %s)" % (np.max(np.abs(w[:, 0])), np.all(w[:, 0] == 0)))
print("  max |w| on gamma3        : %.1e (exact zero: %s)" % (np.max(np.abs(w[:, -1])), np.all(w[:, -1] == 0)))

ut = apply_on_grid(two_sector_operator(alpha, beta, geo), result.info["w"]).values
factor = 1.0 / (1.0 - alpha * beta)
identity = factor * (ut[:, s] + alpha * ut[:, -1])
print("  middle-ray trace identity: %.2e (machine level)" % np.max(np.abs(w[:, s] - identity)))
