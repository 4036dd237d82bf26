"""Second-order convergence of the differential-difference solver.

A manufactured field w* with compact radial support is pushed through the
continuous operator to produce data, the discrete system is solved on a
sequence of doubled grids, and the weighted L2 error against w* is tabulated
together with the observed convergence order.
"""

import numpy as np

from planeangle.core import SectorGrid, make_geometry
from planeangle.manufactured import dd_problem, error_norm
from planeangle.sector_solver import solve_dd

B1 = np.pi / 6
geo = make_geometry([B1, B1 + 0.5 * np.pi, B1 + np.pi])
R_MIN, R_MAX = 0.5, 3.0

for alpha, beta in [(0.0, 0.0), (0.9, 0.9), (0.3, -0.8)]:
    print("alpha = %.1f, beta = %.1f" % (alpha, beta))
    print("  %6s %14s %12s %8s" % ("n", "error", "residual", "order"))
    prev = None
    for n in (16, 32, 64):
        grid = SectorGrid(geo, R_MIN, R_MAX, n, n)
        problem, exact = dd_problem(alpha, beta, grid)
        res = solve_dd(problem, grid)
        err = error_norm(res.solution, exact)
        order = "" if prev is None else "%.2f" % np.log2(prev / err)
        print("  %6d %14.4e %12.2e %8s" % (n, err, res.equation_residual, order))
        prev = err
    print()
