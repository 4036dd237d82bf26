"""Solvability certificates in the weighted scale.

Unique solvability in weight a and smoothness l requires the horizontal
line Im lambda = a - l - 1 to avoid the pencil eigenvalues.  The choice
a = 1 + l puts the line on the real axis, which is always free when
|alpha + beta| < 2, while other weights can collide with a family member.
"""

import numpy as np

from planeangle.core import make_geometry
from planeangle.pencil import PoissonPencilProblem, line_is_eigenvalue_free, solvability_report

geo = make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6])
p = PoissonPencilProblem(0.6, 0.4, geo.angles[0], geo.angles[-1])

print("couplings alpha = 0.6, beta = 0.4 on opening L = %.4f" % geo.opening)
print()
print("line scan:")
for h in (0.0, 0.5, 1.0, 1.5, 3.0):
    cert = line_is_eigenvalue_free(p, h)
    print(
        "  Im lambda = %4.1f : %-7s nearest eigenvalue %+.4fj at distance %.3e"
        % (h, "free" if cert.solvable else "blocked", cert.nearest_eigenvalue.imag, cert.distance)
    )

print()
print("weighted-scale reports:")
for a, l in [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 1), (2.5, 0)]:
    report = solvability_report(p, a, l)
    print(
        "  a = %3.1f, l = %d -> line %+4.1f : %-9s nearest eigenvalue %s at distance %.3e"
        % (a, l, report.line, "solvable" if report.solvable else "blocked",
           report.nearest_eigenvalue, report.distance)
    )
