"""Eigenvalue families of the transmission pencil on a plane angle.

The characteristic determinant -2 sinh(2 lambda d) - 2 (alpha+beta) sinh(lambda d)
has purely imaginary zeros whenever |alpha + beta| < 2; beyond that the
cosine family leaves the imaginary axis in pairs +-arccosh(|alpha+beta|/2)/d.
This script prints the closed-form families for a few couplings, one of them
outside the regime, and confirms them against the numeric search
(companion-matrix roots of the determinant, counted by the argument
principle), which knows nothing about the closed forms.
"""

import numpy as np

from planeangle.core import make_geometry
from planeangle.pencil import (
    PoissonPencilProblem,
    eigenvalues_closed_form,
    eigenvalues_numeric,
)

geo = make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6])
b1, b3 = geo.angles[0], geo.angles[-1]

print("angle opening L = %.6f, sector width d = %.6f" % (geo.opening, geo.d))
print()

for alpha, beta in [(0.0, 0.0), (0.6, 0.4), (-0.3, -0.5), (1.5, 1.0)]:
    p = PoissonPencilProblem(alpha, beta, b1, b3)
    closed = eigenvalues_closed_form(p, (-4.0, 4.0)).values
    numeric = eigenvalues_numeric(p, (-2.0, 2.0, -4.0, 4.0)).values

    print("alpha = %.2f, beta = %.2f  (alpha + beta = %.2f)" % (alpha, beta, alpha + beta))
    print("  %22s  %22s  %12s" % ("closed", "numeric", "gap"))
    for z in closed:
        k = int(np.argmin(np.abs(numeric - z)))
        print(
            "  %+10.6f %+10.6fj  %+10.6f %+10.6fj  %12.2e"
            % (z.real, z.imag, numeric[k].real, numeric[k].imag, abs(numeric[k] - z))
        )
    print()

print("every family member is recovered without the closed forms")
