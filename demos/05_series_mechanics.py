"""Inside the series solver: coefficients, warm starts, Pade acceleration.

The solver embeds the residual equations in a homotopy R(x(a)) = (1-a) R(x0)
and expands x(a) as a power series; all orders share one LU-factorised
coefficient matrix.  This script shows how the expansion point changes the
number of terms needed, and what Pade evaluation buys.  Each solve returns
one record (``SolveResult``) with its Newton steps, series terms and
mismatch; ``core.expand`` shows one reference's coefficients.

Run:  python3 demos/05_series_mechanics.py
"""

import numpy as np

from ffheflow import load_bundled_case
from ffheflow.core import expand, ffhe_solve
from ffheflow.newton import flat_start, nr_solve, warm_start
from ffheflow.system import build_system, residual


def main():
    sys_ = build_system(load_bundled_case())

    V0, I0 = flat_start(sys_)
    print(f"flat-start mismatch: "
          f"{np.max(np.abs(residual(sys_, V0, I0))):.3e}")

    cold = ffhe_solve(sys_, V0, I0, tol=1e-10, n_max=60)
    print(f"cold expansion:      {cold.terms} terms "
          f"-> mismatch {cold.mismatch:.2e}")

    pade = ffhe_solve(sys_, V0, I0, tol=1e-10, n_max=60, pade=True)
    print(f"with Pade evaluation: {pade.terms} terms "
          f"-> mismatch {pade.mismatch:.2e}")

    start = warm_start(sys_, iterations=3)
    warm = ffhe_solve(sys_, start.V, start.I, tol=1e-10, n_max=60)
    print(f"after {start.iterations} Newton iterations: {warm.terms} terms "
          f"-> mismatch {warm.mismatch:.2e}")

    nr = nr_solve(sys_, tol=1e-12)
    print(f"\nseries vs direct Newton voltage gap: "
          f"{np.max(np.abs(cold.V - nr.V)):.2e}")

    print("\ncoefficient decay at the first bus "
          "(expansion around the flat start, orders 0-7):")
    b = 0
    mags = np.abs(expand(sys_, V0, I0, 7)[b])
    print("  " + "  ".join(f"{m:.1e}" for m in mags))


if __name__ == "__main__":
    main()
