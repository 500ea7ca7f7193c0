"""Truncated Gram spectra as descriptive Riesz diagnostics.

Assembles the pairwise inner products of a system's leading members
exactly and diagonalizes the (2/pi)-scaled truncation with LAPACK.  The all-diagonal system gives the identity exactly; perturbed
systems show how the extreme eigenvalues spread as the truncation grows.
The scans emit data only; truncations cannot certify an infinite-system
Riesz bound.
"""

from fucik import FinitePerturbation, GammaLine, complete_point, riesz_scan

print("all-diagonal system (sines only):")
for n, lo, hi in riesz_scan(FinitePerturbation(()), [4, 16, 64]):
    print(f"  N = {n:3d}: lambda_min = {lo:.12f}, lambda_max = {hi:.12f}")

print("\nmild even perturbations (n = 2 and 4 pushed off the diagonal):")
mild = FinitePerturbation((complete_point(2, alpha=4.41),
                           complete_point(4, alpha=17.3)))
for n, lo, hi in riesz_scan(mild, [4, 8, 16]):
    print(f"  N = {n:3d}: lambda_min = {lo:.6f}, lambda_max = {hi:.6f}")

print("\ndilation line gamma = 5 (watch the extremes spread):")
for n, lo, hi in riesz_scan(GammaLine(5.0), [8, 16, 32]):
    print(f"  N = {n:3d}: lambda_min = {lo:.6f}, lambda_max = {hi:.6f}")
