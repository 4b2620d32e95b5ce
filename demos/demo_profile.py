"""What does a Gaussian field look like when forced to be huge at one point?

We build a squared-exponential field on [0, 1], condition it on a large value
at x0 = 0.5, and compare one conditioned realization against the predicted
limit shape: the covariance column C(x, x0), normalized.  The larger the
threshold u, the closer every realization hugs that single deterministic curve.
"""

import condfield as cf

grid = cf.make_grid(0.0, 1.0, 128)
kernel = cf.SquaredExponential(variance=1.0, ell=0.2)
cov = cf.assemble(kernel, grid)
factor = cf.sqrt_factor(cov)
functional = cf.make_point_functional(grid, 0.5)

constants = cf.constants(functional, cov)
print(f"constants: <T|C|T> = {constants.tct:.4f}, A = {constants.a_const:.3f}, "
      f"B = {constants.b_const:.3f}, D = {constants.d_const:.3f}")

# one noise realization conditioned on each threshold, each measured against
# the limit profile, the column C(., x0): a sweep with one sample (complex
# field, fixed rho = 1, seed 0: the sweep's defaults)
report = cf.sweep(factor, functional, cov, [10, 1e3, 1e5], 1)
for rec in report.records:
    print(f"u = {rec.u:>8.0f}: sup distance to profile = {rec.sup_dist:.2e}   "
          f"(theory envelope {rec.bound_rhs:.2e})")

print()
print("The same noise realization gets pinned to the profile as u grows;")
print("the measured distance always sits below the proof's envelope.")
