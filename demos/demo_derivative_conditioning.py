"""Condition on a large derivative instead of a large value.

Taking the functional to be a (stencil) first derivative at x0, the limit
profile becomes the derivative of the covariance, d C(x, x0) / d x0, which for
the squared-exponential kernel is an antisymmetric wiggle around x0.  We check
the discrete profile against the closed-form curve and then watch a heavily
conditioned sample land on it.
"""

import condfield as cf

grid = cf.make_grid(0.0, 1.0, 256)
kernel = cf.SquaredExponential(1.0, 0.3)
cov = cf.assemble(kernel, grid)
factor = cf.sqrt_factor(cov)

functional = cf.make_derivative_functional(grid, 0.5, n=1, order=4)
profile = cf.profile(functional, cov)
curve = cf.analytic_derivative_curve(kernel, grid.points, functional.x0, 1)

norm_p = profile / cf.l2_norm(profile, grid)
norm_c = curve / cf.l2_norm(curve, grid)
print(f"discrete vs analytic profile, sup distance: {cf.sup_norm(norm_p - norm_c):.2e}")

spec = cf.ConditionSpec(u=1e6, scalar=cf.COMPLEX, mode=cf.FIXED_RHO, rho=1.0)
sample = cf.sample_conditional(factor, functional, spec, cf.substream(0, 0))
dist = cf.normalized_sup_distance(sample, curve)
print(f"conditioned sample (u = 1e6) vs analytic curve: {dist:.2e}")

print()
print("Non-differentiable kernels cannot support derivative conditioning:")
result = cf.verify_prop3(cf.Exponential(1.0, 0.5), 0.5, 1, 4, 1e6, m=256)
print(f"exponential kernel, n = 1 -> smoothness warning: {result['smoothness_warning']}")
