"""Why the kernel exponent matters: Laplacian vs Gaussian Gram spectra.

The geodesic kernel K(u, v) = exp(-lambda d(u, v)^q) is positive
semidefinite on the ball for q = 1, which is what a kernel SVM needs.
For q = 2 that guarantee is gone, and with enough spread-out points
the Gram matrix picks up genuinely negative eigenvalues.

Run with: python3 demos/kernel_psd.py
"""

import numpy as np

from gyrotext.kernels import KernelSpec, gram_matrix, psd_check


def spread_points(n=30, dim=10, seed=39):
    # directions uniform on the sphere, radii pushed toward the boundary
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * rng.uniform(0.05, 0.98, size=(n, 1))


def report(points, spec):
    # psd_check finds only the smallest eigenvalue; numpy gives the spectrum
    gram = gram_matrix(points, spec)
    eigs = np.linalg.eigvalsh(gram.entries)
    verdict = psd_check(gram)
    label = f"q={spec.q:g}, lambda={spec.lam:g}"
    print(f"  {label:<22} min eig {verdict.min_eigenvalue:+.6f}   max eig {eigs[-1]:.4f}   "
          f"psd_check: {'pass' if verdict.passed else 'FAIL'}")
    return verdict.min_eigenvalue, eigs


def main():
    pts = spread_points()
    print(f"{pts.shape[0]} points in {pts.shape[1]} dimensions, "
          f"norms up to {np.linalg.norm(pts, axis=1).max():.3f}\n")

    print("Laplacian flavor (q=1) stays positive semidefinite at any rate:")
    for lam in (0.25, 1.0, 2.0):
        report(pts, KernelSpec("geodesic", lam=lam, q=1.0))
    print()

    print("Gaussian flavor (q=2) does not:")
    lowest, eigs = report(pts, KernelSpec("geodesic", lam=0.25, q=2.0))
    negative = eigs[eigs < 0]
    print(f"\n  {negative.size} of {eigs.size} eigenvalues are negative; "
          f"the worst is {lowest:.4f}.")
    print("  An SVM trained on this Gram has no convexity guarantee, which")
    print("  is why the trainer records a psd_warning when it trips over")
    print("  negative curvature, and why `gyrotext check-kernel` exists:")
    print("  run it on your own embedding file before trusting q=2 results.")

    # the in-repo smallest eigenvalue against numpy's, as an external check
    print(f"\n  psd_check's smallest eigenvalue vs numpy eigvalsh: gap {abs(lowest - eigs[0]):.2e}")


if __name__ == "__main__":
    main()
