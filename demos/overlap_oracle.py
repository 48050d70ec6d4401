"""Closed-form overlaps cross-checked against the truncated-space oracle.

Builds two displaced squeezed states, evaluates their inner product with the
determinant formula, then rebuilds both as truncated coefficient vectors on
the Fock basis, at a cutoff certified by the tail bound, and compares the
two numbers.
"""

import numpy as np

from gaussfock import fock, states

rng = np.random.default_rng(7)

d = 2
x = states.random_state(d, rng, max_z=0.5, max_f=0.9)
y = states.random_state(d, rng, max_z=0.5, max_f=0.9)

closed = states.overlap(x, y)
print(f"closed form   (x|y) = {closed:.12f}")

cutoff = max(fock.cutoff_for(x, 1e-9), fock.cutoff_for(y, 1e-9))
print(f"cutoff {cutoff}: tail bounds "
      f"{fock.tail_bound(x, cutoff):.2e} / {fock.tail_bound(y, cutoff):.2e}")

oracle = fock.inner(fock.represent_state(x, cutoff),
                    fock.represent_state(y, cutoff))
print(f"series        (x|y) = {oracle:.12f}")
print(f"relative difference = "
      f"{abs(closed - oracle) / abs(closed):.3e}")

# the same machinery limits truncation error for norms
print(f"\nnorm of x: closed {states.norm(x):.12f}, "
      f"series {fock.tensor_norm(fock.represent_state(x, cutoff)):.12f}")

# scalar benchmark: Z = 0.5 on one mode gives (1 - 0.5^2)^{-1/2}
z = states.make_state(np.array([[0.5]]), np.zeros(1), 0.0)
print(f"\nscalar benchmark |Phi(0.5)|^2 = {states.overlap(z, z).real:.12f}"
      f"  vs 0.75^(-1/2) = {0.75 ** -0.5:.12f}")
