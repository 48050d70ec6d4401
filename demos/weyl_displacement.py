"""Displacement operators and their interplay with the group action.

W(h) shifts the displacement vector of a Gaussian state in closed form. The
composition of two displacements picks up the symplectic phase, and pushing a
displacement through T(R) rotates its argument by the group element with no
extra phase. The same relations hold on the truncated space for the
exponential of the truncated ladder generator, up to its truncation error.
"""

import numpy as np

from gaussfock import fock, representation as rep, states, symplectic as sp

rng = np.random.default_rng(31)

d = 2
f = 0.5 * (rng.normal(size=d) + 1j * rng.normal(size=d))
g = 0.5 * (rng.normal(size=d) + 1j * rng.normal(size=d))
x = states.random_state(d, rng)

lhs = states.weyl_apply(f, states.weyl_apply(g, x))
rhs = states.scaled(states.weyl_apply(f + g, x), states.weyl_phase(f, g))
print(f"W(f) W(g) = phase * W(f+g):  residual "
      f"{states.state_residual(lhs, rhs):.3e}")
print(f"phase = {states.weyl_phase(f, g):.12f}")

r = sp.random_element(d, rng)
print(f"T(R) W(h) = W(Rh) T(R):      residual "
      f"{rep.check_intertwining(r, f, x):.3e}")

# the same on the truncated space, as exponentials of truncated matrices
n = 28
wf = fock.weyl(f, n)
vac = fock.vacuum_tensor(d, n)
coh = fock.represent_state(states.coherent(f), n)
print(f"\nmatrix W(f) vacuum vs coherent state: residual "
      f"{fock.tensor_residual(fock.apply_operator(wf, vac), coh):.3e}")

prod = fock.apply_operator(wf, fock.apply_operator(fock.weyl(g, n), vac))
merged = fock.apply_operator(fock.weyl(f + g, n), vac)
merged = fock.FockTensor(d, n, states.weyl_phase(f, g) * merged.coeffs)
print(f"matrix Weyl relation on the vacuum:   residual "
      f"{fock.tensor_residual(prod, merged):.3e}")

# displacement content of a state, and its removal
h = states.displacement_to_origin(x)
centered = states.weyl_apply(-h, x)
print(f"\ncentering residual |f| after W(-h): "
      f"{np.linalg.norm(centered.f):.3e}")
