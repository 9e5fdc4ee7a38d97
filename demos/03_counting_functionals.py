"""The counting functionals on hand-built states.

Sharp-occupancy states (exactly k particles orthogonal to the condensate
mode) are eigenstates of the sector projectors, so alpha and beta take their
textbook values k/N and sqrt(k/N); on random symmetric states the trace
distance lands between alpha and sqrt(8 alpha).
"""

import itertools

import numpy as np

from confinedbose import counting as cnt

rng = np.random.default_rng(42)
dim, n = 4, 4

phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
phi /= np.linalg.norm(phi)
perp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
perp -= phi * np.vdot(phi, perp)
perp /= np.linalg.norm(perp)

print(f"sharp occupancy, N = {n}:")
print("  k   alpha      k/N      beta      sqrt(k/N)   p(k)")
for k in range(n + 1):
    factors = [phi] * (n - k) + [perp] * k
    raw = factors[0]
    for f in factors[1:]:
        raw = np.multiply.outer(raw, f)
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(n)):
        acc += np.transpose(raw, perm)
    psi = acc / np.linalg.norm(acc.ravel())
    a = cnt.alpha(psi, phi)
    b = cnt.beta(psi, phi)
    pk = cnt.occupation_distribution(psi, phi)
    print(f"  {k}   {a:.6f}  {k / n:.4f}   {b:.6f}  {np.sqrt(k / n):.6f}    {pk[k]:.6f}")

print("\nrandom symmetric states: the trace-norm sandwich")
print("  alpha       Tr|gamma - p|   sqrt(8 alpha)")
for _ in range(5):
    raw = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(n)):
        acc += np.transpose(raw, perm)
    psi = acc / np.linalg.norm(acc.ravel())
    a = cnt.alpha(psi, phi)
    tr = cnt.trace_distance(cnt.density_matrix(psi), phi)
    print(f"  {a:.6f}    {tr:.6f}        {np.sqrt(8 * a):.6f}")

print("\nweighted-operator algebra on a random state:")
raw = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
acc = np.zeros_like(raw)
for perm in itertools.permutations(range(n)):
    acc += np.transpose(raw, perm)
psi = acc / np.linalg.norm(acc.ravel())
f = rng.normal(size=n + 1)
g = rng.normal(size=n + 1)
comp = cnt.hat_apply(f, cnt.hat_apply(g, psi, phi), phi)
prod = cnt.hat_apply(f * g, psi, phi)
print(f"  || f-hat g-hat psi - (fg)-hat psi || = "
      f"{np.linalg.norm((comp - prod).ravel()):.2e}")
lhs, rhs = cnt.weight_difference_bound("n", 1, psi, phi)
print(f"  shifted sqrt-weight difference: {lhs:.3e} <= 1/N = {rhs:.3e}")
