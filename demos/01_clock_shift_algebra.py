"""Walk through the clock/shift unitary pair and its exchange algebra.

The clock matrix is diagonal with the N-th roots of unity; the shift matrix
cyclically permutes the basis.  They commute only up to a root-of-unity
phase, and that phase table is the backbone of everything else in qclock.
"""

import numpy as np

from qclock import (
    build_pair,
    clock_power,
    commutation_phase,
    measure_commutation_sign,
    shift_eigenvector,
    shift_power,
)

N = 5
pair = build_pair(N)
clock, shift = clock_power(pair, 1), shift_power(pair, 1)

print(f"clock matrix (diagonal phases), N = {N}:")
print(np.round(np.diag(clock), 4))
print("\nshift matrix (cyclic permutation):")
print(shift.real.astype(int))

print("\nexchange phases c(j, l) with clock^j shift^l = c * shift^l clock^j:")
for j in range(N):
    row = [commutation_phase(pair, j, l) for l in range(N)]
    print("  " + "  ".join(f"{np.angle(c) / (2 * np.pi / N):+5.1f}" for c in row))
print("(entries are the phase in units of 2*pi/N; note the minus sign)")
print("measured exchange sign:", measure_commutation_sign(pair))

print("\nshift eigenvectors are uniform-magnitude Fourier vectors:")
v1 = shift_eigenvector(pair, 1)
print(np.round(v1, 4))
print("eigenvalue check |shift v_1 - w v_1| =",
      float(np.max(np.abs(shift @ v1 - np.exp(2j * np.pi / N) * v1))))
print("overlap magnitudes with the clock basis (all 1/sqrt(N)):",
      np.round(np.abs(v1), 4))
