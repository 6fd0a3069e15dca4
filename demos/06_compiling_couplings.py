"""Compile many-body couplings into two-qubit conjugation gates.

A coupling e^{i theta W (x) B} for an n-qubit Pauli word W is grown out of
the always-available single-qubit seed e^{i theta Y_1 (x) B} by wrapping it
in exp(i pi/4 A) conjugations that touch at most two qubits. Every emitted
sequence is certified against an arbitrary bath operator, with the realized
word read off a Pauli tableau and only the bath exponentiated, the XX
conjugator lowers to two Molmer-Sorensen pulses, and multi-term couplings
Trotterize with second-order local error.
"""

import numpy as np

from dissipforge import (
    BathTestSpec,
    PauliString,
    compile_coupling,
    conjugation_step,
    kron,
    matexp,
    ms_decompose,
    trotter_step,
    verify_sequence,
)
from dissipforge.compiler import ms_system_action
from dissipforge.states import GraphSpec

print("conjugation chain growing Y1 into X1X2X3:")
current = PauliString.single(3, 1, "Y")
for axis in ("ZXI", "IYI", "IXX", "IZI"):
    nxt = conjugation_step(PauliString(axis), current)
    print(f"  T_{axis}: {current} -> {nxt}")
    current = nxt

print("\ncompiled sequences on a path graph (certified by a Pauli tableau):")
bath = BathTestSpec.random(4, seed=1)
for word in ("XX", "XXX", "ZYXZ"):
    seq = compile_coupling(PauliString(word), 0.7, GraphSpec.path(len(word)))
    report = verify_sequence(seq, bath, (0.3, 1.1, 2.7))
    print(f"  {word}: {len(seq.conjugations)} conjugations, "
          f"verified = {report.passed}, max dev = {report.max_deviation:.2e}")

print("\ngate count grows linearly for X...X chains:")
counts = []
for n in range(2, 7):
    seq = compile_coupling(PauliString("X" * n), 0.3, GraphSpec.path(n))
    counts.append(len(seq.conjugations))
print("  n = 2..6 ->", counts)

print("\nrendered circuit for XXX:")
print(compile_coupling(PauliString("XXX"), 0.7, GraphSpec.path(3)).render_text())

print("Molmer-Sorensen lowering of e^{i theta XX}:")
theta = 0.7
top, bottom = ms_system_action(ms_decompose(1, 2, theta))
target = matexp(1j * theta * PauliString("XX").dense())
print(f"  system-sector deviation: {np.max(np.abs(top - target)):.2e}")
print(f"  ancilla leakage out of |0>: {np.max(np.abs(bottom)):.2e}")

print("\nTrotter error halves four times when dt halves:")
terms = [PauliString("X"), PauliString("Z")]
small_bath = BathTestSpec.lowering(4)
B = small_bath.operator
H = sum(kron(W.dense(), B.conj().T) + kron(W.dense().conj().T, B) for W in terms)
errs = {}
for dt in (0.02, 0.01):
    errs[dt] = np.linalg.norm(trotter_step(terms, dt, small_bath) - matexp(-1j * dt * H))
print(f"  error(0.02) / error(0.01) = {errs[0.02] / errs[0.01]:.3f}")
