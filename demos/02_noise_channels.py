"""Three decoherence channels, one qubit at a time.

Every register starts in the maximally entangled state
(|00...0> + |11...1>)/sqrt(2). Before any game is played, a noise channel
of strength p hits each qubit independently:

- amplitude damping ("ad")  : relaxation toward |0>, the losing state;
- depolarizing ("dp")       : isotropic mixing toward I/2;
- phase damping ("pd")      : kills off-diagonal coherences, leaves every
                              diagonal entry untouched.

Each channel is a set of Kraus operators {E_k}; completeness
sum_k E_k^dagger E_k = I guarantees the output is again a density matrix.
"""
import numpy as np

from parrondoq.noise import NoiseSpec, completeness_defect, kraus_stack
from parrondoq.reference import apply_channel, make_initial_state

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("== Kraus operators at p = 0.5 ==")
for kind in ("ad", "dp", "pd"):
    ops = kraus_stack(kind, 0.5)[0]
    print(f"{kind}: {len(ops)} operators, completeness defect "
          f"{completeness_defect(ops):.2e}")
    for op in ops:
        print("    " + np.array2string(op).replace("\n", "\n    "))

print()
print("== What each channel does to a 2-qubit entangled state ==")
rho = make_initial_state(2)
print("input (|00>+|11>)/sqrt(2):")
print(rho.real)
for kind in ("ad", "dp", "pd"):
    out = apply_channel(rho, NoiseSpec(kind, 0.5))
    print(f"\nafter {kind} at p = 0.5:")
    print(out.real)

print()
print("== Full strength ==")
rho = make_initial_state(2)
print("ad at p=1 drains everything into |00>:")
print(apply_channel(rho, NoiseSpec("ad", 1.0)).real)
print("dp at p=1 leaves the maximally mixed state I/4:")
print(apply_channel(rho, NoiseSpec("dp", 1.0)).real)
print("pd at p=1 keeps the diagonal, erases the coherences:")
print(apply_channel(rho, NoiseSpec("pd", 1.0)).real)
