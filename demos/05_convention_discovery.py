"""How the payoff convention was pinned down.

A final density matrix does not dictate how to turn measurement
statistics into "the payoff": which qubits count (all of them, or only
the ones games were played on) and what the sum is divided by (nothing,
the number of games, or the register size). The quoted chain values are
only reproducible under one specific combination — and finding it is a
search problem this module solves explicitly.

Step 1 tries the four straightforward candidates (printed probability
order x {all, results} x {total, per-game}). None of them reproduces the
reference values; the search refuses to pick a winner and instead raises
an error carrying the full residual table.

Step 2 widens the space with two extra hypotheses: the four winning
probabilities assigned in reversed ("canonical") order, and payoffs
normalized per register qubit. Exactly one cell survives:
canonical order, all qubits, per-qubit normalization.
"""
from parrondoq.coins import calibrate_classical
from parrondoq.engine import PayoffConvention, play
from parrondoq.verify import (CalibrationError, calibrate_convention,
                              discover_convention)
from parrondoq.noise import NoiseSpec

print("== Step 1: the direct candidates all miss ==")
try:
    calibrate_convention()
    print("unexpectedly matched!")
except CalibrationError as err:
    print(f"{err}\n")
    print(f"{'candidate':<24} {'best row':>10} {'worst row':>10}")
    for cell, rows in err.residuals.items():
        print(f"{cell:<24} {min(rows.values()):>10.3e} "
              f"{max(rows.values()):>10.3e}")

print()
print("== Step 2: widen the space ==")
finding = discover_convention()
winner = f"{finding.assignment}/{finding.convention.name}"
print(f"unique surviving candidate: {winner}")
print("anchor rows and their residuals there:")
winner_rows = finding.residuals[winner]
for row in finding.anchor_rows:
    print(f"    {row:<8} {winner_rows[row]:.3e}")

print()
print("== The two exactly-quoted phase-damping values ==")
convention = PayoffConvention("all", "per_qubit")
for eps in (1 / 168, 1 / 112):
    cfg = calibrate_classical(eps, assignment="canonical")
    single = play("B", cfg, NoiseSpec("pd", 0.5), convention).payoff
    double = play("BB", cfg, NoiseSpec("pd", 0.5), convention).payoff
    print(f"eps = 1/{round(1 / eps)}:")
    print(f"    B   -> {single:.12f}   (1/15          = {1 / 15:.12f})")
    print(f"    BB  -> {double:.12f}   (13/400+eps/20 = "
          f"{13 / 400 + eps / 20:.12f})")
