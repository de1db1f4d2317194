"""How the payoff convention was pinned down.

A final density matrix does not dictate how to turn measurement
statistics into "the payoff": which qubits count (all of them, or only
the ones games were played on) and what the sum is divided by (nothing,
the number of games, or the register size). The quoted chain values are
only reproducible under one specific combination — and finding it is a
search problem this module solves explicitly.

One search plays the B chains once and scores every candidate: both
probability orders (the printed one and the reversed, "canonical" one) x
{all, results} x {total, per-game, per-qubit}.

Step 1 reads the four straightforward candidates from that table (printed
probability order x {all, results} x {total, per-game}). None of them
reproduces the reference values: every row misses.

Step 2 reads the whole table, which adds the two extra hypotheses: the
four winning probabilities assigned in canonical order, and payoffs
normalized per register qubit. Exactly one cell fits the anchor rows:
canonical order, all qubits, per-qubit normalization.
"""
from parrondoq.coins import calibrate_classical
from parrondoq.engine import CONVENTION_NAMES, PayoffConvention, play
from parrondoq.verify import discover_convention
from parrondoq.noise import NoiseSpec

finding = discover_convention()

print("== Step 1: the direct candidates all miss ==")
print(f"{'candidate':<24} {'best row':>10} {'worst row':>10}")
for name, convention in CONVENTION_NAMES.items():
    if convention.normalization != "per_qubit":
        rows = finding.residuals[f"printed/{name}"]
        print(f"{'printed/' + name:<24} {min(rows.values()):>10.3e} "
              f"{max(rows.values()):>10.3e}")

print()
print("== Step 2: widen the space ==")
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
