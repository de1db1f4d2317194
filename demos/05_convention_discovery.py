"""How the payoff convention was pinned down.

A final density matrix does not dictate how to turn measurement
statistics into "the payoff": which qubits count (all of them, or only
the ones games were played on) and what the sum is divided by (nothing,
the number of games, or the register size). The quoted chain values are
only reproducible under one specific combination, and ``verify`` finds
it by search rather than by assumption.

The search plays the B chains once and scores every candidate in one
residual table: both probability orders (the printed one and the
reversed, "canonical" one) x {all, results} x {total, per-game,
per-qubit}. Two checks of ``parrondoq verify`` read that table:

* ``convention_search`` reads the four straightforward candidates
  (printed probability order x {all, results} x {total, per-game}). None
  of them reproduces the reference values, so it is classified
  ``no-direct-match``.
* ``convention_discovery`` reads the whole table, which adds the two
  extra hypotheses: the four winning probabilities assigned in canonical
  order, and payoffs normalized per register qubit. It passes only when
  exactly one cell fits the anchor rows, and that cell is canonical
  order, all qubits, per-qubit normalization.

Step 1 prints the two checks' results. Step 2 plays B under phase
damping in every cell, against its quoted value 1/15. One row alone
fits two cells, canonical order with either qubit mask counted per
qubit; the anchor rows together fit one.
"""
from parrondoq import verify
from parrondoq.coins import calibrate_classical
from parrondoq.engine import CONVENTION_NAMES, PayoffConvention, play
from parrondoq.noise import NoiseSpec

print("== Step 1: the two convention checks ==")
print(verify.format_report([verify.check_convention_search(),
                            verify.check_convention_discovery()]), end="")

print()
print("== Step 2: B under phase damping, p = 0.5, eps = 1/168 ==")
print(f"{'candidate':<26} {'payoff':>10} {'off 1/15 by':>12}")
for order in ("printed", "canonical"):
    cfg = calibrate_classical(1 / 168, assignment=order)
    for name, convention in CONVENTION_NAMES.items():
        payoff = play("B", cfg, NoiseSpec("pd", 0.5), convention).payoff
        print(f"{order + '/' + name:<26} {payoff:>+10.6f} "
              f"{abs(payoff - 1 / 15):>12.3e}")

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
