"""Coins and game sequences.

Two games are in play:

- Game A tosses one biased quantum coin: an SU(2) rotation acting on a
  single target qubit. Its winning amplitude is sin(theta).
- Game B is history dependent: an 8x8 block-diagonal operator whose four
  SU(2) blocks are selected by the two qubits holding the previous two
  results. A lucky streak and a losing streak see different coins.

A sequence string such as "AAB" or "(AB)^3" is compiled onto a qubit
register: game k tosses qubit k (after any seed qubits), and each B reads
the two qubits immediately before its target. B games played before two
results exist draw on seed qubits prepended to the register.
"""
import numpy as np

from parrondoq.coins import (CoinParams, calibrate_classical, make_coin_a,
                             make_coin_b, parse_sequence)

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("== Game A: one biased coin ==")
coin = CoinParams(theta=np.arcsin(np.sqrt(0.45)), gamma=0.0, delta=np.pi / 5)
a = make_coin_a(coin)
print(a)
print(f"unitary: {np.allclose(a @ a.conj().T, np.eye(2))}")
print(f"winning probability |A[1,0]|^2 = {abs(a[1, 0]) ** 2:.3f} "
      "(the coin is biased against the player)")

print()
print("== Game B: four coins behind a history selector ==")
cfg = calibrate_classical(epsilon=1 / 168)
b = make_coin_b(cfg.coin_b)
print("magnitudes (rows/cols ordered h2 h1 target, leftmost qubit first):")
print(abs(b))
print("each 2x2 block is one coin; block i is chosen by history bits i")

print()
print("== Sequences compile onto a register ==")
for text in ("AAB", "B", "BBB", "(AB)^2"):
    plan = parse_sequence(text)
    print(f"{text!r}: {plan.total_qubits} qubits, "
          f"{plan.seed_count} of them seeds")
    for target, kind in enumerate(plan.games, plan.seed_count):
        # a B reads the two qubits written just before its own
        hist = (f" history={(target - 2, target - 1)}" if kind == "B"
                else "")
        print(f"    {kind} -> qubit {target}{hist}")
