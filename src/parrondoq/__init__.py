"""History-dependent quantum coin games on entangled registers.

Two games are played on a shared quantum register prepared in a GHZ state: a
single-qubit game A and a history-dependent game B whose coin depends on the
previous two results. Decoherence (amplitude damping, depolarizing, phase
damping) acts on the register before play. The package simulates arbitrary
game sequences, evaluates closed-form reference payoffs, and cross-validates
the two against each other.
"""
from .coins import (MAX_DIM, CoinParams, GameConfig, GameStep, ParseError,
                    SequencePlan, SizeLimitError, calibrate_classical,
                    coin_angles, make_coin_a, make_coin_b, max_payoff_phases,
                    parse_sequence)
from .engine import (CONVENTION_NAMES, DEFAULT_CONVENTION, PayoffConvention,
                     PayoffReport, play, play_arrays, play_many)
from .figures import (FIGURES, SweepSetup, figure_csv, figure_rows,
                      rows_to_csv, sweep_rows)
from .noise import (KINDS, NoiseSpec, completeness_defect, corner_stack,
                    kraus_single, kraus_stack)
from .reference import (apply_channel, build_unitary, evolve, lift_enumerated,
                        make_initial_state, payoff_report)
from .verify import (CalibrationError, CheckResult, ConventionFinding,
                     calibrate_convention, discover_convention, format_report,
                     run_all)

__version__ = "0.1.0"

__all__ = [
    "CoinParams", "GameConfig", "GameStep", "ParseError", "SequencePlan",
    "build_unitary", "calibrate_classical", "coin_angles", "make_coin_a",
    "make_coin_b",
    "max_payoff_phases", "parse_sequence",
    "CONVENTION_NAMES", "DEFAULT_CONVENTION", "CalibrationError",
    "ConventionFinding", "PayoffConvention", "PayoffReport",
    "calibrate_convention", "discover_convention", "evolve",
    "make_initial_state", "payoff_report", "play", "play_arrays", "play_many",
    "FIGURES", "SweepSetup", "figure_csv", "figure_rows", "rows_to_csv",
    "sweep_rows",
    "MAX_DIM", "SizeLimitError",
    "KINDS", "NoiseSpec", "apply_channel", "completeness_defect",
    "corner_stack", "kraus_single", "kraus_stack", "lift_enumerated",
    "CheckResult", "format_report", "run_all",
    "__version__",
]
