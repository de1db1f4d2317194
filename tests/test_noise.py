from itertools import product

import numpy as np
import pytest

from parrondoq.coins import SizeLimitError, embed
from parrondoq.noise import (KINDS, NoiseSpec, completeness_defect,
                             corner_stack, kraus_stack)
from parrondoq.reference import (MAX_ENUMERATED_QUBITS, apply_channel,
                                 lift_enumerated, make_initial_state)


def random_density(n_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 2 ** n_qubits
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("xx", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("ad", 1.5)
    with pytest.raises(ValueError):
        NoiseSpec("ad", -0.1)


def test_kraus_operator_shapes_and_counts():
    assert len(kraus_stack("none", 0.0)[0]) == 1
    assert len(kraus_stack("ad", 0.3)[0]) == 2
    assert len(kraus_stack("pd", 0.3)[0]) == 2
    assert len(kraus_stack("dp", 0.3)[0]) == 4


def test_amplitude_damping_entries():
    p = 0.36
    e0, e1 = kraus_stack("ad", p)[0]
    assert e0[0, 0] == 1 and e0[1, 1] == pytest.approx(np.sqrt(1 - p))
    assert e1[0, 1] == pytest.approx(np.sqrt(p))
    assert e1[0, 0] == e1[1, 0] == e1[1, 1] == 0


def test_phase_damping_entries():
    p = 0.36
    e0, e1 = kraus_stack("pd", p)[0]
    assert e0[1, 1] == pytest.approx(np.sqrt(1 - p))
    assert e1[1, 1] == pytest.approx(np.sqrt(p))
    assert e1[0, 0] == e1[0, 1] == e1[1, 0] == 0


def test_depolarizing_weights():
    p = 0.8
    ops = kraus_stack("dp", p)[0]
    assert ops[0][0, 0] == pytest.approx(np.sqrt(1 - 3 * p / 4))
    for e in ops[1:]:
        assert np.abs(e).max() == pytest.approx(np.sqrt(p / 4))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_completeness(kind, p):
    assert completeness_defect(kraus_stack(kind, p)[0]) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_completeness_of_a_stack_is_its_worst_set(kind):
    """A stack (..., K, d, d) scores its worst set. Each set is scaled by
    its own factor, so every set has a different defect."""
    ps = np.linspace(0.0, 1.0, 12)
    scale = np.sqrt(1.0 + 1e-3 * np.array([3, 7, 1, 11, 5, 0, 9, 2, 8, 4,
                                           10, 6]))
    stack = kraus_stack(kind, ps) * scale[:, None, None, None]
    defects = [completeness_defect(list(ops)) for ops in stack]
    assert len(set(defects)) == len(defects)
    assert completeness_defect(stack) == max(defects) == defects[3]
    assert completeness_defect(stack.reshape((3, 4) + stack.shape[1:])
                               ) == max(defects)
    assert completeness_defect(stack[3]) == defects[3]


@pytest.mark.parametrize("kind", KINDS)
def test_corners_are_the_channel_on_basis_operators(kind):
    corners = corner_stack(kind, 0.37)[0]
    assert corners.shape == (4, 2, 2)
    for x in (0, 1):
        for y in (0, 1):
            basis = np.zeros((2, 2), dtype=complex)
            basis[x, y] = 1.0
            want = sum(e @ basis @ e.conj().T
                       for e in kraus_stack(kind, 0.37)[0])
            assert np.abs(corners[2 * x + y] - want).max() < 1e-15


@pytest.mark.parametrize("kind", KINDS)
def test_stacks_equal_one_point_sets_exactly(kind):
    rng = np.random.default_rng(2009)
    ps = np.concatenate([rng.uniform(0.0, 1.0, 50), [0.0, 1.0]])
    stack = kraus_stack(kind, ps)
    corners = corner_stack(kind, ps)
    assert corners.shape == (len(ps), 4, 2, 2)
    for p, ops, corner in zip(ps.tolist(), stack, corners):
        assert np.array_equal(ops, kraus_stack(kind, p)[0])
        assert np.array_equal(corner, corner_stack(kind, p)[0])


@pytest.mark.parametrize("kind", KINDS)
def test_corner_one_zero_is_adjoint_of_corner_zero_one(kind):
    """E(|1><0|) = E(|0><1|)^H exactly: the window sweep carries only the
    |0><1| corner and counts it for both."""
    ps = np.concatenate([np.random.default_rng(13).uniform(0.0, 1.0, 50),
                         [0.0, 1.0]])
    corners = corner_stack(kind, ps)
    assert np.array_equal(corners[:, 2],
                          corners[:, 1].conj().swapaxes(-1, -2))


def test_corner_stack_takes_one_kind_per_point():
    kinds = ["ad", "none", "dp", "ad", "pd"]
    ps = [0.3, 0.9, 0.5, 0.7, 0.2]
    corners = corner_stack(kinds, ps)
    for kind, p, corner in zip(kinds, ps, corners):
        assert np.array_equal(corner, corner_stack(kind, p)[0])


@pytest.mark.parametrize("kinds, p, count", [
    ("ad", [0.1, 0.2, 0.3], 3),
    (["ad", "dp", "pd"], 0.4, 3),
    ("pd", 0.5, 1),
    ([], [], 0),
    ([], 0.5, 0),
    ("dp", [], 0),
], ids=["one-kind", "one-strength", "one-point",
        "empty", "no-kinds-one-strength", "one-kind-no-strengths"])
def test_corner_stack_accepts_one_of_either_or_one_per_point(kinds, p,
                                                             count):
    corners = corner_stack(kinds, p)
    assert corners.shape == (count, 4, 2, 2)
    kinds = [kinds] * count if isinstance(kinds, str) else kinds
    strengths = np.broadcast_to(p, (count,))
    for kind, strength, corner in zip(kinds, strengths, corners):
        assert np.array_equal(corner, corner_stack(kind, strength)[0])


@pytest.mark.parametrize("kinds, p", [
    (["ad", "ad"], [0.1, 0.2, 0.3]),
    (["ad", "dp"], [0.1, 0.2, 0.3]),
    (["ad", "dp", "pd"], []),
    ([], [0.1, 0.2]),
], ids=["same-kind", "mixed-kinds", "no-strengths", "no-kinds"])
def test_corner_stack_refuses_mismatched_lengths(kinds, p):
    """More than one kind and more than one strength must pair up, one of
    each per point; the error names both lengths."""
    with pytest.raises(ValueError, match=(
            rf"^{len(kinds)} channel kinds and {len(p)} strengths: ")):
        corner_stack(kinds, p)


def test_stacks_refuse_like_noise_spec():
    with pytest.raises(ValueError, match=r"^p 1\.5 outside \[0, 1\]$"):
        kraus_stack("ad", [0.2, 1.5, -1.0])
    with pytest.raises(ValueError, match=r"^p -0\.1 outside"):
        corner_stack("dp", -0.1)
    with pytest.raises(ValueError, match="unknown channel kind 'xx'"):
        corner_stack(["ad", "xx"], 0.1)


@pytest.mark.parametrize("kind", ["ad", "dp", "pd"])
def test_channel_on_six_qubits_equals_per_qubit_lifted_kraus_sums(kind):
    """Past the enumerated route's cap: the Kraus sum on each qubit in
    turn, every operator lifted by literal Kronecker products."""
    n = 6
    rho = random_density(n, seed=60)
    spec = NoiseSpec(kind, 0.37)
    want = rho
    for q in range(n):
        lifted = [embed(e, q, n) for e in kraus_stack(kind, 0.37)[0]]
        want = sum(e @ want @ e.conj().T for e in lifted)
    assert np.abs(apply_channel(rho, spec) - want).max() < 1e-12


def test_lift_enumerated_counts_and_limit():
    assert len(lift_enumerated(NoiseSpec("ad", 0.3), 3)) == 8
    assert len(lift_enumerated(NoiseSpec("dp", 0.3), 2)) == 16
    with pytest.raises(SizeLimitError):
        lift_enumerated(NoiseSpec("ad", 0.3), MAX_ENUMERATED_QUBITS + 1)
    with pytest.raises(ValueError):
        lift_enumerated(NoiseSpec("ad", 0.3), 0)


@pytest.mark.parametrize("kind", KINDS)
def test_lift_enumerated_equals_kron_products(kind):
    spec = NoiseSpec(kind, 0.37)
    for n in range(1, MAX_ENUMERATED_QUBITS + 1):
        want = []
        for combo in product(kraus_stack(kind, 0.37)[0], repeat=n):
            op = combo[0]
            for e in combo[1:]:
                op = np.kron(op, e)
            want.append(op)
        got = lift_enumerated(spec, n)
        assert isinstance(got, np.ndarray)
        assert got.shape == (len(want), 2 ** n, 2 ** n)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("kind", ["ad", "dp", "pd"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sequential_equals_enumerated(kind, n):
    rho = random_density(n, seed=100 + n)
    spec = NoiseSpec(kind, 0.37)
    seq = apply_channel(rho, spec)
    summed = sum(e @ rho @ e.conj().T
                 for e in lift_enumerated(spec, n))
    assert np.abs(seq - summed).max() < 1e-12


def test_apply_channel_preserves_trace_and_positivity():
    rho = random_density(3, seed=5)
    for kind in ("ad", "dp", "pd"):
        out = apply_channel(rho, NoiseSpec(kind, 0.6))
        assert np.trace(out).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_p_zero_is_identity_channel():
    """At p = 0 every kind's corners are exactly |x><y|, so the one
    contraction gives the state back bit for bit."""
    for n_qubits, kind in product(range(1, 6), KINDS):
        rho = random_density(n_qubits, seed=9 + n_qubits)
        out = apply_channel(rho, NoiseSpec(kind, 0.0))
        assert np.array_equal(out, rho), (n_qubits, kind)
        assert out is not rho        # a copy, not the same object


def test_amplitude_damping_full_strength_collapses_to_ground():
    rho = random_density(2, seed=3)
    out = apply_channel(rho, NoiseSpec("ad", 1.0))
    want = np.zeros_like(out)
    want[0, 0] = 1.0
    assert np.abs(out - want).max() < 1e-12


def test_depolarizing_full_strength_is_maximally_mixed():
    rho = random_density(2, seed=4)
    out = apply_channel(rho, NoiseSpec("dp", 1.0))
    assert np.abs(out - np.eye(4) / 4).max() < 1e-12


def test_phase_damping_keeps_diagonal_kills_coherence():
    rho = random_density(2, seed=6)
    out = apply_channel(rho, NoiseSpec("pd", 1.0))
    assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-15
    off = out - np.diag(np.diag(out))
    assert np.abs(off).max() < 1e-12
    rho = random_density(3, seed=7)
    for p in (0.25, 0.5):
        out = apply_channel(rho, NoiseSpec("pd", p))
        assert np.abs(np.diag(out) - np.diag(rho)).max() <= 1e-15, p


def test_apply_channel_rejects_bad_dimension():
    for dim in (3, 6, 12, 0):
        with pytest.raises(ValueError,
                           match=f"dimension {dim} is not a power of two"):
            apply_channel(np.eye(dim, dtype=complex), NoiseSpec("ad", 0.5))
    with pytest.raises(ValueError, match=r"shape \(4, 2\) is not square"):
        apply_channel(np.zeros((4, 2), dtype=complex), NoiseSpec("ad", 0.5))


def tensordot_channel(rho, spec):
    """The channel as one ``tensordot`` per qubit on the 2^n x 2^n matrix,
    a transposed copy of the register each: "xyij,axbcyd->aibcjd". It sums
    each entry's four terms in the order ``apply_channel`` does, so the two
    agree bit for bit."""
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    corners = corner_stack(spec.kind, spec.p)[0].reshape(2, 2, 2, 2)
    for q in range(n):
        hi, lo = 2 ** q, 2 ** (n - 1 - q)
        rho = np.tensordot(corners, rho.reshape(hi, 2, lo, hi, 2, lo),
                           axes=([0, 1], [1, 4])).transpose(2, 0, 3, 4, 1, 5)
    return rho.reshape(dim, dim)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.77, 1.0])
def test_apply_channel_equals_tensordot_form(kind, p):
    spec = NoiseSpec(kind, p)
    for n in range(1, 7):
        rho = random_density(n, seed=300 + n)
        assert np.array_equal(apply_channel(rho, spec),
                              tensordot_channel(rho, spec)), n


@pytest.mark.parametrize("kind", KINDS)
def test_apply_channel_on_nine_qubit_ghz_equals_tensordot_form(kind):
    rho = make_initial_state(9)
    spec = NoiseSpec(kind, 0.3)
    assert np.array_equal(apply_channel(rho, spec),
                          tensordot_channel(rho, spec))


def test_apply_channel_on_one_entry_returns_it():
    """A 1 x 1 matrix is a register of no qubits: nothing to apply."""
    rho = np.array([[0.25 - 0.5j]])
    for kind in KINDS:
        out = apply_channel(rho, NoiseSpec(kind, 0.6))
        assert out.shape == (1, 1)
        assert np.array_equal(out, rho)
        assert np.array_equal(out, tensordot_channel(rho,
                                                     NoiseSpec(kind, 0.6)))
