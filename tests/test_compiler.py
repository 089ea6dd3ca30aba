from fractions import Fraction

import numpy as np
import pytest

from frozen import LOGICAL_TABLE, PHYSICAL_TABLE

from hmstream.boosting import total_quantum_space
from hmstream.compiler import (
    SketchLayout,
    ccx_ops,
    decompose_circuit,
    decompose_mcx,
    decompose_mcx_arity,
    expand_physical,
    log2_exact,
    logical_counts_hm,
    physical_closed_forms,
    physical_counts_hm,
    tally_ops,
    toffoli_count_hm,
    worst_case_ops,
)
from hmstream.errors import DecompositionError, DomainError
from hmstream.instances import HMInstance, generate
from hmstream.resources import CodeSpec, estimate
from hmstream.runners import exact_distribution, run_quantum_shot
from hmstream.statevector import circuit_matrix, cx, mcx


def mcx_permutation_columns(k: int, num_qubits: int) -> np.ndarray:
    """Brute-force oracle: the k-control X permutation embedded on the
    scratch-zero columns of a num_qubits register (controls 0..k-1,
    target k, scratch above, scratch returns to zero)."""
    main = 1 << (k + 1)
    out = np.zeros((1 << num_qubits, main))
    all_ones = (1 << k) - 1
    for col in range(main):
        row = col ^ (1 << k) if (col & all_ones) == all_ones else col
        out[row, col] = 1.0
    return out


class TestDecomposeMcx:
    def test_single_control_is_cnot(self):
        ops, _ = decompose_mcx_arity(1, 0)
        assert ops == [cx(0, 1)]

    def test_two_controls_is_one_exact_toffoli(self):
        ops, _ = decompose_mcx_arity(2, 0)
        assert [op.kind for op in ops] == ["ccx"]
        phys = expand_physical(ops)
        kinds = [op.kind for op in phys]
        assert kinds.count("cx") == 6
        assert sum(kinds.count(k) for k in ("t", "tdg")) == 7

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_unitary_equals_permutation(self, k):
        ops, num_qubits = decompose_mcx_arity(k, ancilla_budget=max(0, k - 2))
        got = circuit_matrix(expand_physical(ops), num_qubits,
                             columns=range(1 << (k + 1)))
        want = mcx_permutation_columns(k, num_qubits)
        assert np.abs(got - want).max() <= 1e-9

    def test_k5_sequence_matches_explicit_permutation(self):
        ops, num_qubits = decompose_mcx_arity(5, 3)
        got = circuit_matrix(expand_physical(ops), num_qubits, columns=range(64))
        assert np.abs(got - mcx_permutation_columns(5, num_qubits)).max() <= 1e-9

    def test_insufficient_ancillas(self):
        with pytest.raises(DecompositionError):
            decompose_mcx_arity(5, 2)

    def test_relative_toffolis_only_in_pairs(self):
        ops, _ = decompose_mcx_arity(6, 4)
        rccx = [op for op in ops if op.kind == "rccx"]
        assert len(rccx) % 2 == 0
        first_half = rccx[: len(rccx) // 2]
        second_half = rccx[len(rccx) // 2:]
        assert first_half == list(reversed(second_half))

    def test_zero_polarity_controls_conjugated(self):
        op = mcx([(0, 0), (1, 1), (2, 0)], 3)
        ops = decompose_mcx(op, scratch=(4,))
        got = circuit_matrix(expand_physical(ops), 5, columns=range(16))
        want = np.zeros((32, 16))
        for col in range(16):
            fires = (col & 1) == 0 and (col & 2) and (col & 4) == 0
            want[col ^ 8 if fires else col, col] = 1.0
        assert np.abs(got - want).max() <= 1e-9


class TestCounts:
    @pytest.mark.parametrize("n", sorted(LOGICAL_TABLE))
    def test_logical_closed_forms(self, n):
        space, h_count, cnot, mcx_v, mcx_e = LOGICAL_TABLE[n]
        L = log2_exact(n)
        got = logical_counts_hm(n)
        assert (got.space, got.h, got.cnot) == (space, h_count, cnot)
        assert got.mcx == {L: mcx_v, L + 2: mcx_e}

    @pytest.mark.parametrize("n", sorted(LOGICAL_TABLE))
    def test_logical_tally_matches_formula(self, n):
        ops, lay = worst_case_ops(n)
        tally = tally_ops(ops)
        want = logical_counts_hm(n)
        assert tally.h == want.h
        assert tally.cnot == want.cnot
        assert tally.mcx == want.mcx
        assert lay.width == want.space

    @pytest.mark.parametrize("n", sorted(PHYSICAL_TABLE))
    def test_physical_counts(self, n):
        t_count, h_count, cnot = PHYSICAL_TABLE[n]
        got = physical_counts_hm(n)
        forms = physical_closed_forms(n)
        assert got.t == t_count == forms["t"]
        assert got.h == h_count == forms["h"]
        assert forms["cnot_low"] <= got.cnot <= forms["cnot_high"]
        assert got.cnot == cnot  # this decomposition lands on the tabulated value

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            logical_counts_hm(12)
        with pytest.raises(DomainError):
            physical_counts_hm(10)

    def test_one_power_of_two_check_everywhere(self):
        assert [log2_exact(n) for n in (4, 8, 1024)] == [2, 3, 10]
        rejects = (
            log2_exact,
            logical_counts_hm,
            lambda n: worst_case_ops(n),
            lambda n: generate(n, Fraction(1, 4), "yes", seed=0),
            lambda n: run_quantum_shot(iter([]), n, np.random.default_rng(0)),
            lambda n: exact_distribution(HMInstance(n, Fraction(0), (), (), (), "yes", 0)),
        )
        for n in (0, 1, 2, 3, 6, 12):
            for check in rejects:
                with pytest.raises(DomainError, match=f"vertex count {n} must be a power of two >= 4"):
                    check(n)

    def test_layout_roles_match_the_sketch_elements(self):
        lay = SketchLayout(3)
        assert (lay.label, lay.parity, lay.width, lay.num_qubits) == (3, 4, 5, 7)
        assert lay.index(6, 1, 0) == 0b01110
        assert lay.vertex_controls(6) == ((0, 0), (1, 1), (2, 1))
        assert sorted(lay.elements()) == sorted(
            lay.index(v, 0, b) for v in range(8) for b in (0, 1))
        assert total_quantum_space(8, copies=1) == lay.width

    def test_toffoli_budget(self):
        # summing (controls + 1) per multi-controlled gate over the worst
        # case: 4 three-qubit + 8 five-qubit gates at n=4 gives 4*2 + 8*4
        assert toffoli_count_hm(4, copies=1) == 40
        assert toffoli_count_hm(10**10, 7) == pytest.approx(7.42e12, rel=5e-3)
        assert toffoli_count_hm(10**4, 7) == pytest.approx(3.22e6, rel=5e-3)
        # the resource table draws its Toffoli columns from the same formula
        code = CodeSpec("two-gross", 1e-4)
        assert estimate(4, code, copies=1).toffoli_total == 40
        for n in (10**4, 10**10):
            est = estimate(n, code)
            assert est.toffoli_per_copy == toffoli_count_hm(n, copies=1)
            assert est.toffoli_total == toffoli_count_hm(n, 7)


class TestWorstCaseCircuitEquivalence:
    def test_n4_decomposed_matches_logical(self):
        ops, lay = worst_case_ops(4)
        phys_ops, total_qubits = decompose_circuit(ops, lay.num_qubits)
        phys_ops = expand_physical(phys_ops)
        cols = range(1 << lay.num_qubits)
        logical = circuit_matrix(ops, total_qubits, columns=cols)
        decomposed = circuit_matrix(phys_ops, total_qubits, columns=cols)
        assert np.abs(logical - decomposed).max() <= 1e-9
