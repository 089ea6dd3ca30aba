import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmstream.errors import CapacityError, DomainError
from hmstream.sketch import PairSketch
from hmstream.statevector import (
    GateOp,
    QuantumState,
    allocate,
    apply,
    cx,
    h,
    inject_depolarizing,
    measure_and_reset,
    measure_qubit,
    mcx,
    pair_pvm_probabilities,
    projector_probability,
    shot_rng,
    x,
    PvmOutcome,
    _controlled_pairs,
)

INV_SQRT2 = 1 / np.sqrt(2)


class TestAllocate:
    def test_single_qubit(self):
        state = allocate(1)
        assert np.allclose(state.amps, [1, 0])

    def test_two_qubits(self):
        assert np.allclose(allocate(2).amps, [1, 0, 0, 0])

    def test_seven_qubits(self):
        state = allocate(7)
        assert len(state.amps) == 128
        assert state.amps[0] == 1.0
        assert np.count_nonzero(state.amps) == 1

    @pytest.mark.parametrize("m", [0, -1, 25])
    def test_out_of_range(self, m):
        with pytest.raises(CapacityError):
            allocate(m)


class TestApply:
    def test_hadamard_on_zero(self):
        state = apply(allocate(1), h(0))
        assert np.allclose(state.amps, [INV_SQRT2, INV_SQRT2])

    def test_mcx_all_ones_controls(self):
        # |110> (qubit-0 first) is index 3; flips target 2 -> index 7
        state = allocate(3)
        state.amps[0], state.amps[3] = 0.0, 1.0
        apply(state, mcx([(0, 1), (1, 1)], 2))
        assert state.amps[7] == 1.0

    def test_mcx_zero_polarity_fires_on_zero(self):
        state = allocate(2)
        apply(state, mcx([(0, 0)], 1))
        assert state.amps[2] == 1.0  # |01> qubit-0 first

    def test_cx(self):
        state = allocate(2)
        apply(state, x(0))
        apply(state, cx(0, 1))
        assert state.amps[3] == 1.0

    def test_index_errors(self):
        state = allocate(2)
        with pytest.raises(IndexError):
            apply(state, h(2))
        with pytest.raises(IndexError):
            apply(state, mcx([(5, 1)], 0))

    def test_gateop_validation(self):
        with pytest.raises(DomainError):
            GateOp("h", 0, ((1, 1),))
        with pytest.raises(DomainError):
            GateOp("mcx", 0, ((0, 1),))
        with pytest.raises(DomainError):
            GateOp("mcx", 1, ((0, 1), (0, 0)))
        with pytest.raises(DomainError):
            GateOp("nope", 0)


def test_controlled_pairs_cache_is_bounded():
    bound = _controlled_pairs.cache_parameters()["maxsize"]
    assert bound is not None
    m = 14
    for bits in itertools.islice(itertools.product((0, 1), repeat=m - 1), bound + 100):
        _controlled_pairs(m, m - 1, tuple(enumerate(bits)))
    assert _controlled_pairs.cache_info().currsize <= bound


class TestProjector:
    def test_projector_onto_state_itself(self):
        state = apply(allocate(1), h(0))
        assert projector_probability(state, (0, 1), +1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projector(self):
        state = apply(allocate(1), h(0))
        assert projector_probability(state, (0, 1), -1) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pair_overlap(self):
        # uniform over 8 basis states: overlap with (|a>+|b>)/sqrt(2) is
        # (2 / sqrt(8 * 2))^2 = 1/4, computed by hand
        state = allocate(3)
        state.amps[:] = 1 / np.sqrt(8)
        assert projector_probability(state, (2, 5), +1) == pytest.approx(0.25, abs=1e-12)
        assert projector_probability(state, (2, 5), -1) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate_pair(self):
        state = allocate(2)
        with pytest.raises(DomainError):
            projector_probability(state, (1, 1), +1)


class TestMeasurePvm:
    # PairSketch.query_pair is the three-outcome PVM sampler over a state's
    # basis indices; elements 0 and 1 are the basis states |0> and |1>.
    def test_plus_state_yields_plus(self):
        sketch = PairSketch.create(1, [0, 1])
        assert np.allclose(sketch.sketch_vector(), [INV_SQRT2, INV_SQRT2])
        assert sketch.query_pair(0, 1, shot_rng(0, 0)) is PvmOutcome.PLUS

    def test_orthogonal_state_yields_zero_and_is_unchanged(self):
        sketch = PairSketch.create(2, [2, 3])
        before = sketch.sketch_vector()
        assert np.allclose(before, [0, 0, INV_SQRT2, INV_SQRT2])
        assert sketch.query_pair(0, 1, shot_rng(0, 1)) is PvmOutcome.ZERO
        assert np.allclose(sketch.sketch_vector(), before)

    def test_uniform_state_probabilities(self):
        state = allocate(3)
        state.amps[:] = 1 / np.sqrt(8)
        p_plus, p_minus, p_zero = pair_pvm_probabilities(state, 1, 6)
        assert p_plus == pytest.approx(0.25, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_plus + p_minus + p_zero == pytest.approx(1.0, abs=1e-12)


class TestMeasureQubit:
    def test_deterministic_outcome(self):
        state = apply(allocate(2), x(1))
        assert measure_qubit(state, 1, shot_rng(0, 0)) == 1
        assert measure_qubit(state, 0, shot_rng(0, 0)) == 0

    def test_measure_and_reset_returns_to_zero(self):
        state = apply(allocate(2), x(1))
        assert measure_and_reset(state, 1, shot_rng(0, 0)) == 1
        assert state.amps[0] == 1.0


class TestDepolarizing:
    def test_p_zero_is_identity(self):
        state = apply(allocate(2), h(0))
        before = state.amps.copy()
        inject_depolarizing(state, 0, 1, 0.0, shot_rng(1, 0))
        assert np.array_equal(state.amps, before)

    def test_p_one_always_applies_a_pauli(self):
        # |00> under any non-identity Pauli pair loses its amplitude on
        # |00> or flips sign structure; phases never leave it identical
        changed = 0
        for i in range(50):
            state = allocate(2)
            inject_depolarizing(state, 0, 1, 1.0, shot_rng(2, i))
            if abs(state.amps[0] - 1.0) > 1e-12:
                changed += 1
        assert changed > 30  # ZI, IZ, ZZ leave |00> fixed: 12/15 change it

    def test_zz_expectation_matches_channel(self):
        # analytic: E[ZZ] on |00> after one depolarizing step is 1 - 16p/15
        p = 0.5
        trials = 100_000
        rng = shot_rng(7, 0)
        total = 0.0
        for _ in range(trials):
            state = allocate(2)
            inject_depolarizing(state, 0, 1, p, rng)
            probs = np.abs(state.amps) ** 2
            zz = probs[0] - probs[1] - probs[2] + probs[3]
            total += zz
        expected = 1 - 16 * p / 15
        sigma = np.sqrt((1 - expected**2)) / np.sqrt(trials)
        assert abs(total / trials - expected) < 3 * max(sigma, 1e-3)

    def test_same_qubit_rejected(self):
        with pytest.raises(DomainError):
            inject_depolarizing(allocate(2), 1, 1, 0.5, shot_rng(0, 0))

    def test_trajectories_stay_pure(self):
        rng = shot_rng(3, 0)
        state = apply(allocate(3), h(0))
        for _ in range(100):
            inject_depolarizing(state, 0, 2, 0.8, rng)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)


@st.composite
def random_circuit(draw):
    m = draw(st.integers(2, 4))
    n_ops = draw(st.integers(0, 12))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["h", "x", "cx", "mcx"]))
        target = draw(st.integers(0, m - 1))
        if kind in ("h", "x"):
            ops.append(GateOp(kind, target))
        else:
            others = [q for q in range(m) if q != target]
            count = 1 if kind == "cx" else draw(st.integers(1, len(others)))
            qubits = draw(st.permutations(others))[:count]
            controls = tuple((q, draw(st.integers(0, 1))) for q in qubits)
            ops.append(GateOp(kind, target, controls))
    return m, ops


class TestProperties:
    @given(random_circuit())
    @settings(max_examples=120, deadline=None)
    def test_norm_preserved(self, circuit):
        m, ops = circuit
        state = allocate(m)
        for op in ops:
            apply(state, op)
        assert abs(state.norm_squared() - 1.0) <= 1e-10

    @given(random_circuit(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mcx_involution(self, circuit, seed):
        m, ops = circuit
        state = allocate(m)
        rng = shot_rng(seed, 0)
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        state.amps[:] = amps / np.linalg.norm(amps)
        others = [q for q in range(1, m)]
        gate = mcx([(q, q % 2) for q in others], 0)
        before = state.amps.copy()
        apply(state, gate)
        apply(state, gate)
        assert np.abs(state.amps - before).max() <= 1e-12

    def test_identical_seed_identical_record(self):
        def record(seed):
            rng = shot_rng(seed, 3)
            state = apply(apply(allocate(3), h(0)), h(2))
            out = []
            for q in (0, 2, 1):
                out.append(measure_qubit(state, q, rng))
            return out

        assert record(41) == record(41)

    def test_shot_rng_streams_differ(self):
        a = shot_rng(1, 0).random(4).tolist()
        b = shot_rng(1, 1).random(4).tolist()
        assert a != b
