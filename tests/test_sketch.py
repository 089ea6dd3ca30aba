import itertools
from fractions import Fraction

import numpy as np
import pytest

import hmstream.sketch
from hmstream.compiler import tally_ops
from hmstream.errors import DomainError, SimulationError
from hmstream.instances import generate, to_stream
from hmstream.runners import run_quantum_shot
from hmstream.sketch import PairSketch
from hmstream.statevector import NoiseConfig, PvmOutcome, apply, shot_rng


def bits(text):
    """Basis index of a bit string whose character i is qubit i."""
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def indicator_vector(elements, width):
    """Oracle: flat normalized indicator construction."""
    v = np.zeros(1 << width, dtype=complex)
    for e in elements:
        v[e] = 1.0
    return v / np.linalg.norm(v)


def transposition_matrix(a, b, width):
    """Oracle: explicit permutation matrix swapping |a> and |b>."""
    dim = 1 << width
    perm = np.eye(dim)
    perm[[a, b]] = perm[[b, a]]
    return perm


def set_sketch_vector(sketch, vec):
    full = np.zeros(1 << (sketch.width + 2), dtype=complex)
    full[: len(vec)] = vec
    sketch.state.amps = full


@pytest.fixture
def emitted(monkeypatch):
    """Every gate the sketch applies, in order."""
    ops = []

    def record(state, op):
        ops.append(op)
        return apply(state, op)

    monkeypatch.setattr(hmstream.sketch, "apply", record)
    return ops


GATE_REFERENCE = PairSketch._query_pair_gates


@pytest.fixture
def reruns(monkeypatch):
    """(a, b) of every query that fell back to the gate-level reference."""
    calls = []

    def counted(self, a, b, *args):
        calls.append((a, b))
        return GATE_REFERENCE(self, a, b, *args)

    monkeypatch.setattr(PairSketch, "_query_pair_gates", counted)
    return calls


def random_vector(width, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return v / np.linalg.norm(v)


class TestCreate:
    def test_full_cube_uses_hadamard_layer(self, emitted):
        k = 3
        elems = [bits("".join(b)) for b in itertools.product("01", repeat=k)]
        sketch = PairSketch.create(k, elems)
        used = tally_ops(emitted)
        assert used.h == k
        assert used.cnot == 0
        assert np.allclose(sketch.sketch_vector(), np.full(8, 1 / np.sqrt(8)))

    def test_two_bit_cube_amplitudes(self):
        sketch = PairSketch.create(2, [bits("00"), bits("01"), bits("10"), bits("11")])
        assert np.allclose(sketch.sketch_vector(), [0.5, 0.5, 0.5, 0.5])

    def test_general_set_matches_indicator_oracle(self):
        elems = [bits("000"), bits("011"), bits("101")]
        sketch = PairSketch.create(3, elems)
        assert np.abs(sketch.sketch_vector() - indicator_vector(elems, 3)).max() <= 1e-12

    def test_cube_times_fixed_product(self, emitted):
        # free x fixed-zero x free: the streamed-matching shape
        elems = [bits(a + "0" + b) for a in "01" for b in "01"]
        sketch = PairSketch.create(3, elems)
        assert tally_ops(emitted).h == 2
        assert np.abs(sketch.sketch_vector() - indicator_vector(elems, 3)).max() <= 1e-12

    def test_fixed_one_bits_use_x(self, emitted):
        elems = [bits("10"), bits("11")]
        sketch = PairSketch.create(2, elems)
        assert tally_ops(emitted).x == 1
        assert np.abs(sketch.sketch_vector() - indicator_vector(elems, 2)).max() <= 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            PairSketch.create(3, [])

    def test_element_outside_width_rejected(self):
        sketch = PairSketch.create(3, [bits("000"), bits("011")])
        for bad in (-1, 8):
            with pytest.raises(DomainError):
                PairSketch.create(3, [bits("010"), bad])
            with pytest.raises(DomainError):
                sketch.query_one(bad, shot_rng(0, 0))
            with pytest.raises(DomainError):
                sketch.query_pair(bits("010"), bad, shot_rng(0, 0))
            with pytest.raises(DomainError):
                sketch.query_pair(bad, bits("010"), shot_rng(0, 0))
            with pytest.raises(DomainError):
                sketch.update_transposition(bits("010"), bad)
            with pytest.raises(DomainError):
                sketch.update_transposition(bad, bits("010"))


class TestQueryOne:
    def test_exact_element_always_hits(self):
        sketch = PairSketch.create(3, [bits("101")])
        assert sketch.query_one(bits("101"), shot_rng(0, 0)) is True
        assert abs(abs(sketch.sketch_vector()[bits("101")]) - 1.0) <= 1e-12

    def test_absent_element_never_hits(self):
        sketch = PairSketch.create(3, [bits("000"), bits("011")])
        assert sketch.query_one(bits("111"), shot_rng(0, 1)) is False

    def test_quarter_probability_on_four_elements(self):
        elems = [bits("000"), bits("011"), bits("101"), bits("110")]
        hits = 0
        trials = 4000
        for i in range(trials):
            sketch = PairSketch.create(3, elems)
            hits += sketch.query_one(bits("011"), shot_rng(5, i))
        sigma = np.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) < 4 * sigma

    def test_budget_single_multi_controlled_gate(self, emitted):
        sketch = PairSketch.create(3, [bits("000"), bits("011")])
        sketch.query_one(bits("000"), shot_rng(1, 0))
        assert tally_ops(emitted).mcx == {3: 1}


class TestQueryPair:
    def test_plus_state_yields_plus(self):
        a, b = bits("010"), bits("110")
        sketch = PairSketch.create(3, [a, b])
        assert sketch.query_pair(a, b, shot_rng(0, 0)) is PvmOutcome.PLUS
        vec = sketch.sketch_vector()
        expected = indicator_vector([a, b], 3)
        phase = np.vdot(expected, vec)
        assert np.abs(vec - phase * expected).max() <= 1e-9

    def test_orthogonal_state_yields_zero_unchanged(self):
        sketch = PairSketch.create(3, [bits("001"), bits("111")])
        before = sketch.sketch_vector()
        assert sketch.query_pair(bits("010"), bits("100"), shot_rng(0, 1)) is PvmOutcome.ZERO
        assert np.abs(sketch.sketch_vector() - before).max() <= 1e-12

    def test_overweight_pair_raises(self):
        sketch = PairSketch.create(1, [0])
        sketch.state.amps *= 2.0  # deliberately unnormalized
        with pytest.raises(SimulationError):
            sketch.query_pair(0, 1, shot_rng(0, 2))

    def test_uniform_eight_probabilities_match_projectors(self):
        sketch = PairSketch.create(3, range(8))
        p_plus, p_minus, p_zero = sketch.pair_probabilities(bits("000"), bits("100"))
        assert p_plus == pytest.approx(0.25, abs=1e-10)
        assert p_minus == pytest.approx(0.0, abs=1e-10)
        assert p_zero == pytest.approx(0.75, abs=1e-10)

    def test_identical_elements_rejected(self):
        sketch = PairSketch.create(2, [bits("00"), bits("11")])
        with pytest.raises(DomainError):
            sketch.query_pair(bits("01"), bits("01"), shot_rng(0, 0))

    def test_zero_branch_matches_complement_projection(self):
        # post-state on zero equals the renormalized complement projection
        vec = random_vector(3, seed=9)
        for i in range(40):
            sketch = PairSketch.create(3, [bits("000")])
            set_sketch_vector(sketch, vec)
            out = sketch.query_pair(bits("010"), bits("101"), shot_rng(11, i))
            if out is not PvmOutcome.ZERO:
                continue
            ia, ib = bits("010"), bits("101")
            proj = vec.copy()
            plus = (proj[ia] + proj[ib]) / 2
            minus = (proj[ia] - proj[ib]) / 2
            proj[ia] -= plus + minus
            proj[ib] -= plus - minus
            proj /= np.linalg.norm(proj)
            got = sketch.sketch_vector()
            phase = np.vdot(proj, got)
            assert np.abs(got - phase * proj).max() <= 1e-9

    def test_gate_budget(self, emitted):
        # the compiled circuit is the gate-level reference; query_pair samples it
        k = 4
        for trial in range(30):
            sketch = PairSketch.create(k, range(16))
            emitted.clear()
            sketch._query_pair_gates(bits("0000"), bits("1111"), shot_rng(21, trial))
            used = tally_ops(emitted)
            assert used.h == 2
            assert used.cnot <= 2 * k
            assert used.x <= 2
            assert 1 <= used.mcx.get(k, 0) <= 2

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
    def test_sampled_matches_gate_reference(self, width):
        rng = np.random.default_rng(200 + width)
        for trial in range(60):
            a, b = (int(e) for e in rng.choice(1 << width, size=2, replace=False))
            vec = random_vector(width, seed=int(rng.integers(1 << 30)))
            sampled, reference = PairSketch.create(width, [0]), PairSketch.create(width, [0])
            set_sketch_vector(sampled, vec)
            set_sketch_vector(reference, vec)
            got = sampled.query_pair(a, b, shot_rng(41, trial))
            want = GATE_REFERENCE(reference, a, b, shot_rng(41, trial))
            assert got is want
            assert np.abs(sampled.state.amps - reference.state.amps).max() <= 1e-12
            assert sampled.state.norm_squared() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("p", [1e-3, 5e-2])
    def test_noisy_shots_match_gate_reference(self, monkeypatch, reruns, n, p):
        noise = NoiseConfig(p)
        streams = [to_stream(generate(n, Fraction(1, 4), case, seed=60 + n))
                   for case in ("yes", "no")]

        def shots():
            return [run_quantum_shot(iter(streams[i % 2]), n, shot_rng(51, i), noise)
                    for i in range(150)]

        sampled = shots()
        assert reruns
        monkeypatch.setattr(PairSketch, "query_pair", GATE_REFERENCE)
        assert sampled == shots()

    def test_distinct_noise_and_measurement_generators(self, reruns):
        width, p = 4, 5e-2
        for trial in range(40):
            sketches = [PairSketch.create(width, range(1 << width), noise=NoiseConfig(p),
                                          noise_rng=shot_rng(61, trial)) for _ in range(2)]
            rng = [shot_rng(62, trial) for _ in range(2)]
            pairs = np.random.default_rng(trial).choice(1 << width, size=(6, 2))
            for a, b in pairs:
                if a == b:
                    continue
                got = sketches[0].query_pair(int(a), int(b), rng[0])
                want = GATE_REFERENCE(sketches[1], int(a), int(b), rng[1])
                assert got is want
                assert np.abs(sketches[0].state.amps - sketches[1].state.amps).max() <= 1e-12
                if got is not PvmOutcome.ZERO:
                    break
        assert reruns

    def test_probabilities_sum_to_one(self):
        sketch = PairSketch.create(4, [bits("0010"), bits("0111"), bits("1001")])
        p = sketch.pair_probabilities(bits("0010"), bits("1001"))
        assert sum(p) == pytest.approx(1.0, abs=1e-10)

    def test_ancillas_clean_after_every_outcome(self):
        for i in range(30):
            sketch = PairSketch.create(3, [bits("000"), bits("011"), bits("110")])
            sketch.query_pair(bits("000"), bits("110"), shot_rng(31, i))
            assert sketch.ancillas_clean()


class TestUpdate:
    def test_transposition_moves_basis_state(self):
        sketch = PairSketch.create(3, [bits("011")])
        sketch.update_transposition(bits("011"), bits("101"))
        assert abs(abs(sketch.sketch_vector()[bits("101")]) - 1.0) <= 1e-9

    def test_untouched_amplitude_preserved(self):
        sketch = PairSketch.create(3, [bits("000"), bits("011"), bits("110")])
        before = sketch.sketch_vector()
        sketch.update_transposition(bits("011"), bits("101"))
        after = sketch.sketch_vector()
        idx = bits("110")
        assert after[idx] == pytest.approx(before[idx], abs=1e-9)

    def test_random_state_matches_permutation_oracle(self):
        vec = random_vector(3, seed=4)
        sketch = PairSketch.create(3, [bits("000")])
        set_sketch_vector(sketch, vec)
        sketch.update_transposition(bits("110"), bits("101"))
        want = transposition_matrix(bits("110"), bits("101"), 3) @ vec
        got = sketch.sketch_vector()
        phase = np.vdot(want, got)
        assert abs(abs(phase) - 1.0) <= 1e-9
        assert np.abs(got - phase * want).max() <= 1e-9

    def test_empty_permutation_is_identity(self):
        vec = random_vector(2, seed=8)
        sketch = PairSketch.create(2, [bits("00")])
        set_sketch_vector(sketch, vec)
        sketch.update([])
        got = sketch.sketch_vector()
        phase = np.vdot(vec, got)
        assert np.abs(got - phase * vec).max() <= 1e-12

    def test_overlapping_transpositions_compose_in_order(self):
        # (a b) then (b c) sends |a> -> |b> -> |c>
        a, b, c = bits("001"), bits("010"), bits("100")
        sketch = PairSketch.create(3, [a])
        sketch.update([(a, b), (b, c)])
        assert abs(abs(sketch.sketch_vector()[c]) - 1.0) <= 1e-9

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_random_permutations_match_matrix_composition(self, width):
        rng = np.random.default_rng(100 + width)
        for trial in range(34):
            count = int(rng.integers(1, 5))
            pairs = []
            for _ in range(count):
                ia, ib = rng.choice(1 << width, size=2, replace=False)
                pairs.append((int(ia), int(ib)))
            vec = random_vector(width, seed=int(rng.integers(1 << 30)))
            sketch = PairSketch.create(width, [0])
            set_sketch_vector(sketch, vec)
            sketch.update(pairs)
            want = vec.copy()
            for a, b in pairs:
                want = transposition_matrix(a, b, width) @ want
            got = sketch.sketch_vector()
            phase = np.vdot(want, got)
            assert abs(abs(phase) - 1.0) <= 1e-9
            assert np.abs(got - phase * want).max() <= 1e-9

    def test_transposition_budget(self, emitted):
        k = 4
        sketch = PairSketch.create(k, range(16))
        emitted.clear()
        sketch.update_transposition(bits("0000"), bits("1111"))
        used = tally_ops(emitted)
        assert used.h <= 2
        assert used.cnot <= 2 * k
        assert used.x <= 3 * k
        assert used.mcx.get(k, 0) <= 2

    def test_degenerate_transposition_rejected(self):
        sketch = PairSketch.create(2, [bits("00"), bits("01")])
        with pytest.raises(DomainError):
            sketch.update_transposition(bits("01"), bits("01"))
