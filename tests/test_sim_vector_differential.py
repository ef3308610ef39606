"""Differential tests for the word-packed fault simulator.

The vector kernel (:mod:`repro.sim.vector`) is a drop-in replacement
for the pure-Python oracle (``oracle=True``): same
:class:`FaultSimResult`, same detection times, same recorded
discrepancy lines, for every circuit, fault list and ternary stimulus.
These tests enforce that contract — by hypothesis over random
synthetic circuits, over the bundled ``.bench`` fixtures and library
circuits, under both word packings, with the numpy fallback forced,
with pruned configurations, and at the word-width boundaries the
packing introduces.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import parse_bench
from repro.circuit.library import load_circuit
from repro.circuit.synth import SynthSpec, synthesize
from repro.sim import FaultSimulator, IncrementalFaultSimulator
from repro.sim.faults import FaultPruner, all_faults
from repro.sim.faultsim import GROUP_FAULTS
from repro.sim.vector.packing import WORD_BITS, numpy_available

FIXTURES = Path(__file__).parent / "fixtures"

#: Forced word packings to exercise; numpy only where importable.
PACKINGS = ["int"] + (["numpy"] if numpy_available() else [])


def _random_stimulus(rng, n_pi, max_len, ternary=True):
    """A random stimulus: ``max_len``-bounded rows of 0/1/X values."""
    alphabet = [0, 1, 2] if ternary else [0, 1]
    length = rng.randint(0, max_len)
    return [[rng.choice(alphabet) for _ in range(n_pi)] for _ in range(length)]


def _assert_same_result(a, b, context=""):
    """Full FaultSimResult equality — times, sets, lines, counts."""
    assert a.detection_time == b.detection_time, context
    assert a.undetected == b.undetected, context
    assert a.n_faults == b.n_faults, context
    assert a.lines == b.lines, context


def _run_both(circuit, stimulus, faults, packing, monkeypatch, **kw):
    monkeypatch.setenv("REPRO_SIM_PACKING", packing)
    oracle = FaultSimulator(circuit, oracle=True).run(
        stimulus, faults, **kw
    )
    vector = FaultSimulator(circuit).run(
        stimulus, faults, **kw
    )
    return oracle, vector


class TestRandomCircuits:
    """Hypothesis: random synthetic circuits × faults × sequences."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=5),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=3, max_value=24),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        record=st.booleans(),
    )
    def test_backends_agree(
        self, seed, n_pi, n_ff, n_gates, stim_seed, record
    ):
        n_gates = max(n_gates, n_ff, 2)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, 1, n_ff, n_gates, seed=seed)
        )
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        if rng.random() < 0.5:
            faults = [f for f in faults if rng.random() < 0.5]
        stimulus = _random_stimulus(rng, n_pi, 12)
        oracle = FaultSimulator(circuit, oracle=True).run(
            stimulus, faults, record_lines=record,
            stop_when_all_detected=not record,
        )
        vector = FaultSimulator(circuit).run(
            stimulus, faults, record_lines=record,
            stop_when_all_detected=not record,
        )
        _assert_same_result(oracle, vector)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stim_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_incremental_agrees(self, seed, stim_seed):
        circuit = synthesize(SynthSpec("hyp", 3, 2, 3, 12, seed=seed))
        faults = all_faults(circuit)
        inc_py = IncrementalFaultSimulator(circuit, faults, oracle=True)
        inc_vec = IncrementalFaultSimulator(circuit, faults)
        rng = random.Random(stim_seed)
        for cycle in range(12):
            pattern = [rng.choice([0, 1, 2]) for _ in circuit.inputs]
            assert inc_py.peek(pattern) == inc_vec.peek(pattern)
            assert inc_py.step(pattern) == inc_vec.step(pattern)
            assert inc_py.remaining_faults() == inc_vec.remaining_faults()
            if cycle == 6:
                inc_py.regroup()
                inc_vec.regroup()


@pytest.mark.parametrize("packing", PACKINGS)
class TestFixtureCircuits:
    """Bundled circuits, both packings, every entry point."""

    @pytest.mark.parametrize(
        "name", ["s27", "g208", "defects.bench"]
    )
    def test_run_equivalence(self, name, packing, monkeypatch):
        circuit = (
            parse_bench(FIXTURES / name)
            if name.endswith(".bench")
            else load_circuit(name)
        )
        faults = all_faults(circuit)
        rng = random.Random(hash(name) & 0xFFFF)
        for trial in range(4):
            stimulus = _random_stimulus(rng, len(circuit.inputs), 25)
            for kw in (
                {"record_lines": True, "stop_when_all_detected": False},
                {},
                {"stop_when_all_detected": False},
            ):
                oracle, vector = _run_both(
                    circuit, stimulus, faults, packing, monkeypatch, **kw
                )
                _assert_same_result(
                    oracle, vector, f"{name} trial={trial} kw={kw}"
                )

    def test_screen_and_batch_parity(self, packing, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PACKING", packing)
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        rng = random.Random(11)
        stimuli = [
            _random_stimulus(rng, len(circuit.inputs), 20) for _ in range(5)
        ]
        oracle = FaultSimulator(circuit, oracle=True)
        vector = FaultSimulator(circuit)
        for stimulus in stimuli:
            assert oracle.detects_any(stimulus, faults) == vector.detects_any(
                stimulus, faults
            )
        assert oracle.detects_any_batch(
            stimuli, faults
        ) == vector.detects_any_batch(stimuli, faults)
        batch = vector.run_batch(stimuli, faults, stop_when_all_detected=False)
        for stimulus, result in zip(stimuli, batch):
            _assert_same_result(
                oracle.run(stimulus, faults, stop_when_all_detected=False),
                result,
            )

    def test_power_up_state_sweep(self, packing, monkeypatch):
        """reset_state restores the all-X power-up state exactly: a
        second sweep of the same walk detects the same faults at the
        same steps, on the kernel and the oracle."""
        monkeypatch.setenv("REPRO_SIM_PACKING", packing)
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        rng = random.Random(3)
        walk = [
            [rng.choice([0, 1, 2]) for _ in circuit.inputs] for _ in range(8)
        ]
        for oracle in (True, False):
            inc = IncrementalFaultSimulator(circuit, faults, oracle=oracle)
            first = [inc.step(p) for p in walk]
            detected_once = sorted(
                f for newly in first for f in newly
            )
            inc.reset_state()
            # State resets; detected faults stay dropped — the sweep
            # continues over the survivors only.
            survivors = inc.remaining_faults()
            assert sorted(survivors + detected_once) == sorted(faults)

    def test_pruned_config_equivalence(self, packing, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PACKING", packing)
        circuit = parse_bench(FIXTURES / "defects.bench")
        faults = all_faults(circuit)
        pruner = FaultPruner(circuit)
        rng = random.Random(5)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 15)
        oracle = FaultSimulator(circuit, pruner=pruner, oracle=True).run(
            stimulus, faults
        )
        vector = FaultSimulator(circuit, pruner=pruner).run(
            stimulus, faults
        )
        _assert_same_result(oracle, vector)
        # And pruned == unpruned (the pruner's standing soundness claim).
        plain = FaultSimulator(circuit).run(stimulus, faults)
        _assert_same_result(vector, plain)


class TestNoNumpyFallback:
    """The vector kernel works — identically — without numpy."""

    def test_pure_stdlib_packing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        monkeypatch.delenv("REPRO_SIM_PACKING", raising=False)
        assert not numpy_available()
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        rng = random.Random(9)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 20)
        oracle = FaultSimulator(circuit, oracle=True).run(
            stimulus, faults, record_lines=True, stop_when_all_detected=False
        )
        vector = FaultSimulator(circuit).run(
            stimulus, faults, record_lines=True, stop_when_all_detected=False
        )
        _assert_same_result(oracle, vector)

    def test_forced_numpy_without_numpy_raises(self, monkeypatch):
        from repro.errors import SimulationError
        from repro.sim.vector.packing import choose_packing

        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        monkeypatch.setenv("REPRO_SIM_PACKING", "numpy")
        with pytest.raises(SimulationError):
            choose_packing(4)


class TestWordBoundaries:
    """Fault counts straddling the word width pack correctly."""

    def test_group_faults_derived_from_word_bits(self):
        # The packing module owns the word width; the simulator's group
        # size (63 = word minus the good-machine lane) must follow it.
        assert GROUP_FAULTS == WORD_BITS - 1
        assert WORD_BITS == 64

    @pytest.mark.parametrize(
        "n_faults", [GROUP_FAULTS - 1, GROUP_FAULTS, GROUP_FAULTS + 1,
                     WORD_BITS, WORD_BITS + 1, 2 * GROUP_FAULTS + 3]
    )
    def test_boundary_fault_counts(self, n_faults, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PACKING", "int")
        circuit = load_circuit("g208")
        faults = all_faults(circuit)[:n_faults]
        assert len(faults) == n_faults
        rng = random.Random(n_faults)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 20)
        oracle, vector = _run_both(
            circuit, stimulus, faults, "int", monkeypatch,
            stop_when_all_detected=False,
        )
        _assert_same_result(oracle, vector)

    def test_single_fault(self, monkeypatch):
        circuit = load_circuit("s27")
        fault = all_faults(circuit)[0]
        rng = random.Random(1)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 20)
        for packing in PACKINGS:
            oracle, vector = _run_both(
                circuit, stimulus, [fault], packing, monkeypatch
            )
            _assert_same_result(oracle, vector)

    def test_zero_faults(self):
        circuit = load_circuit("s27")
        result = FaultSimulator(circuit).run(
            [[0, 1, 0, 1]], []
        )
        assert result.n_faults == 0
        assert result.detection_time == {}
        assert result.undetected == ()

    def test_empty_stimulus(self):
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        oracle = FaultSimulator(circuit, oracle=True).run([], faults)
        vector = FaultSimulator(circuit).run([], faults)
        _assert_same_result(oracle, vector)
        assert vector.detection_time == {}

    def test_int_kernel_word_bits_parity(self):
        """Block padding width never changes outcomes: an IntKernel
        built at word_bits=16 steps identically to the 64-bit one."""
        from repro.sim.compile import compile_circuit
        from repro.sim.vector.kernels import IntKernel
        from repro.sim.vector.program import build_program

        circuit = load_circuit("s27")
        comp = compile_circuit(circuit)
        flop_pos = {name: i for i, name in enumerate(circuit.flops)}
        faults = all_faults(circuit)[:GROUP_FAULTS]
        program = build_program(comp, flop_pos, faults)
        narrow = IntKernel(program, word_bits=16)
        wide = IntKernel(program, word_bits=64)
        rng = random.Random(2)
        for _ in range(10):
            pattern = [rng.choice([0, 1]) for _ in circuit.inputs]
            assert narrow.step([pattern]) == wide.step([pattern])
            assert narrow.discrepancies() == wide.discrepancies()


class TestIncrementalPartialDetection:
    """step/peek/regroup equivalence after some faults are detected."""

    def test_regroup_after_partial_detection(self):
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        inc_py = IncrementalFaultSimulator(circuit, faults, oracle=True)
        inc_vec = IncrementalFaultSimulator(circuit, faults)
        rng = random.Random(21)
        detected_total = 0
        for cycle in range(30):
            pattern = [rng.choice([0, 1]) for _ in circuit.inputs]
            assert inc_py.peek(pattern) == inc_vec.peek(pattern)
            newly = inc_py.step(pattern)
            assert newly == inc_vec.step(pattern)
            detected_total += len(newly)
            if detected_total and cycle % 7 == 0:
                inc_py.regroup()
                inc_vec.regroup()
                assert (
                    inc_py.remaining_faults() == inc_vec.remaining_faults()
                )
        assert detected_total > 0
        assert inc_py.n_remaining == inc_vec.n_remaining

    def test_detects_any_short_circuit_parity(self):
        """detects_any answers identically whether or not the engine
        short-circuits on first detection."""
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        rng = random.Random(13)
        oracle = FaultSimulator(circuit, oracle=True)
        vector = FaultSimulator(circuit)
        hits = misses = 0
        for _ in range(12):
            stimulus = _random_stimulus(rng, len(circuit.inputs), 6)
            verdict = oracle.detects_any(stimulus, faults)
            assert verdict == vector.detects_any(stimulus, faults)
            hits += verdict
            misses += not verdict
        assert hits and misses  # both answers exercised
