"""Property-based tests tying the ATPG model to the simulators.

The central property: the unrolled time-frame model, simulated with
the composite engine, must agree with the *sequential* simulators —
good machine with the interpreted scalar reference simulator, faulty
machine with the bit-parallel fault simulator — at every net of every
frame.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.atpg.unroll import unroll
from repro.circuit.synth import SynthSpec, synthesize
from repro.sim import collapse_faults
from repro.sim.compile import compile_circuit
from repro.sim.faultsim import _GroupSim
from repro.sim.values import V0, V1, VX
from tests.logic_oracle import ScalarLogicSimulator

bits = st.integers(min_value=0, max_value=1)


def _model_values(model, patterns):
    """Composite-simulate the unrolled model under concrete PI patterns."""
    sources = dict(model.fixed)
    for frame, pattern in enumerate(patterns):
        for idx, value in zip(model.pi_of_frame(frame), pattern):
            sources[idx] = (value, value)
    return model.simulator().run(sources)


class TestUnrollEquivalence:
    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_good_machine_matches_sequential_sim(self, seed, n_frames, data):
        circuit = synthesize(SynthSpec("t", 3, 2, 2, 15, seed=seed))
        comp = compile_circuit(circuit)
        fault = collapse_faults(circuit)[0]
        model = unroll(comp, fault, n_frames)
        patterns = [
            tuple(data.draw(bits) for _ in circuit.inputs)
            for _ in range(n_frames)
        ]
        values = _model_values(model, patterns)
        trace = ScalarLogicSimulator(circuit, comp).run(patterns, record_nets=True)
        for frame in range(n_frames):
            offset = frame * comp.n_nets
            for name, idx in comp.index.items():
                good = values[offset + idx][0]
                assert good == trace.nets[frame][idx], (frame, name)

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_faulty_machine_matches_fault_simulator(self, seed, n_frames, data):
        circuit = synthesize(SynthSpec("t", 3, 2, 2, 15, seed=seed))
        comp = compile_circuit(circuit)
        faults = collapse_faults(circuit)
        fault = faults[data.draw(st.integers(0, len(faults) - 1))]
        model = unroll(comp, fault, n_frames)
        patterns = [
            tuple(data.draw(bits) for _ in circuit.inputs)
            for _ in range(n_frames)
        ]
        values = _model_values(model, patterns)

        flop_pos = {name: i for i, name in enumerate(circuit.flops)}
        group = _GroupSim(comp, flop_pos, [fault])
        for frame, pattern in enumerate(patterns):
            group.step(pattern)
            offset = frame * comp.n_nets
            for idx in range(comp.n_nets):
                ones, zeros = group.ones[idx], group.zeros[idx]
                if ones & 2:
                    expected = V1
                elif zeros & 2:
                    expected = V0
                else:
                    expected = VX
                faulty = values[offset + idx][1]
                assert faulty == expected, (frame, comp.names[idx], fault)

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_podem_success_implies_simulator_detection(self, seed, data):
        # Whatever PODEM claims to detect must re-verify on the fault
        # simulator (the driver asserts this too; here it is randomized).
        from repro.atpg.driver import generate_for_fault

        circuit = synthesize(SynthSpec("t", 4, 2, 2, 18, seed=seed))
        comp = compile_circuit(circuit)
        faults = collapse_faults(circuit)
        fault = faults[data.draw(st.integers(0, len(faults) - 1))]
        # generate_for_fault raises on any ATPG/simulator disagreement.
        generate_for_fault(circuit, fault, compiled=comp)
