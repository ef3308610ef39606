"""Differential tests: the kernel-backed good machine against the oracle.

:class:`LogicSimulator` steps a fault-free program on the vector
kernel; :class:`tests.logic_oracle.ScalarLogicSimulator` interprets one
gate at a time.  Every :class:`SimTrace` field must agree — outputs,
states and recorded nets — for random circuits with constants,
multi-input XOR/XNOR, BUF/NOT and flip-flops fed straight from primary
inputs or other flip-flops, for ternary stimuli, explicit initial
states, bad patterns, and the replay of synthesized TPG designs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, Gate, GateType
from repro.circuit.library import load_circuit
from repro.core import WeightAssignment
from repro.core.procedure import ProcedureConfig
from repro.errors import SimulationError
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.hw import synthesize_tpg
from repro.sim import LogicSimulator, V0, V1, VX
from repro.sim.vector.packing import numpy_available
from tests.logic_oracle import ScalarLogicSimulator

FIXTURES = Path(__file__).parent / "fixtures"

_COMB = (
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
)


def random_circuit(seed, n_pi, n_ff, n_gates):
    """A random sequential circuit over every gate type.

    Constants feed the logic; XOR/XNOR take 2-4 fanins; each flip-flop
    is fed by a primary input, another flip-flop or any net.
    """
    rng = random.Random(seed)
    gates = [Gate(f"i{k}", GateType.INPUT, ()) for k in range(n_pi)]
    pis = [g.name for g in gates]
    for k in range(rng.randint(0, 2)):
        kind = rng.choice((GateType.CONST0, GateType.CONST1))
        gates.append(Gate(f"c{k}", kind, ()))
    flops = [f"q{k}" for k in range(n_ff)]
    nets = [g.name for g in gates] + flops
    for k in range(n_gates):
        gtype = rng.choice(_COMB)
        if gtype in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = rng.randint(2 if gtype in (GateType.XOR, GateType.XNOR) else 1, 4)
        gates.append(
            Gate(f"g{k}", gtype, tuple(rng.choice(nets) for _ in range(arity)))
        )
        nets.append(f"g{k}")
    for q in flops:
        source = rng.choice((pis, flops, nets))
        gates.append(Gate(q, GateType.DFF, (rng.choice(source),)))
    outputs = rng.sample(nets, rng.randint(1, min(4, len(nets))))
    return Circuit(f"rand{seed}", gates, outputs)


def _stimulus(rng, n_pi, length):
    return [tuple(rng.choice((V0, V1, VX)) for _ in range(n_pi)) for _ in range(length)]


def assert_same_trace(circuit, stimulus, **kw):
    expected = ScalarLogicSimulator(circuit).run(stimulus, **kw)
    actual = LogicSimulator(circuit).run(stimulus, **kw)
    assert actual == expected
    return actual


class TestRandomCircuits:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_pi=st.integers(min_value=1, max_value=4),
        n_ff=st.integers(min_value=0, max_value=4),
        n_gates=st.integers(min_value=0, max_value=20),
        stim_seed=st.integers(min_value=0, max_value=100_000),
        record_nets=st.booleans(),
        with_state=st.booleans(),
    )
    def test_matches_oracle(
        self, seed, n_pi, n_ff, n_gates, stim_seed, record_nets, with_state
    ):
        circuit = random_circuit(seed, n_pi, n_ff, n_gates)
        rng = random.Random(stim_seed)
        initial = (
            [rng.choice((V0, V1, VX)) for _ in range(n_ff)] if with_state else None
        )
        assert_same_trace(
            circuit, _stimulus(rng, n_pi, rng.randint(0, 12)),
            initial_state=initial, record_nets=record_nets,
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_reused_instance_starts_each_run_afresh(self, seed):
        circuit = random_circuit(seed, 3, 3, 12)
        rng = random.Random(seed)
        logic = LogicSimulator(circuit)
        oracle = ScalarLogicSimulator(circuit)
        for initial in ([V1, V0, V1], None, [VX, V1, V0], None):
            stimulus = _stimulus(rng, 3, 6)
            assert logic.run(stimulus, initial_state=initial) == oracle.run(
                stimulus, initial_state=initial
            )

    @pytest.mark.parametrize(
        "packing", ["int"] + (["numpy"] if numpy_available() else [])
    )
    def test_packing_policy_does_not_apply(self, packing, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PACKING", packing)
        for seed in range(25):
            rng = random.Random(seed)
            circuit = random_circuit(seed, 3, 3, 15)
            assert_same_trace(circuit, _stimulus(rng, 3, 10), record_nets=True)


class TestBadInput:
    @pytest.mark.parametrize(
        "stimulus, initial",
        [
            ([(V1, V0, V1, V0), (V1, V0)], None),
            ([(V0, V0, V0, V0), (V1, V1, V1, V1), (V1, 3, V0, V0)], None),
            ([(V1, V0, V1, "1")], None),
            ([(V1, V0, V1, V0)], [V0, V1]),
        ],
    )
    def test_same_error_as_oracle(self, s27, stimulus, initial):
        with pytest.raises(SimulationError) as expected:
            ScalarLogicSimulator(s27).run(stimulus, initial_state=initial)
        with pytest.raises(SimulationError) as actual:
            LogicSimulator(s27).run(stimulus, initial_state=initial)
        assert str(actual.value) == str(expected.value)
        assert str(actual.value).startswith(("time ", "initial state"))

    def test_failed_run_leaves_instance_usable(self, s27):
        logic = LogicSimulator(s27)
        with pytest.raises(SimulationError):
            logic.run([(V1, V1, V1, V1), (V1, 9, V1, V1)])
        stimulus = [(V1, V0, V1, V0), (V0, V0, V1, V1)]
        assert logic.run(stimulus) == ScalarLogicSimulator(s27).run(stimulus)


class TestLibraryCircuits:
    @pytest.mark.parametrize("name", ["s27", "g208", "g386"])
    def test_random_ternary_replay(self, name):
        circuit = load_circuit(name)
        rng = random.Random(name)
        assert_same_trace(
            circuit, _stimulus(rng, len(circuit.inputs), 40), record_nets=True
        )


def _replay(design):
    """The :func:`repro.hw.verify_tpg` stimulus: one reset cycle, then run."""
    return [(V1,)] + [(V0,)] * design.total_cycles


class TestTpgReplay:
    def test_s27_design(self):
        golden = json.loads((FIXTURES / "s27_oracle_golden.json").read_text())
        omega = [
            WeightAssignment.from_strings(row["assignment"].strip("{}").split(", "))
            for row in golden["plain"]["omega"]
        ]
        design = synthesize_tpg(omega, l_g=64)
        trace = assert_same_trace(design.circuit, _replay(design))
        for j in range(design.n_assignments):
            for t, expected in enumerate(design.expected_stream(j)):
                assert trace.outputs[1 + j * design.l_g + t] == tuple(expected)

    def test_g208_design(self):
        flow = run_full_flow(
            "g208",
            FlowConfig(
                seed=3, tgen_max_len=300, compaction_sims=0,
                procedure=ProcedureConfig(l_g=64), synthesize_hardware=True,
            ),
        )
        assert flow.tpg_verified
        assert_same_trace(flow.tpg.circuit, _replay(flow.tpg))
