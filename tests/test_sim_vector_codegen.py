"""Tests for the big-int kernel's code generation.

The step is generated in chunks of at most ``_CHUNK_OPS`` gates, and
identical generated sources share one compiled function through a
bounded process-wide LRU memo.  Neither may change a single bit of any
kernel row.  The numpy schedule (``VectorProgram.waves``) is built only
for a numpy kernel.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

import pytest

from repro.circuit.library import load_circuit
from repro.sim import Fault, all_faults
from repro.sim.compile import compile_circuit
from repro.sim.vector import kernels
from repro.sim.vector.kernels import IntKernel, NumpyKernel, make_kernel
from repro.sim.vector.packing import numpy_available
from repro.sim.vector.program import build_program


def _program(circuit, faults):
    flop_pos = {name: i for i, name in enumerate(circuit.flops)}
    return build_program(compile_circuit(circuit), flop_pos, faults)


@pytest.fixture
def fresh_memo(monkeypatch):
    memo: OrderedDict = OrderedDict()
    monkeypatch.setattr(kernels, "_CODE_MEMO", memo)
    return memo


def _stem_faults(circuit):
    """Stem faults on distinct gate outputs, one per generated source."""
    return [
        f
        for f in all_faults(circuit)
        if not f.is_branch
        and f.stuck == 0
        and circuit.gate(f.net).gtype.is_combinational
    ]


class TestCodeMemo:
    def test_same_force_shape_shares_code(self, g208, fresh_memo):
        sa0 = _stem_faults(g208)[0]
        a = IntKernel(_program(g208, [sa0]))
        b = IntKernel(_program(g208, [Fault(sa0.net, 1)]))
        assert all(x is y for (x, _), (y, _) in zip(a._chunks, b._chunks))
        assert len(fresh_memo) == 1
        # Shared code, different masks: the two faults still differ.
        assert [m for _, m in a._chunks] != [m for _, m in b._chunks]

    def test_fault_free_programs_share_code(self, s27, fresh_memo):
        a = IntKernel(_program(s27, []), word_bits=1)
        b = IntKernel(_program(s27, []), word_bits=64)
        assert a._chunks[0][0] is b._chunks[0][0]
        assert len(fresh_memo) == 1

    def test_evicts_least_recently_used_at_seventeenth_entry(
        self, g208, fresh_memo
    ):
        size = kernels._CODE_MEMO_SIZE
        assert size == 16
        faults = _stem_faults(g208)[: size + 2]
        first = kernels._compile_int_step(_program(g208, [faults[0]]))
        for fault in faults[1:size]:
            kernels._compile_int_step(_program(g208, [fault]))
        assert len(fresh_memo) == size
        # Touch the first entry: the second becomes least recently used.
        again = kernels._compile_int_step(_program(g208, [faults[0]]))
        assert again[0][0] is first[0][0]
        second = next(iter(fresh_memo))
        kernels._compile_int_step(_program(g208, [faults[size]]))  # 17th
        assert len(fresh_memo) == size
        assert second not in fresh_memo
        kernels._compile_int_step(_program(g208, [faults[size + 1]]))
        assert len(fresh_memo) == size
        assert (
            kernels._compile_int_step(_program(g208, [faults[0]]))[0][0]
            is first[0][0]
        )


    def test_concurrent_compiles_keep_the_bound(self, g208, fresh_memo):
        programs = [_program(g208, [f]) for f in _stem_faults(g208)[:24]] * 2
        results: dict = {}

        def compile_one(i):
            results[i] = kernels._compile_int_step(programs[i])

        threads = [
            threading.Thread(target=compile_one, args=(i,))
            for i in range(len(programs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == len(programs)
        assert len(fresh_memo) == kernels._CODE_MEMO_SIZE


class TestChunkedStep:
    @pytest.mark.parametrize("word_bits", [1, 8, 64, 200])
    def test_bit_identical_to_single_function(self, word_bits, monkeypatch):
        circuit = load_circuit("g1488")
        faults = all_faults(circuit)[::9]
        chunked = IntKernel(_program(circuit, faults), 2, word_bits=word_bits)
        assert len(chunked._chunks) > 1
        monkeypatch.setattr(kernels, "_CHUNK_OPS", 10**9)
        single = IntKernel(_program(circuit, faults), 2, word_bits=word_bits)
        assert len(single._chunks) == 1
        rng = random.Random(word_bits)
        for _ in range(12):
            patterns = [
                [rng.choice((0, 1, 2)) for _ in circuit.inputs] for _ in range(2)
            ]
            assert chunked.step(patterns) == single.step(patterns)
            assert chunked.O == single.O
            assert chunked.Z == single.Z
            assert chunked.S_O == single.S_O
            assert chunked.S_Z == single.S_Z
            assert chunked.active == single.active

    def test_empty_program_steps(self):
        from repro.circuit import Circuit, Gate, GateType

        circuit = Circuit(
            "wire",
            [Gate("a", GateType.INPUT, ()), Gate("q", GateType.DFF, ("a",))],
            ["q"],
        )
        kern = IntKernel(_program(circuit, []), word_bits=1)
        assert kern._chunks == []
        kern.step([[1]])
        assert (kern.S_O, kern.S_Z) == ([1], [0])


class TestWavesOnDemand:
    def test_int_kernel_never_builds_waves(self, g208):
        program = _program(g208, all_faults(g208)[:40])
        assert program._waves is None
        make_kernel(program, 1, "int")
        assert program._waves is None

    @pytest.mark.skipif(not numpy_available(), reason="numpy unavailable")
    def test_numpy_kernel_builds_waves(self, g208):
        program = _program(g208, all_faults(g208)[:40])
        NumpyKernel(program)
        assert program._waves is not None
        assert sum(len(wave[2]) for wave in program.waves) == len(program.flat_ops)
