"""Compilation of (circuit, fault list) into a kernel-agnostic program.

Fault forces come in three shapes, mirroring the oracle exactly:

* *stem* forces on a net's row (``o = (o | f1) & ~f0``,
  ``z = (z | f0) & ~f1``), applied when the row is written;
* *pin* forces on one gate input (branch faults) — only the faulted
  pin sees the forced value;
* *capture* forces on a flip-flop D pin, applied to the captured
  next-state word.

Stem faults on constant nets are dropped: the pure-Python engine
rewrites constant rows after applying stem forces, so such forces are
silently inert there, and the vector kernel must agree.

Two schedule views serve the two kernels:

* :attr:`VectorProgram.flat_ops` — the oracle's topological op order
  with per-op stem/pin forces, for the big-int kernel (same shape as
  ``_GroupSim._ops``, so the evaluation loop is a line-for-line mirror).
* :attr:`VectorProgram.waves` — for the numpy kernel, ops are packed
  into *waves* by a greedy ready-set scheduler: each wave holds same-
  ``(opcode, arity)`` gates whose fanins are all computed, so one
  gather + one reduce evaluates the whole wave.  Pin forces ride along
  as sparse ``(position, pin, f0, f1)`` entries applied to the wave's
  *gathered* fanin values, never to the driving rows — the exact
  ephemeral-pin semantics of the oracle, with no extra rows and no
  extra schedule depth.  Any topological schedule computes identical
  values — every row is written exactly once per cycle — so wave order
  is a pure performance choice.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault


class VectorProgram:
    """Execution-ready, packing-agnostic form of one (circuit, faults) pair."""

    __slots__ = (
        "comp",
        "faults",
        "lanes",
        "n_circuit_rows",
        "flat_ops",
        "waves",
        "load_forces",
        "ff_capture",
        "pi_rows",
        "ff_rows",
        "po_rows",
        "ff_next_rows",
        "const0_rows",
        "const1_rows",
        "codegen_cache",
    )

    def __init__(self, comp: CompiledCircuit, faults: Tuple[Fault, ...]) -> None:
        self.comp = comp
        self.faults = faults
        self.lanes = len(faults) + 1
        self.n_circuit_rows = comp.n_nets
        self.pi_rows = comp.pi_indices
        self.ff_rows = comp.ff_indices
        self.po_rows = comp.po_indices
        self.ff_next_rows = comp.ff_next_indices
        self.const0_rows = comp.const0_indices
        self.const1_rows = comp.const1_indices
        # Filled by build_program:
        self.flat_ops: Tuple = ()
        self.waves: Tuple = ()
        self.load_forces: Tuple[Tuple[int, int, int], ...] = ()
        self.ff_capture: Dict[int, Tuple[int, int]] = {}
        # Compiled-step cache, shared by all int kernels of this program.
        self.codegen_cache: Dict = {}


def build_program(
    comp: CompiledCircuit,
    flop_pos: Dict[str, int],
    faults: Sequence[Fault],
) -> VectorProgram:
    """Build the :class:`VectorProgram` for ``faults`` on ``comp``."""
    prog = VectorProgram(comp, tuple(faults))
    const_rows = set(comp.const0_indices) | set(comp.const1_indices)

    stem_force: Dict[int, List[int]] = {}  # row -> [f0_mask, f1_mask]
    pin_force: Dict[int, Dict[int, List[int]]] = {}  # gate row -> pin -> masks
    ff_capture: Dict[int, List[int]] = {}
    for offset, fault in enumerate(prog.faults):
        bit = 1 << (offset + 1)
        if fault.is_branch and fault.gate in flop_pos:
            slot = ff_capture.setdefault(flop_pos[fault.gate], [0, 0])
        elif fault.is_branch:
            gate_row = comp.index[fault.gate]
            slot = pin_force.setdefault(gate_row, {}).setdefault(
                fault.pin, [0, 0]
            )
        else:
            row = comp.index[fault.net]
            if row in const_rows:
                continue  # inert in the oracle: const rows are rewritten
            slot = stem_force.setdefault(row, [0, 0])
        slot[fault.stuck] |= bit

    prog.ff_capture = {s: (f0, f1) for s, (f0, f1) in ff_capture.items()}

    op_rows = {out for _, out, _ in comp.ops}
    prog.load_forces = tuple(
        sorted(
            (row, f0, f1)
            for row, (f0, f1) in stem_force.items()
            if row not in op_rows
        )
    )

    prog.flat_ops = tuple(
        (
            opcode,
            out,
            fanins,
            tuple(stem_force[out]) if out in stem_force else None,
            (
                {pin: (f0, f1) for pin, (f0, f1) in pin_force[out].items()}
                if out in pin_force
                else None
            ),
        )
        for opcode, out, fanins in comp.ops
    )

    _build_waves(prog, stem_force, pin_force)
    return prog


def _build_waves(
    prog: VectorProgram,
    stem_force: Dict[int, List[int]],
    pin_force: Dict[int, Dict[int, List[int]]],
) -> None:
    """The numpy schedule: ops packed into class waves.

    Greedy ready-set scheduling: repeatedly flush the (opcode, arity)
    class with the most ready ops.  Deterministic: ties break on the
    class key, waves keep op emission order.
    """
    ops = prog.comp.ops
    producer = {out: i for i, (_, out, _) in enumerate(ops)}
    missing = [0] * len(ops)
    consumers: Dict[int, List[int]] = {}
    for i, (_, _, fanins) in enumerate(ops):
        deps = {producer[f] for f in fanins if f in producer}
        missing[i] = len(deps)
        for d in deps:
            consumers.setdefault(d, []).append(i)

    classes: Dict[Tuple[int, int], List[int]] = {}
    for i, (opcode, _, fanins) in enumerate(ops):
        if missing[i] == 0:
            classes.setdefault((opcode, len(fanins)), []).append(i)

    waves = []
    remaining = len(ops)
    while remaining:
        key = min(classes, key=lambda k: (-len(classes[k]), k))
        wave_ids = sorted(classes.pop(key))
        remaining -= len(wave_ids)
        opcode, arity = key
        outs = tuple(ops[i][1] for i in wave_ids)
        fanins = tuple(ops[i][2] for i in wave_ids)
        stems = tuple(
            (pos, stem_force[out][0], stem_force[out][1])
            for pos, out in enumerate(outs)
            if out in stem_force
        )
        pins = tuple(
            (pos, pin, f0, f1)
            for pos, out in enumerate(outs)
            if out in pin_force
            for pin, (f0, f1) in sorted(pin_force[out].items())
        )
        waves.append((opcode, arity, outs, fanins, stems, pins))
        for i in wave_ids:
            for consumer in consumers.get(i, ()):
                missing[consumer] -= 1
                if missing[consumer] == 0:
                    c_op, _, c_fanins = ops[consumer]
                    classes.setdefault((c_op, len(c_fanins)), []).append(
                        consumer
                    )
    prog.waves = tuple(waves)
