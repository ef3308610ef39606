"""High-level driver for the vector kernels.

:class:`VectorEngine` is the front end :class:`~repro.sim.faultsim.FaultSimulator`
delegates to (unless its ``oracle`` flag is set): whole-sequence runs,
line recording, screening, and multi-stimulus batched screening/runs.
:class:`VectorIncremental` backs ``IncrementalFaultSimulator``.

Semantics are defined by the pure-Python oracle; everything here is
"only faster":

* patterns are validated lazily, cycle by cycle, with the oracle's
  exact :class:`~repro.errors.SimulationError` messages;
* fault order is preserved — lane ``l`` is ``faults[l - 1]``, so
  decoded detection/remaining lists come back in original fault-list
  order, just like group order in the oracle;
* event-driven early-out: a block stops consuming patterns when its
  active mask dies (whole-run) or on first detection (screening), and a
  single-stimulus run compacts surviving lanes into fewer words when
  enough faults have been detected (the vectorized analogue of
  ``IncrementalFaultSimulator.regroup`` — behaviourally invisible
  because every surviving machine's flip-flop state is preserved).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault
from repro.sim.values import V0, V1, VX, Value
from repro.sim.vector.kernels import make_kernel
from repro.sim.vector.program import build_program

MAX_BLOCKS = 16
"""Stimuli batched into one kernel instance at a time."""

_PROGRAM_MEMO_SIZE = 16


def _check_pattern(pattern: Sequence[Value], n_pi: int) -> Tuple[Value, ...]:
    """Validate one pattern with the oracle's exact error messages."""
    if len(pattern) != n_pi:
        raise SimulationError(
            f"pattern has {len(pattern)} values, circuit has "
            f"{n_pi} primary inputs"
        )
    for value in pattern:
        if value != V1 and value != V0 and value != VX:
            raise SimulationError(f"bad ternary value {value!r}")
    return tuple(pattern)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class VectorEngine:
    """Vector-kernel driver for one compiled circuit."""

    def __init__(self, comp: CompiledCircuit, flop_pos: Dict[str, int]) -> None:
        self.comp = comp
        self.flop_pos = dict(flop_pos)
        self._n_pi = len(comp.pi_indices)
        self._programs: Dict[Tuple[Fault, ...], object] = {}

    def _program(self, faults: Sequence[Fault]):
        key = tuple(faults)
        prog = self._programs.get(key)
        if prog is None:
            if len(self._programs) >= _PROGRAM_MEMO_SIZE:
                self._programs.pop(next(iter(self._programs)))
            prog = build_program(self.comp, self.flop_pos, key)
            self._programs[key] = prog
        return prog

    # -- whole-sequence runs ----------------------------------------------

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        record_lines: bool = False,
        early_stop: bool = True,
        packing: Optional[str] = None,
    ) -> Tuple[Dict[Fault, int], Dict[Fault, Set[str]]]:
        """One stimulus against all ``faults``; returns (detection, lines)."""
        prog = self._program(faults)
        kern = make_kernel(prog, 1, packing)
        lane_fault: Tuple[Fault, ...] = prog.faults
        names = self.comp.names
        detection: Dict[Fault, int] = {}
        lines: Dict[Fault, Set[str]] = (
            {f: set() for f in faults} if record_lines else {}
        )
        n_pi = self._n_pi
        for u, pattern in enumerate(stimulus):
            pat = _check_pattern(pattern, n_pi)
            det = kern.step([pat])
            while det:
                low = det & -det
                det ^= low
                detection[lane_fault[low.bit_length() - 2]] = u
            if record_lines:
                for row, diff in kern.discrepancies():
                    name = names[row]
                    while diff:
                        low = diff & -diff
                        diff ^= low
                        lines[lane_fault[low.bit_length() - 2]].add(name)
            if early_stop:
                if not kern.active:
                    break
                kern, lane_fault = self._maybe_compact(kern, lane_fault, packing)
        return detection, lines

    def _maybe_compact(
        self, kern, lane_fault: Tuple[Fault, ...], packing: Optional[str]
    ):
        """Repack surviving lanes into fewer words once half the words
        can be dropped.  The halving threshold bounds rebuilds per run
        to ``log2(words)`` — each rebuild recompiles the program, so
        rebuilding on every dropped word costs more than it saves."""
        survivors_n = _popcount(kern.active)
        need = -(-(survivors_n + 1) // kern.word_bits)
        if need > kern.words_per_block // 2:
            return kern, lane_fault
        act = kern.active
        survivors: List[Tuple[Fault, int]] = []
        lane = 0
        while act:
            low = act & -act
            act ^= low
            lane = low.bit_length() - 1
            survivors.append((lane_fault[lane - 1], lane))
        good = kern.extract_lane(0)
        states = [kern.extract_lane(lane) for _, lane in survivors]
        new_faults = tuple(f for f, _ in survivors)
        prog = build_program(self.comp, self.flop_pos, new_faults)
        new_kern = make_kernel(prog, 1, packing, word_bits=kern.word_bits)
        new_kern.load_state([good] + states)
        return new_kern, new_faults

    # -- batched runs / screening ------------------------------------------

    def screen(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        packing: Optional[str] = None,
    ) -> bool:
        return self.screen_batch([stimulus], faults, packing)[0]

    def screen_batch(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        packing: Optional[str] = None,
    ) -> List[bool]:
        """Per stimulus: would it detect at least one of ``faults``?"""
        out: List[bool] = []
        for start in range(0, len(stimuli), MAX_BLOCKS):
            out.extend(
                self._screen_blocks(
                    stimuli[start : start + MAX_BLOCKS], faults, packing
                )
            )
        return out

    def _screen_blocks(
        self,
        chunk: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        packing: Optional[str],
    ) -> List[bool]:
        n_blocks = len(chunk)
        prog = self._program(faults)
        kern = make_kernel(prog, n_blocks, packing)
        lens = [len(s) for s in chunk]
        done = [length == 0 for length in lens]
        verdicts = [False] * n_blocks
        n_pi = self._n_pi
        for b, is_done in enumerate(done):
            if is_done:
                kern.deactivate(kern.block_fault_mask(b))
        for u in range(max(lens, default=0)):
            if kern.active == 0:
                break
            patterns: List[Optional[Tuple[Value, ...]]] = []
            for b, s in enumerate(chunk):
                if done[b]:
                    patterns.append(None)
                elif u >= lens[b]:
                    done[b] = True
                    kern.deactivate(kern.block_fault_mask(b))
                    patterns.append(None)
                else:
                    patterns.append(_check_pattern(s[u], n_pi))
            if all(done):
                break
            det = kern.step(patterns)
            if det:
                for b in range(n_blocks):
                    if not done[b] and det & kern.block_fault_mask(b):
                        verdicts[b] = True
                        done[b] = True
                        kern.deactivate(kern.block_fault_mask(b))
        return verdicts

    def run_batch(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        early_stop: bool = True,
        packing: Optional[str] = None,
    ) -> List[Dict[Fault, int]]:
        """Whole-sequence detection times, one dict per stimulus."""
        out: List[Dict[Fault, int]] = []
        for start in range(0, len(stimuli), MAX_BLOCKS):
            out.extend(
                self._run_blocks(
                    stimuli[start : start + MAX_BLOCKS],
                    faults,
                    early_stop,
                    packing,
                )
            )
        return out

    def _run_blocks(
        self,
        chunk: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        early_stop: bool,
        packing: Optional[str],
    ) -> List[Dict[Fault, int]]:
        n_blocks = len(chunk)
        prog = self._program(faults)
        kern = make_kernel(prog, n_blocks, packing)
        lane_fault = prog.faults
        lens = [len(s) for s in chunk]
        done = [length == 0 for length in lens]
        detections: List[Dict[Fault, int]] = [dict() for _ in range(n_blocks)]
        n_pi = self._n_pi
        bb = kern.block_bits
        for b, is_done in enumerate(done):
            if is_done:
                kern.deactivate(kern.block_fault_mask(b))
        for u in range(max(lens, default=0)):
            patterns: List[Optional[Tuple[Value, ...]]] = []
            for b, s in enumerate(chunk):
                if done[b]:
                    patterns.append(None)
                elif u >= lens[b]:
                    # The block's stimulus is over: silence its lanes so
                    # later cycles (driven by other blocks) cannot record
                    # detections past its length.
                    done[b] = True
                    kern.deactivate(kern.block_fault_mask(b))
                    patterns.append(None)
                else:
                    patterns.append(_check_pattern(s[u], n_pi))
            if all(done):
                break
            det = kern.step(patterns)
            while det:
                low = det & -det
                det ^= low
                bit = low.bit_length() - 1
                b, lane = divmod(bit, bb)
                detections[b][lane_fault[lane - 1]] = u
            if early_stop:
                for b in range(n_blocks):
                    if not done[b] and not (
                        kern.active & kern.block_fault_mask(b)
                    ):
                        done[b] = True
        return detections


class VectorIncremental:
    """Vector kernel for :class:`~repro.sim.faultsim.IncrementalFaultSimulator`."""

    def __init__(
        self,
        comp: CompiledCircuit,
        flop_pos: Dict[str, int],
        faults: Sequence[Fault],
        packing: Optional[str] = None,
    ) -> None:
        self.comp = comp
        self.flop_pos = dict(flop_pos)
        self._packing = packing
        self._lane_fault: Tuple[Fault, ...] = tuple(faults)
        prog = build_program(comp, flop_pos, self._lane_fault)
        self._kern = make_kernel(prog, 1, packing)
        self._n_pi = len(comp.pi_indices)

    def remaining_faults(self) -> List[Fault]:
        act = self._kern.active
        return [
            fault
            for lane, fault in enumerate(self._lane_fault, start=1)
            if (act >> lane) & 1
        ]

    def step(self, pattern: Sequence[Value]) -> List[Fault]:
        pat = _check_pattern(pattern, self._n_pi)
        det = self._kern.step([pat])
        newly: List[Fault] = []
        while det:
            low = det & -det
            det ^= low
            newly.append(self._lane_fault[low.bit_length() - 2])
        return newly

    def peek(self, pattern: Sequence[Value]) -> int:
        pat = _check_pattern(pattern, self._n_pi)
        snap = self._kern.snapshot()
        det = self._kern.step([pat])
        self._kern.restore(snap)
        return _popcount(det)

    def reset_state(self) -> None:
        self._kern.reset_state()

    def regroup(self) -> None:
        """Repack survivors densely, preserving every machine's state."""
        kern = self._kern
        act = kern.active
        survivors: List[Tuple[Fault, int]] = []
        while act:
            low = act & -act
            act ^= low
            lane = low.bit_length() - 1
            survivors.append((self._lane_fault[lane - 1], lane))
        good = kern.extract_lane(0)
        states = [kern.extract_lane(lane) for _, lane in survivors]
        self._lane_fault = tuple(f for f, _ in survivors)
        prog = build_program(self.comp, self.flop_pos, self._lane_fault)
        self._kern = make_kernel(prog, 1, self._packing)
        self._kern.load_state([good] + states)
