"""Superinstruction codegen: straight-line segments → specialized Python.

Each fused :class:`~repro.mir.lower.MirSegment` is compiled, once the
engine has entered it often enough (see
:data:`~repro.vm.engine.TIER_UP_ENTRIES`), into an ``exec``-specialized
callable that executes the whole segment without per-op dispatch.  The
generated code *inlines* the engine's semantics (operand resolution, the
masking arithmetic of :mod:`repro.vm.semantics`, the address resolution and
access checks of :mod:`repro.vm.memory`): every inlined rule mirrors one
rule of the op loop bit-exactly, including error types, error messages, and
evaluation order.  The differential fuzz harness (``tests/test_mir_parity``)
and the benchmark bit-identity gate hold the two implementations together.
Compiled code belongs to one module's lowered program and is never shared
with another module.

Two variants per segment:

* **plain** — ``fn(frame, regs, memory, cell) -> next_pc``; used for
  sink-free runs and (with an O(1) ``tick_block`` call layered on top by the
  engine) for counting sinks.
* **traced** — ``fn(frame, regs, prods, memory, sink, last_writer,
  dynbase, cell) -> next_pc``; accumulates the segment's trace rows locally
  and bulk-appends them into the columnar sink
  (:meth:`~repro.tracing.columnar.ColumnarTrace.append_block`).

Only the variant a hot segment is entered with gets compiled.

Crash protocol: the generated body maintains ``done`` (ops fully executed so
far); on any exception it stores ``done`` into the caller's ``cell`` and
re-raises, so the engine can advance ``dyn`` by the completed prefix — the
op loop's exact accounting (a crashing op contributes no step and no trace
event).  Register/producer writeback is deferred to segment success; memory
effects happen in place, matching the op loop's ordering observable at any
crash or pause boundary (pauses never land mid-segment, and a crash pops
the frames anyway).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.instructions import Opcode
from repro.ir.types import IRType
from repro.vm.engine import (
    DecodedFunction,
    K_ALLOCA,
    K_BR,
    K_BR_COND,
    K_CALL_INTRINSIC,
    K_FN,
    K_GEP,
    K_LOAD,
    K_STORE,
    _UNDEF,
)
from repro.vm.errors import SegmentationFault, VMError
from repro.vm.memory import Memory
from repro.vm.semantics import float_divide, float_remainder

_INT_BIN = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}
_BITWISE = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_FLOAT_BIN = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_ICMP_OPS = {
    "eq": "==", "ne": "!=",
    "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
}
_ICMP_UNSIGNED = frozenset(("ult", "ule", "ugt", "uge"))
_FCMP_OPS = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

_INF = float("inf")


class _MemoEntry:
    """Codegen-time record of an already-resolved address expression.

    Within one segment no allocation is released and fresh allocations only
    extend the address map in place, so ``address -> (object, index)`` is
    stable: repeated accesses through the same address expression reuse the
    first resolution and only (re-)validate the access *type*.
    """

    __slots__ = ("avar", "ovar", "eivar", "etvar", "checked", "fresh")

    def __init__(self, avar, ovar, eivar, etvar, checked, fresh):
        self.avar = avar
        self.ovar = ovar
        self.eivar = eivar
        self.etvar = etvar  # None when the element type is known statically
        self.checked: Set[IRType] = checked
        self.fresh = fresh  # object allocated inside this segment (no CoW)


class _Emitter:
    def __init__(self, df: DecodedFunction, seg, traced: bool):
        self.df = df
        self.seg = seg
        self.traced = traced
        self.lines: List[str] = []
        self.pool: List[object] = []
        self._pool_ids: Dict[int, int] = {}
        self.slot_name: Dict[int, str] = {}
        self.def_offset: Dict[int, int] = {}
        self.int_names: Set[str] = set()
        self.float_names: Set[str] = set()
        self.memo: Dict[str, _MemoEntry] = {}
        self.uses_mem = False
        self.uses_alloca = False
        self.has_loads = False
        self.has_brcond = False
        self.last_branch_block: Optional[int] = None
        self.exit_expr: Optional[str] = None

    # -------------------------------------------------------------- #
    # small helpers
    # -------------------------------------------------------------- #
    def emit(self, line: str) -> None:
        self.lines.append(line)

    def p(self, obj: object) -> str:
        """Pool a static object; return its access expression."""
        key = id(obj)
        index = self._pool_ids.get(key)
        if index is None:
            index = len(self.pool)
            self.pool.append(obj)
            self._pool_ids[key] = index
        return f"P[{index}]"

    def const_expr(self, value) -> Tuple[str, str]:
        if isinstance(value, int) and not isinstance(value, bool):
            return repr(value), "i"
        if isinstance(value, float):
            if value == value and value not in (_INF, -_INF):
                return repr(value), "f"
            return self.p(value), "f"
        return self.p(value), ""

    def operand(self, op, i: int) -> Tuple[str, str]:
        """Expression for raw operand ``i`` plus its known kind (i/f/'')."""
        s = op.src[i]
        if s < 0:
            return self.const_expr(op.consts[i])
        name = self.slot_name.get(s)
        if name is None:
            name = f"e{s}"
            self.emit(f"{name} = regs[{s}]")
            self.emit(f"if {name} is _UNDEF:")
            message = f"use of value {op.src_names[i]} before definition"
            self.emit(f"    raise VMError({message!r})")
            self.slot_name[s] = name
        if name in self.int_names:
            return name, "i"
        if name in self.float_names:
            return name, "f"
        return name, ""

    @staticmethod
    def as_int(ov: Tuple[str, str]) -> str:
        expr, kind = ov
        return expr if kind == "i" else f"int({expr})"

    @staticmethod
    def as_float(ov: Tuple[str, str]) -> str:
        expr, kind = ov
        return expr if kind == "f" else f"float({expr})"

    def bind_result(self, op, j: int, kind: str) -> str:
        name = f"v{j}"
        if op.dest >= 0:
            self.slot_name[op.dest] = name
            self.def_offset[op.dest] = j
        if kind == "i":
            self.int_names.add(name)
        elif kind == "f":
            self.float_names.add(name)
        return name

    # -------------------------------------------------------------- #
    # address resolution with the per-segment memo
    # -------------------------------------------------------------- #
    def resolve_address(self, j: int, addr: Tuple[str, str], vt: IRType) -> _MemoEntry:
        expr, kind = addr
        entry = self.memo.get(expr)
        if entry is not None:
            if vt not in entry.checked:
                if entry.etvar is None:
                    # element type statically known and != vt: mirror the op
                    # loop's check (raises unless size/floatness-compatible).
                    self.emit(f"_chk({entry.ovar}, {self.p(vt)}, {entry.avar})")
                else:
                    self.emit(f"if {entry.etvar} is not {self.p(vt)}:")
                    self.emit(f"    _chk({entry.ovar}, {self.p(vt)}, {entry.avar})")
                entry.checked.add(vt)
            return entry

        self.uses_mem = True
        avar, ovar, eivar, etvar = f"a{j}", f"o{j}", f"ei{j}", f"et{j}"
        self.emit(f"{avar} = {expr}" if kind == "i" else f"{avar} = int({expr})")
        self.emit(f"p{j} = _br(bases, {avar}) - 1")
        self.emit(f"if p{j} < 0:")
        self.emit(f"    raise _SegF({avar})")
        self.emit(f"{ovar} = bybase[p{j}]")
        self.emit(f"{etvar} = {ovar}.element_type")
        self.emit(f"if {etvar} is {self.p(vt)}:")
        size = vt.size_bytes
        shift = size.bit_length() - 1
        self.emit(f"    off{j} = {avar} - {ovar}.base")
        self.emit(f"    {eivar} = off{j} >> {shift}" if shift else f"    {eivar} = off{j}")
        self.emit(f"    if {eivar} >= {ovar}.count:")
        self.emit(f"        raise _SegF({avar})")
        if size > 1:
            self.emit(f"    if off{j} & {size - 1}:")
            self.emit(
                f"        raise _SegF({avar}, 'misaligned access into ' + {ovar}.name)"
            )
        self.emit("else:")
        self.emit(f"    {ovar}, {eivar} = resolve({avar})")
        self.emit(f"    _chk({ovar}, {self.p(vt)}, {avar})")
        entry = _MemoEntry(avar, ovar, eivar, etvar, {vt}, False)
        self.memo[expr] = entry
        return entry

    # -------------------------------------------------------------- #
    # per-op emission
    # -------------------------------------------------------------- #
    def emit_op(self, j: int, pc: int) -> None:
        op = self.df.ops[pc]
        kind = op.kind
        traced = self.traced

        operands = [self.operand(op, i) for i in range(len(op.src))]
        if traced:
            for i, (expr, _) in enumerate(operands):
                self.emit(f"va({expr})")
                s = op.src[i]
                if s < 0:
                    self.emit("pa(-1)")
                elif s in self.def_offset:
                    self.emit(f"pa(dynbase + {self.def_offset[s]})")
                else:
                    self.emit(f"pa(prods[{s}])")

        if kind == K_FN:
            self.emit_fn(op, j, operands)
        elif kind == K_GEP:
            lhs = self.as_int(operands[0])
            rhs = self.as_int(operands[1])
            name = self.bind_result(op, j, "i")
            term = rhs if op.gep_size == 1 else f"{rhs} * {op.gep_size}"
            self.emit(f"{name} = {lhs} + {term}")
            if traced and op.dest >= 0:
                self.emit(f"res[{j}] = {name}")
        elif kind == K_LOAD:
            self.has_loads = True
            vt = op.result_type
            entry = self.resolve_address(j, operands[0], vt)
            name = self.bind_result(op, j, "f" if vt.is_float else "i")
            cast = "float" if vt.is_float else "int"
            self.emit(f"{name} = {cast}({entry.ovar}.array[{entry.eivar}])")
            if traced:
                self.emit(f"res[{j}] = {name}")
                self.emit(f"adr[{j}] = {entry.avar}")
                self.emit(f"onm[{j}] = {entry.ovar}.name")
                self.emit(f"eli[{j}] = {entry.eivar}")
                self.emit(f"wid[{j}] = lw_get({entry.avar}, -1)")
        elif kind == K_STORE:
            vt = op.op_types[0]
            value = operands[0]
            entry = self.resolve_address(j, operands[1], vt)
            if not entry.fresh:
                self.emit(f"if {entry.ovar}._cow_shared:")
                self.emit(f"    {entry.ovar}.array = {entry.ovar}.array.copy()")
                self.emit(f"    {entry.ovar}._cow_shared = False")
            if vt.is_float:
                self.emit(
                    f"{entry.ovar}.array[{entry.eivar}] = {self.as_float(value)}"
                )
            else:
                mb = max(8, vt.bits)
                mask, sign, full = (1 << mb) - 1, 1 << (mb - 1), 1 << mb
                self.emit(f"t{j} = {self.as_int(value)} & {mask}")
                self.emit(
                    f"{entry.ovar}.array[{entry.eivar}] = "
                    f"t{j} - {full} if t{j} >= {sign} else t{j}"
                )
            if traced:
                self.emit(f"adr[{j}] = {entry.avar}")
                self.emit(f"onm[{j}] = {entry.ovar}.name")
                self.emit(f"eli[{j}] = {entry.eivar}")
                self.emit(f"last_writer[{entry.avar}] = dynbase + {j}")
        elif kind == K_ALLOCA:
            self.uses_alloca = True
            name = self.bind_result(op, j, "i")
            self.emit(
                f"o{j} = alloc({op.alloca_hint!r}, {self.p(op.alloca_type)}, "
                f"{op.alloca_count})"
            )
            self.emit(f"sapp(o{j})")
            self.emit(f"{name} = o{j}.base")
            # Seed the memo: loads/stores through this result hit element 0
            # of a statically-typed, definitely-private, in-bounds object.
            self.memo[name] = _MemoEntry(
                name, f"o{j}", "0", None, {op.alloca_type}, True
            )
            if traced and op.dest >= 0:
                self.emit(f"res[{j}] = {name}")
        elif kind == K_CALL_INTRINSIC:
            args = ", ".join(expr for expr, _ in operands)
            comma = "," if len(operands) == 1 else ""
            rkind = "i" if op.result_type.is_integer else "f"
            name = self.bind_result(op, j, rkind)
            self.emit(f"{name} = {self.p(op.fn)}(({args}{comma}))")
            if traced and op.dest >= 0:
                self.emit(f"res[{j}] = {name}")
        elif kind == K_BR:
            self.last_branch_block = op.block_index
            if j == self.seg.n_ops - 1:
                self.exit_expr = repr(op.pc_true)
        elif kind == K_BR_COND:
            self.has_brcond = True
            self.last_branch_block = op.block_index
            cond = operands[0][0]
            self.emit(f"if {cond}:")
            if traced:
                self.emit(f"    tkn[{j}] = {op.label_true!r}")
            self.emit(f"    nxt = {op.pc_true}")
            self.emit("else:")
            if traced:
                self.emit(f"    tkn[{j}] = {op.label_false!r}")
            self.emit(f"    nxt = {op.pc_false}")
            self.exit_expr = "nxt"
        else:  # pragma: no cover - lowering never fuses other kinds
            raise AssertionError(f"unfusable kind {kind} reached codegen")

        self.emit(f"done = {j + 1}")

    def emit_fn(self, op, j: int, operands) -> None:
        opc = op.opcode
        traced = self.traced

        if opc is Opcode.SELECT:
            a, b, c = operands
            name = self.bind_result(op, j, b[1] if b[1] == c[1] else "")
            self.emit(f"{name} = {b[0]} if {a[0]} else {c[0]}")
        elif opc is Opcode.ICMP:
            predicate = op.predicate_str
            lhs = self.as_int(operands[0])
            rhs = self.as_int(operands[1])
            if predicate in _ICMP_UNSIGNED:
                mask = (1 << op.op_types[0].bits) - 1
                lhs, rhs = f"({lhs} & {mask})", f"({rhs} & {mask})"
            name = self.bind_result(op, j, "i")
            self.emit(f"{name} = 1 if {lhs} {_ICMP_OPS[predicate]} {rhs} else 0")
        elif opc is Opcode.FCMP:
            predicate = op.predicate_str
            self.emit(f"x{j} = {self.as_float(operands[0])}")
            self.emit(f"y{j} = {self.as_float(operands[1])}")
            name = self.bind_result(op, j, "i")
            if predicate == "one":
                self.emit(
                    f"{name} = 1 if x{j} == x{j} and y{j} == y{j} "
                    f"and x{j} != y{j} else 0"
                )
            else:
                self.emit(
                    f"{name} = 1 if x{j} {_FCMP_OPS[predicate]} y{j} else 0"
                )
        elif opc is Opcode.FNEG:
            name = self.bind_result(op, j, "f")
            self.emit(f"{name} = -{self.as_float(operands[0])}")
        elif opc in _FLOAT_BIN:
            name = self.bind_result(op, j, "f")
            self.emit(
                f"{name} = {self.as_float(operands[0])} "
                f"{_FLOAT_BIN[opc]} {self.as_float(operands[1])}"
            )
        elif opc is Opcode.FDIV:
            name = self.bind_result(op, j, "f")
            self.emit(
                f"{name} = _fdiv({self.as_float(operands[0])}, "
                f"{self.as_float(operands[1])})"
            )
        elif opc is Opcode.FREM:
            name = self.bind_result(op, j, "f")
            self.emit(
                f"{name} = _frem({self.as_float(operands[0])}, "
                f"{self.as_float(operands[1])})"
            )
        elif opc in _INT_BIN:
            bits = op.result_type.bits
            lhs, rhs = self.as_int(operands[0]), self.as_int(operands[1])
            name = self.bind_result(op, j, "i")
            if bits == 1:
                self.emit(f"{name} = ({lhs} {_INT_BIN[opc]} {rhs}) & 1")
            else:
                mask, sign, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
                self.emit(f"t{j} = ({lhs} {_INT_BIN[opc]} {rhs}) & {mask}")
                self.emit(f"{name} = t{j} - {full} if t{j} >= {sign} else t{j}")
        elif opc in _BITWISE:
            bits = op.result_type.bits
            lhs, rhs = self.as_int(operands[0]), self.as_int(operands[1])
            name = self.bind_result(op, j, "i")
            if bits == 1:
                self.emit(f"{name} = ({lhs} & 1) {_BITWISE[opc]} ({rhs} & 1)")
            else:
                mask, sign, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
                self.emit(
                    f"t{j} = ({lhs} & {mask}) {_BITWISE[opc]} ({rhs} & {mask})"
                )
                self.emit(f"{name} = t{j} - {full} if t{j} >= {sign} else t{j}")
        elif opc is Opcode.TRUNC:
            bits = op.result_type.bits
            value = self.as_int(operands[0])
            name = self.bind_result(op, j, "i")
            if bits == 1:
                self.emit(f"{name} = {value} & 1")
            else:
                mask, sign, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
                self.emit(f"t{j} = {value} & {mask}")
                self.emit(f"{name} = t{j} - {full} if t{j} >= {sign} else t{j}")
        elif opc is Opcode.ZEXT:
            mask = (1 << op.op_types[0].bits) - 1
            name = self.bind_result(op, j, "i")
            self.emit(f"{name} = {self.as_int(operands[0])} & {mask}")
        elif opc is Opcode.SEXT:
            name = self.bind_result(op, j, "i")
            self.emit(f"{name} = {self.as_int(operands[0])}")
        elif opc is Opcode.SITOFP:
            name = self.bind_result(op, j, "f")
            self.emit(f"{name} = float({self.as_int(operands[0])})")
        elif opc is Opcode.FPEXT:
            name = self.bind_result(op, j, "f")
            self.emit(f"{name} = {self.as_float(operands[0])}")
        else:
            # rare/irregular ops (sdiv/srem/udiv/urem, shifts, fptosi,
            # fptrunc, bitcast): call the decode-time bound evaluator.
            args = ", ".join(expr for expr, _ in operands)
            comma = "," if len(operands) == 1 else ""
            rkind = ""
            if op.has_result:
                rkind = "f" if op.result_type.is_float else "i"
            name = self.bind_result(op, j, rkind)
            self.emit(f"{name} = {self.p(op.fn)}(({args}{comma}))")

        if traced and op.dest >= 0:
            self.emit(f"res[{j}] = v{j}")

    # -------------------------------------------------------------- #
    # assembly
    # -------------------------------------------------------------- #
    def build(self) -> Tuple[str, Dict[str, object]]:
        seg = self.seg
        for j, pc in enumerate(seg.pcs):
            self.emit_op(j, pc)
        if self.exit_expr is None:
            self.exit_expr = repr(seg.pcs[-1] + 1)

        n = seg.n_ops
        traced = self.traced
        body: List[str] = ["done = 0"]
        if traced:
            body.append("flushed = False")
            body.append("vals = []")
            body.append("va = vals.append")
            body.append("prodl = []")
            body.append("pa = prodl.append")
            body.append(f"res = [None] * {n}")
            body.append(f"adr = [None] * {n}")
            body.append(f"onm = [None] * {n}")
            body.append(f"eli = [None] * {n}")
            body.append(f"wid = [-1] * {n}")
            body.append("tkn = TK[:]" if self.has_brcond else "tkn = TK")
            if self.has_loads:
                body.append("lw_get = last_writer.get")
        if self.uses_mem:
            body.append("bases = memory._bases")
            body.append("bybase = memory._by_base")
            body.append("resolve = memory.resolve")
        if self.uses_alloca:
            body.append("alloc = memory.allocate_stack")
            body.append("sapp = frame.stack_objects.append")
        body.extend(self.lines)

        # success epilogue: deferred register/producer writeback, then the
        # bulk sink append, then the next pc.
        for slot in sorted(self.def_offset):
            body.append(f"regs[{slot}] = {self.slot_name[slot]}")
        if traced:
            for slot in sorted(self.def_offset):
                body.append(f"prods[{slot}] = dynbase + {self.def_offset[slot]}")
        if self.last_branch_block is not None:
            body.append(f"frame.prev_block = {self.last_branch_block}")
        if traced:
            body.append("flushed = True")
            body.append(
                f"sink.append_block(ST, {n}, dynbase, vals, prodl, res, adr, "
                f"onm, eli, wid, tkn)"
            )
        body.append(f"return {self.exit_expr}")

        if traced:
            header = (
                "def _seg(frame, regs, prods, memory, sink, last_writer, "
                "dynbase, cell):"
            )
            handler = [
                "cell[0] = done",
                "if done and not flushed:",
                "    sink.append_block(ST, done, dynbase, vals, prodl, res, "
                "adr, onm, eli, wid, tkn)",
                "raise",
            ]
        else:
            header = "def _seg(frame, regs, memory, cell):"
            handler = ["cell[0] = done", "raise"]

        source_lines = [header, "    try:"]
        source_lines.extend("        " + line for line in body)
        source_lines.append("    except BaseException:")
        source_lines.extend("        " + line for line in handler)
        source = "\n".join(source_lines) + "\n"

        module_globals: Dict[str, object] = {
            "P": self.pool,
            "_UNDEF": _UNDEF,
            "VMError": VMError,
            "_SegF": SegmentationFault,
            "_br": bisect_right,
            "_chk": Memory._check_access_type,
            "_fdiv": float_divide,
            "_frem": float_remainder,
        }
        if traced:
            module_globals["ST"] = seg.block_static()
            module_globals["TK"] = _taken_template(self.df, seg)
        return source, module_globals


def _taken_template(df: DecodedFunction, seg) -> List[Optional[str]]:
    """Static taken-label column: unconditional branches are known a priori."""
    template: List[Optional[str]] = []
    for pc in seg.pcs:
        op = df.ops[pc]
        template.append(op.label_true if op.kind == K_BR else None)
    return template


def build_block_static(df: DecodedFunction, seg):
    """Static (per-program) trace columns for one segment."""
    from repro.tracing.columnar import BlockStatic

    opcodes, functions, blocks, static_uids, source_lines = [], [], [], [], []
    result_types, predicates, callees = [], [], []
    operand_types: List[object] = []
    operand_kinds: List[object] = []
    ends: List[int] = []
    for pc in seg.pcs:
        op = df.ops[pc]
        opcodes.append(op.opcode)
        functions.append(op.function)
        blocks.append(op.block_label)
        static_uids.append(op.static_uid)
        source_lines.append(op.source_line)
        result_types.append(op.result_type if op.has_result else None)
        predicates.append(op.predicate_str)
        callees.append(op.callee)
        operand_types.extend(op.op_types)
        operand_kinds.extend(op.op_kinds)
        ends.append(len(operand_types))
    return BlockStatic(
        n=seg.n_ops,
        opcodes=opcodes,
        functions=functions,
        blocks=blocks,
        static_uids=static_uids,
        source_lines=source_lines,
        operand_types=operand_types,
        operand_kinds=operand_kinds,
        ends=ends,
        result_types=result_types,
        predicates=predicates,
        callees=callees,
    )


def compile_segment(df: DecodedFunction, seg, traced: bool):
    """Compile one fused segment variant into its superinstruction callable."""
    emitter = _Emitter(df, seg, traced)
    source, module_globals = emitter.build()
    suffix = "+traced" if traced else ""
    code = compile(source, f"<mir:{df.name}#{seg.index}{suffix}>", "exec")
    exec(code, module_globals)
    return module_globals["_seg"]
