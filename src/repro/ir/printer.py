"""Textual printer for the IR (LLVM-flavoured, for humans and tests)."""

from __future__ import annotations

from typing import Dict, List

from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Argument, Constant, UndefValue, Value


class _Namer:
    """Assigns stable, human-readable names (%0, %1, …) to unnamed values."""

    def __init__(self) -> None:
        self._names: Dict[int, str] = {}
        self._next = 0

    def name(self, value: Value) -> str:
        if isinstance(value, Constant):
            return value.short()
        if isinstance(value, UndefValue):
            return "undef"
        if value.name:
            return f"%{value.name}"
        if value.uid not in self._names:
            self._names[value.uid] = f"%{self._next}"
            self._next += 1
        return self._names[value.uid]


def _format_instruction(instr: Instruction, namer: _Namer) -> str:
    opc = instr.opcode
    ops = [namer.name(op) for op in instr.operands]

    if opc is Opcode.STORE:
        return f"store {instr.operands[0].type} {ops[0]}, {instr.operands[1].type} {ops[1]}"
    if opc is Opcode.LOAD:
        return f"{namer.name(instr)} = load {instr.type}, {instr.operands[0].type} {ops[0]}"
    if opc is Opcode.ALLOCA:
        return f"{namer.name(instr)} = alloca {instr.type.pointee} x {instr.alloca_count}"  # type: ignore[union-attr]
    if opc is Opcode.GEP:
        return (
            f"{namer.name(instr)} = getelementptr {instr.operands[0].type} {ops[0]}, "
            f"{instr.operands[1].type} {ops[1]}"
        )
    if opc is Opcode.BR:
        if len(instr.targets) == 1:
            return f"br label %{instr.targets[0].label}"
        return (
            f"br i1 {ops[0]}, label %{instr.targets[0].label}, "
            f"label %{instr.targets[1].label}"
        )
    if opc is Opcode.RET:
        if instr.operands:
            return f"ret {instr.operands[0].type} {ops[0]}"
        return "ret void"
    if opc is Opcode.CALL:
        arglist = ", ".join(f"{op.type} {name}" for op, name in zip(instr.operands, ops))
        prefix = "" if instr.type.is_void else f"{namer.name(instr)} = "
        return f"{prefix}call {instr.type} @{instr.callee}({arglist})"
    if opc in (Opcode.ICMP, Opcode.FCMP):
        pred = instr.predicate.value if instr.predicate else "?"
        return (
            f"{namer.name(instr)} = {opc.value} {pred} "
            f"{instr.operands[0].type} {ops[0]}, {ops[1]}"
        )
    if opc is Opcode.SELECT:
        return (
            f"{namer.name(instr)} = select i1 {ops[0]}, "
            f"{instr.operands[1].type} {ops[1]}, {instr.operands[2].type} {ops[2]}"
        )
    if opc is Opcode.PHI:
        pairs = ", ".join(
            f"[ {name}, %{block.label} ]"
            for name, block in zip(ops, instr.incoming_blocks)
        )
        return f"{namer.name(instr)} = phi {instr.type} {pairs}"

    # generic binary / unary / conversion form
    prefix = "" if instr.type.is_void else f"{namer.name(instr)} = "
    operand_types = instr.operands[0].type if instr.operands else instr.type
    return f"{prefix}{opc.value} {operand_types} " + ", ".join(ops)


def print_function(func: Function) -> str:
    """Render one function as LLVM-flavoured text."""
    namer = _Namer()
    args = ", ".join(f"{a.type} %{a.name}" for a in func.args)
    lines: List[str] = [f"define {func.return_type} @{func.name}({args}) {{"]
    for block in func.blocks:
        lines.append(f"{block.label}:")
        for instr in block.instructions:
            lines.append("  " + _format_instruction(instr, namer))
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render the whole module as text."""
    parts = [f"; module {module.name}"]
    parts.extend(print_function(func) for func in module)
    return "\n\n".join(parts)
