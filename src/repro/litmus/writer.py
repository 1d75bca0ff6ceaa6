"""Serialise a :class:`LitmusTest` into the GPU litmus format (Fig. 12)."""

from ..ptx.operands import Imm, Loc
from ..ptx.types import TypeSpec


def _register_declarations(test):
    """Yield the declaration entries of the init block."""
    for program in test.threads:
        names = sorted(program.registers())
        typed = dict(program.reg_types)
        for name in names:
            typ = typed.get(name)
            if typ is None:
                typ = TypeSpec.PRED if name.startswith("p") else TypeSpec.S32
            binding = test.reg_init.get((program.tid, name))
            if isinstance(binding, Loc):
                yield "%d:.reg %s %s = %s" % (program.tid, typ, name, binding.name)
            elif isinstance(binding, Imm):
                yield "%d:.reg %s %s = %d" % (program.tid, typ, name, binding.value)
            else:
                yield "%d:.reg %s %s" % (program.tid, typ, name)


def _memory_initialisers(test):
    for name in test.locations():
        value = test.initial_value(name)
        if value:
            yield "%s = %d" % (name, value)


def write_litmus(test):
    """Render ``test`` in the litmus text format parsed by
    :func:`repro.litmus.parser.parse_litmus`.

    A :class:`~repro.litmus.test.LitmusTest` is never mutated after it
    is built, so its text is rendered once and kept on the test: every
    later call returns the same string.  The text is the content anchor
    of every cache key, shard seed and compiled-cell memo, which ask for
    it again on each lookup.  A test made with ``dataclasses.replace``
    is a new object and renders its own text.
    """
    text = test.__dict__.get("_litmus_text")
    if text is None:
        text = _render(test)
        object.__setattr__(test, "_litmus_text", text)
    return text


def _render(test):
    lines = ["%s %s" % (test.arch, test.name)]
    if test.description:
        lines.append('"%s"' % test.description)

    entries = list(_register_declarations(test)) + list(_memory_initialisers(test))
    lines.append("{")
    lines.extend(" %s;" % entry for entry in entries)
    lines.append("}")

    columns = []
    for program in test.threads:
        cell_lines = [str(instruction) for instruction in program.instructions]
        columns.append([program.name] + cell_lines)
    height = max(len(column) for column in columns)
    for column in columns:
        column.extend([""] * (height - len(column)))
    widths = [max(len(cell) for cell in column) for column in columns]
    for row_index in range(height):
        row = " | ".join(columns[i][row_index].ljust(widths[i])
                         for i in range(len(columns)))
        lines.append(" %s ;" % row)

    lines.append("ScopeTree %s" % test.scope_tree)
    if test.memory_map.spaces:
        lines.append(str(test.memory_map))
    lines.append(str(test.condition))
    return "\n".join(lines) + "\n"
