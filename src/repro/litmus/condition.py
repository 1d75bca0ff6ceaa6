"""Final-state conditions of litmus tests.

A test ends with an assertion over the final state of registers and
memory, e.g. Fig. 12 line 12: ``exists (0:r2=0 /\\ 1:r2=0)``.  This module
provides the condition AST, a parser, and evaluation against a
:class:`FinalState`.
"""

import re
from dataclasses import dataclass

from ..errors import LitmusSyntaxError


@dataclass(frozen=True)
class FinalState:
    """One outcome of a litmus test run.

    ``regs`` maps ``(thread_index, register_name)`` to an integer;
    ``mem`` maps location names to integers.  Instances are hashable so
    the harness can build outcome histograms.
    """

    regs: tuple  # sorted tuple of ((tid, reg), value)
    mem: tuple  # sorted tuple of (loc, value)

    @staticmethod
    def make(regs=None, mem=None):
        regs = regs or {}
        mem = mem or {}
        return FinalState(tuple(sorted(regs.items())), tuple(sorted(mem.items())))

    def reg(self, tid, name):
        for (t, r), value in self.regs:
            if t == tid and r == name:
                return value
        raise KeyError((tid, name))

    def loc(self, name):
        for loc, value in self.mem:
            if loc == name:
                return value
        raise KeyError(name)

    def reg_dict(self):
        return dict(self.regs)

    def mem_dict(self):
        return dict(self.mem)

    def to_json(self):
        """A JSON-ready ``{regs, mem}`` record."""
        return {"regs": [[tid, reg, value] for (tid, reg), value in self.regs],
                "mem": [[loc, value] for loc, value in self.mem]}

    @staticmethod
    def from_json(record):
        return FinalState.make(
            {(tid, reg): value for tid, reg, value in record["regs"]},
            {loc: value for loc, value in record["mem"]})

    def __str__(self):
        parts = ["%d:%s=%d" % (t, r, v) for (t, r), v in self.regs]
        parts.extend("%s=%d" % (loc, v) for loc, v in self.mem)
        return "; ".join(parts)


class Expr:
    """Base class of condition expressions."""

    def evaluate(self, state):
        raise NotImplementedError

    def registers(self):
        """The ``(tid, reg)`` pairs this expression mentions."""
        return set()

    def locations(self):
        """The memory locations this expression mentions."""
        return set()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


@dataclass(frozen=True)
class RegEq(Expr):
    """``tid:reg = value``."""

    tid: int
    reg: str
    value: int

    def evaluate(self, state):
        try:
            return state.reg(self.tid, self.reg) == self.value
        except KeyError:
            return False

    def registers(self):
        return {(self.tid, self.reg)}

    def __str__(self):
        return "%d:%s=%d" % (self.tid, self.reg, self.value)


@dataclass(frozen=True)
class MemEq(Expr):
    """``location = value`` over the final memory state."""

    loc: str
    value: int

    def evaluate(self, state):
        try:
            return state.loc(self.loc) == self.value
        except KeyError:
            return False

    def locations(self):
        return {self.loc}

    def __str__(self):
        return "%s=%d" % (self.loc, self.value)


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def evaluate(self, state):
        return self.left.evaluate(state) and self.right.evaluate(state)

    def registers(self):
        return self.left.registers() | self.right.registers()

    def locations(self):
        return self.left.locations() | self.right.locations()

    def __str__(self):
        return r"%s /\ %s" % (self.left, self.right)


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def evaluate(self, state):
        return self.left.evaluate(state) or self.right.evaluate(state)

    def registers(self):
        return self.left.registers() | self.right.registers()

    def locations(self):
        return self.left.locations() | self.right.locations()

    def __str__(self):
        return r"(%s \/ %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Not(Expr):
    body: Expr

    def evaluate(self, state):
        return not self.body.evaluate(state)

    def registers(self):
        return self.body.registers()

    def locations(self):
        return self.body.locations()

    def __str__(self):
        return "~(%s)" % self.body


@dataclass(frozen=True)
class Always(Expr):
    """The tautology: holds for every final state.

    The inner expression of :func:`trivial_condition`; mentions no
    registers and no locations, so it never perturbs a test's observed
    registers or address map.
    """

    def evaluate(self, state):
        return True

    def __str__(self):
        return "true"


@dataclass(frozen=True)
class Condition:
    """A quantified final condition: ``exists expr`` or ``forall expr``.

    For ``exists`` conditions (the common case) an execution *witnesses*
    the condition when the expression holds; the paper's ``obs`` counts
    are witness counts.
    """

    quantifier: str  # "exists" | "forall"
    expr: Expr

    def __post_init__(self):
        if self.quantifier not in ("exists", "forall"):
            raise LitmusSyntaxError("unknown quantifier %r" % self.quantifier)

    def holds(self, state):
        """Whether this single outcome satisfies the inner expression."""
        return self.expr.evaluate(state)

    def verdict(self, states):
        """Evaluate the quantified condition over a set of outcomes."""
        if self.quantifier == "exists":
            return any(self.expr.evaluate(state) for state in states)
        return all(self.expr.evaluate(state) for state in states)

    def registers(self):
        return self.expr.registers()

    def locations(self):
        return self.expr.locations()

    def __str__(self):
        return "%s (%s)" % (self.quantifier, self.expr)


def trivial_condition():
    """The trivial (always-true) condition: ``forall (true)``.

    Application launches (:class:`repro.apps.runtime.Grid`) assert
    nothing about their final state — callers inspect the returned
    memory image instead.  This is the explicit constructor for that
    case, replacing ad-hoc placeholder conditions: it holds for every
    outcome, quantifies over nothing, and mentions no registers or
    locations (so the machine observes no registers on its behalf).
    """
    return Condition("forall", Always())


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<and>/\\|&&|\band\b)|(?P<or>\\/|\|\||\bor\b)|(?P<not>~|!|\bnot\b)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<atom>[0-9]+:[A-Za-z_%]\w*\s*=\s*-?\d+"
    r"|[A-Za-z_]\w*\s*=\s*-?\d+))")

_ATOM_REG_RE = re.compile(r"^(\d+):([A-Za-z_%]\w*)\s*=\s*(-?\d+)$")
_ATOM_MEM_RE = re.compile(r"^([A-Za-z_]\w*)\s*=\s*(-?\d+)$")


def _tokenize(text):
    tokens, position = [], 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match or match.end() == position:
            rest = text[position:].strip()
            if not rest:
                break
            raise LitmusSyntaxError("cannot tokenize condition at %r" % rest)
        position = match.end()
        for kind in ("and", "or", "not", "lpar", "rpar", "atom"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    """Recursive-descent parser: ``or`` < ``and`` < ``not`` < atoms."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    def peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return (None, None)

    def take(self):
        token = self.peek()
        self.position += 1
        return token

    def parse_expr(self):
        left = self.parse_and()
        while self.peek()[0] == "or":
            self.take()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.peek()[0] == "and":
            self.take()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        kind, value = self.peek()
        if kind == "not":
            self.take()
            return Not(self.parse_unary())
        if kind == "lpar":
            self.take()
            inner = self.parse_expr()
            if self.take()[0] != "rpar":
                raise LitmusSyntaxError("missing ')' in condition")
            return inner
        if kind == "atom":
            self.take()
            return _parse_atom(value)
        raise LitmusSyntaxError("unexpected token %r in condition" % (value,))


def _parse_atom(text):
    text = text.strip()
    match = _ATOM_REG_RE.match(text)
    if match:
        return RegEq(int(match.group(1)), match.group(2), int(match.group(3)))
    match = _ATOM_MEM_RE.match(text)
    if match:
        return MemEq(match.group(1), int(match.group(2)))
    raise LitmusSyntaxError("malformed condition atom %r" % text)


def parse_condition(text):
    """Parse ``exists (...)`` / ``forall (...)`` into a :class:`Condition`.

    A bare expression (no quantifier) defaults to ``exists``, matching the
    paper's ``final:`` notation.
    """
    text = text.strip()
    quantifier = "exists"
    for word in ("exists", "forall", "final:"):
        if text.startswith(word):
            quantifier = "forall" if word == "forall" else "exists"
            text = text[len(word):].strip()
            break
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.position != len(parser.tokens):
        raise LitmusSyntaxError("trailing tokens in condition %r" % text)
    return Condition(quantifier, expr)
