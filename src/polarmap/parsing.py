"""Expression parsing and canonical printing.

Grammar (LL(1), integer coefficients only at the surface; rationals only
arise from arithmetic inside the package):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' uint)?
    base   := uint | var | '(' expr ')'
    var    := 'x' uint

'^' binds tighter than unary minus, so "-x0^2" reads -(x0^2).  Implicit
multiplication is not allowed.  Guard rails for fuzzed input: inputs over
256 KiB, exponents over 9999, variable indices over 499, nesting deeper
than 200, a product of two factors whose term counts multiply past 200000,
and a power whose multiplications together pass that many term products
all raise a positioned ParseError instead of exhausting memory or time.
"""

from __future__ import annotations

from .arrangement import LinearFormProduct
from .errors import ParseError
from .poly import Polynomial

_MAX_INPUT = 262144
_MAX_EXPONENT = 9999
_MAX_VAR_INDEX = 499
_MAX_DEPTH = 200
_TERM_BUDGET = 200000


def _tokenize(text):
    if len(text) > _MAX_INPUT:
        raise ParseError(f"input longer than {_MAX_INPUT} bytes", 1, 1)
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected a digit after 'x'", line, start_col)
            index = int(text[i + 1:j])
            if index > _MAX_VAR_INDEX:
                raise ParseError(f"variable index {index} exceeds {_MAX_VAR_INDEX}", line, start_col)
            tokens.append(("var", index, line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        node = self.expr(0)
        if self.peek()[0] != "eof":
            self.fail(f"unexpected {self.peek()[1]!r} after expression")
        return node

    def expr(self, depth):
        node = self.term(depth)
        while self.peek()[0] in ("+", "-"):
            op = self.take()
            right = self.term(depth)
            node = ("add" if op[0] == "+" else "sub", node, right, (op[2], op[3]))
        return node

    def term(self, depth):
        node = self.factor(depth)
        while self.peek()[0] == "*":
            op = self.take()
            right = self.factor(depth)
            node = ("mul", node, right, (op[2], op[3]))
        return node

    def factor(self, depth):
        if depth > _MAX_DEPTH:
            self.fail("expression nested too deeply")
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            inner = self.factor(depth + 1)
            return ("neg", inner, (tok[2], tok[3]))
        node = self.base(depth)
        if self.peek()[0] == "^":
            op = self.take()
            exp_tok = self.peek()
            if exp_tok[0] != "int":
                self.fail("'^' requires a literal non-negative integer exponent", exp_tok)
            self.take()
            if exp_tok[1] > _MAX_EXPONENT:
                self.fail(f"exponent {exp_tok[1]} exceeds {_MAX_EXPONENT}", exp_tok)
            node = ("pow", node, exp_tok[1], (op[2], op[3]))
        return node

    def base(self, depth):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return ("int", tok[1], (tok[2], tok[3]))
        if tok[0] == "var":
            self.take()
            return ("var", tok[1], (tok[2], tok[3]))
        if tok[0] == "(":
            self.take()
            inner = self.expr(depth + 1)
            closing = self.peek()
            if closing[0] != ")":
                self.fail("expected ')'", closing)
            self.take()
            return ("group", inner, (tok[2], tok[3]))
        self.fail("expected a number, a variable, or '('", tok)


def parse_expression(text):
    """Text to AST; raises ParseError with 1-based line/column on bad input."""
    return _Parser(_tokenize(text)).parse()


def _collect_indices(node, out):
    kind = node[0]
    if kind == "var":
        out.add(node[1])
    elif kind in ("neg", "group", "pow"):
        _collect_indices(node[1], out)
    elif kind in ("add", "sub", "mul"):
        _collect_indices(node[1], out)
        _collect_indices(node[2], out)


def _resolve_nvars(node, nvars):
    indices = set()
    _collect_indices(node, indices)
    if nvars is None:
        if not indices:
            return 1
        top = max(indices)
        for k in range(top + 1):
            if k not in indices:
                raise ParseError(f"variable index gap: x{k} is missing", 1, 1)
        return top + 1
    for k in indices:
        if k >= nvars:
            raise ParseError(f"variable x{k} out of range for {nvars} variables", 1, 1)
    return nvars


def _eval_ast(node, nvars):
    kind = node[0]
    if kind == "int":
        return Polynomial.constant(nvars, node[1])
    if kind == "var":
        return Polynomial.variable(nvars, node[1])
    if kind in ("neg", "group"):
        inner = _eval_ast(node[1], nvars)
        return -inner if kind == "neg" else inner
    if kind in ("add", "sub"):
        left = _eval_ast(node[1], nvars)
        right = _eval_ast(node[2], nvars)
        return left + right if kind == "add" else left - right
    if kind == "mul":
        left = _eval_ast(node[1], nvars)
        right = _eval_ast(node[2], nvars)
        _check_budget(len(left.terms) * len(right.terms), node[-1])
        return left * right
    if kind == "pow":
        base = _eval_ast(node[1], nvars)
        result = Polynomial.constant(nvars, 1)
        # the multiplications of one power share the budget
        spent = 0
        for _ in range(node[2]):
            spent += len(result.terms) * len(base.terms)
            _check_budget(spent, node[-1])
            result = result * base
        return result
    raise AssertionError(f"unknown node kind {kind}")


def _check_budget(pairs, pos):
    """Refuse work of more than _TERM_BUDGET term pairs multiplied."""
    if pairs > _TERM_BUDGET:
        raise ParseError(f"expansion exceeds {_TERM_BUDGET} terms", pos[0], pos[1])


def parse_polynomial(text, nvars=None, require_homogeneous=False):
    """Parse text into an expanded sparse polynomial over Q.

    With nvars=None the variable count is inferred from the indices used,
    which must then be contiguous from x0.  An explicit nvars permits gaps
    (a polynomial may simply not mention a variable) but bounds the
    indices.
    """
    node = parse_expression(text)
    nvars = _resolve_nvars(node, nvars)
    poly = _eval_ast(node, nvars)
    if require_homogeneous and not poly.is_homogeneous():
        raise ParseError("polynomial is not homogeneous", 1, 1)
    return poly


def _flatten_product(node, out):
    if node[0] == "mul":
        _flatten_product(node[1], out)
        _flatten_product(node[2], out)
    else:
        out.append(node)


def _linear_row(poly, nvars, pos):
    if poly.is_zero:
        raise ParseError("factor is the zero form", pos[0], pos[1])
    if not poly.is_homogeneous() or poly.homogeneous_degree() != 1:
        raise ParseError("factor is not a linear form", pos[0], pos[1])
    row = []
    for i in range(nvars):
        unit = tuple(1 if j == i else 0 for j in range(nvars))
        row.append(poly.coefficient(unit))
    return row


def _affine(node, nvars):
    """The coefficients of x0..x(nvars-1), then the constant, of an AST
    read as an affine-linear form over the ints: integers, variables,
    unary minus, groups, + and -, and products with a constant side.  Any
    other AST gives None."""
    kind = node[0]
    if kind == "int":
        return [0] * nvars + [node[1]]
    if kind == "var":
        vector = [0] * (nvars + 1)
        vector[node[1]] = 1
        return vector
    if kind == "group":
        return _affine(node[1], nvars)
    if kind == "neg":
        vector = _affine(node[1], nvars)
        return vector and [-c for c in vector]
    if kind not in ("add", "sub", "mul"):
        return None
    left = _affine(node[1], nvars)
    right = left and _affine(node[2], nvars)
    if right is None:
        return None
    if kind == "add":
        return [a + b for a, b in zip(left, right)]
    if kind == "sub":
        return [a - b for a, b in zip(left, right)]
    if not any(left[:-1]):
        return [left[-1] * b for b in right]
    if not any(right[:-1]):
        return [a * right[-1] for a in left]
    return None


def parse_arrangement(text, nvars=None):
    """Parse a *-separated product of (linear form)^multiplicity factors.

    The factored shape is preserved: nothing is expanded, and factors that
    are projectively equal merge by summing multiplicities.  A factor that
    reads as a nonzero linear form over the ints (_affine) goes straight
    to its integer row; any other is evaluated as a polynomial, which
    either is a linear form or raises the positioned error.
    """
    node = parse_expression(text)
    nvars = _resolve_nvars(node, nvars)
    factors = []
    _flatten_product(node, factors)
    rows = []
    mults = []
    for factor in factors:
        pos = factor[-1]
        node, mult = factor[1:3] if factor[0] == "pow" else (factor, 1)
        if mult < 1:
            raise ParseError("multiplicity must be at least 1", pos[0], pos[1])
        vector = _affine(node, nvars)
        if vector is not None and not vector[-1] and any(vector):
            rows.append(vector[:-1])
        else:
            rows.append(_linear_row(_eval_ast(node, nvars), nvars, pos))
        mults.append(mult)
    return LinearFormProduct(rows, mults, nvars)
