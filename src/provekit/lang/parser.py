"""Concrete syntax for goal files.

One declaration per ``goal`` keyword:

    goal sum_nonneg (l: IntList) := 0 <= len(l)   # trailing comment

ASCII spellings are canonical (``/\\``, ``\\/``, ``->``, ``!``, ``in``,
``::``, ``++``); the common Unicode aliases are accepted on input.  ``>``,
``>=`` and ``!=`` are sugar for the flipped or negated core comparisons.

One precedence-climbing loop over ``ast.OPERATORS`` (Pratt, 1973) parses
terms and formulas alike; ``GoalDecl.sort_error`` then rejects a
declaration that mixes them up or is nested more than ``ast.MAX_DEPTH``
deep.  The loop itself stops at twice that nesting, so text of any depth
is a parse error, never a crash.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError
from .ast import (
    MAX_DEPTH,
    NONASSOC,
    OPERATORS,
    RIGHT,
    Count,
    Eq,
    Exists,
    FalseF,
    Forall,
    GoalDecl,
    IfThenElse,
    IntLit,
    Le,
    Length,
    ListLit,
    Lt,
    Not,
    Node,
    Sort,
    SourceSpan,
    TrueF,
    Var,
)

KEYWORDS = {
    "goal", "forall", "exists", "in", "if", "then", "else",
    "true", "false", "len", "count",
}

_UNICODE_ALIASES = {
    "∀": ("KW", "forall"),   # forall sign
    "∃": ("KW", "exists"),   # exists sign
    "∧": ("SYM", "/\\"),     # logical and
    "∨": ("SYM", "\\/"),     # logical or
    "→": ("SYM", "->"),      # rightwards arrow
    "⇒": ("SYM", "->"),      # double arrow
    "¬": ("SYM", "!"),       # negation sign
    "∈": ("KW", "in"),       # element of
    "≤": ("SYM", "<="),
    "≥": ("SYM", ">="),
    "≠": ("SYM", "!="),
}

# Longest first: the regex alternation takes the first symbol that matches.
_SYMBOLS = [
    ":=", "::", "<=", ">=", "!=", "++", "->", "/\\", "\\/",
    "(", ")", "[", "]", ",", ":", "=", "<", ">", "!", "+", "-", "*", "%",
]

# One alternative per token class.  A word is a run of \w (letters, digits
# of any script, underscore) and must start with a letter or underscore;
# integer literals are ASCII digits only.
_TOKEN = re.compile(
    "|".join([
        r"(?P<NL>\n)",
        r"(?P<WS>[ \t\r]+)",
        r"(?P<COMMENT>#[^\n]*)",
        r"(?P<INT>[0-9]+)",
        r"(?P<WORD>\w+)",
        f"(?P<ALIAS>[{''.join(_UNICODE_ALIASES)}])",
        "(?P<SYM>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
        r"(?P<BAD>.)",
    ]),
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str          # "INT" | "IDENT" | "KW" | "SYM" | "EOF"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, end = 1, 0, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        # A comment advances no column, which only shows at end of input.
        end = match.start() if kind == "COMMENT" else match.end()
        if kind == "NL":
            line += 1
            line_start = end
            continue
        if kind == "WS" or kind == "COMMENT":
            continue
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "WORD":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, column)
            kind = "KW" if text in KEYWORDS else "IDENT"
        elif kind == "ALIAS":
            kind, text = _UNICODE_ALIASES[text]
        elif kind == "BAD":
            raise ParseError(f"unexpected character {text!r}", line, column)
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


# Infix spellings as (precedence, associativity, node builder): the table's
# operators plus the comparison sugar.
_INFIX = {symbol: (prec, assoc, cls) for symbol, cls, prec, assoc in OPERATORS}
_COMPARISON = _INFIX["="][0]
_INFIX.update({
    ">": (_COMPARISON, NONASSOC, lambda left, right: Lt(right, left)),
    ">=": (_COMPARISON, NONASSOC, lambda left, right: Le(right, left)),
    "!=": (_COMPARISON, NONASSOC, lambda left, right: Not(Eq(left, right))),
})
# The precedence a term position (a list element, an argument of len or
# count, an if branch) parses at: term operators only.
_TERM = _COMPARISON + 1
# How deep ``parse_expression`` may nest.  Printing a tree nests it at most
# twice per tree level, so every tree within MAX_DEPTH reads back.
_MAX_NESTING = 2 * MAX_DEPTH
_SORTS = {"Int": Sort.INT, "IntList": Sort.INT_LIST}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # parse_expression calls now open

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        # Symbols and keywords never share their text with another token.
        if self.peek().text != text:
            self.fail(f"expected {text!r}")
        return self.advance()

    def expect_name(self, what: str) -> Token:
        if self.peek().kind != "IDENT":
            self.fail(f"expected {what}")
        return self.advance()

    def fail(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        raise ParseError(f"{message}, found {shown!r}", tok.line, tok.column, max(len(tok.text), 1))

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> list[GoalDecl]:
        decls: list[GoalDecl] = []
        seen: set[str] = set()
        while self.peek().kind != "EOF":
            decl = self.parse_decl()
            if decl.name in seen:
                span = decl.span
                raise ParseError(
                    f"duplicate goal name {decl.name!r}", span.line, span.column, span.length
                )
            seen.add(decl.name)
            decls.append(decl)
        return decls

    def parse_decl(self) -> GoalDecl:
        self.expect("goal")
        name_tok = self.expect_name("goal name")
        binders: dict[str, Sort] = {}
        while self.peek().text == "(":
            self.advance()
            btok = self.expect_name("binder name")
            self.expect(":")
            sort = self.parse_sort()
            self.expect(")")
            if btok.text in binders:
                raise ParseError(
                    f"duplicate binder {btok.text!r}", btok.line, btok.column, len(btok.text)
                )
            binders[btok.text] = sort
        self.expect(":=")
        body = self.parse_expression(0, frozenset(binders))
        span = SourceSpan(name_tok.line, name_tok.column, len(name_tok.text))
        decl = GoalDecl(name_tok.text, tuple(binders.items()), body, span=span)
        error = decl.sort_error
        if error is not None:
            raise ParseError(error, span.line, span.column, span.length)
        return decl

    def parse_sort(self) -> Sort:
        tok = self.advance()
        if tok.kind != "IDENT" or tok.text not in _SORTS:
            self.fail("unknown sort (expected Int or IntList)", tok)
        return _SORTS[tok.text]

    # -- expressions -------------------------------------------------------

    def parse_expression(self, min_prec: int, scope: frozenset[str]) -> Node:
        """Parse a prefix expression, then every infix operator that binds
        at least as tightly as ``min_prec``.  A non-associative operator
        ends the run of operators at its own precedence."""
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            tok = self.peek()
            raise ParseError("expression nested too deeply", tok.line, tok.column)
        left = self.parse_prefix(scope)
        closed = None  # the precedence of a non-associative operator just applied
        while True:
            entry = _INFIX.get(self.tokens[self.pos].text)
            if entry is None or entry[0] < min_prec or entry[0] == closed:
                self.nesting -= 1
                return left
            prec, assoc, build = entry
            self.pos += 1
            right = self.parse_expression(prec if assoc == RIGHT else prec + 1, scope)
            left = build(left, right)
            closed = prec if assoc == NONASSOC else None

    def parse_prefix(self, scope: frozenset[str]) -> Node:
        tok = self.advance()
        kind, text = tok.kind, tok.text
        if kind == "IDENT":
            if text not in scope:
                raise ParseError(f"unbound variable {text!r}", tok.line, tok.column, len(text))
            return Var(text)
        if kind == "INT" or (text == "-" and self.peek().kind == "INT"):
            lit = tok if kind == "INT" else self.advance()
            try:
                value = int(lit.text)
            except ValueError:  # past the interpreter's limit on integer digits
                raise ParseError("integer literal too long", lit.line, lit.column, len(lit.text)) from None
            return IntLit(value if kind == "INT" else -value)
        if text == "(":
            inner = self.parse_expression(0, scope)
            self.expect(")")
            return inner
        if text == "!":
            return Not(self.parse_expression(_COMPARISON, scope))
        if text == "forall" or text == "exists":
            btok = self.expect_name("bound variable name")
            self.expect(":")
            sort = self.parse_sort()
            self.expect(",")
            ctor = Forall if text == "forall" else Exists
            return ctor(btok.text, sort, self.parse_expression(0, scope | {btok.text}))
        if text == "true":
            return TrueF()
        if text == "false":
            return FalseF()
        if text == "len" or text == "count":
            self.expect("(")
            args = [self.parse_expression(_TERM, scope)]
            if text == "count":
                self.expect(",")
                args.append(self.parse_expression(_TERM, scope))
            self.expect(")")
            return (Length if text == "len" else Count)(*args)
        if text == "if":
            cond = self.parse_expression(0, scope)
            self.expect("then")
            then = self.parse_expression(_TERM, scope)
            self.expect("else")
            return IfThenElse(cond, then, self.parse_expression(_TERM, scope))
        if text == "[":
            elements: list[Node] = []
            if self.peek().text != "]":
                elements.append(self.parse_expression(_TERM, scope))
                while self.peek().text == ",":
                    self.advance()
                    elements.append(self.parse_expression(_TERM, scope))
            self.expect("]")
            return ListLit(tuple(elements))
        self.fail("expected term", tok)
        raise AssertionError  # unreachable


def parse_goal_file(source: str) -> list[GoalDecl]:
    """Parse a goal file into declarations, enforcing well-sortedness, the
    depth bound, bound variables, and unique goal names."""
    return _Parser(tokenize(source)).parse_file()


def parse_goal(source: str) -> GoalDecl:
    """Parse exactly one declaration (the wire format for a single lemma)."""
    decls = parse_goal_file(source)
    if len(decls) != 1:
        raise ParseError(f"expected exactly one goal, found {len(decls)}", 1, 1)
    return decls[0]
