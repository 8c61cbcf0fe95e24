"""Concrete syntax for goal files.

One declaration per ``goal`` keyword:

    goal sum_nonneg (l: IntList) := 0 <= len(l)   # trailing comment

ASCII spellings are canonical (``/\\``, ``\\/``, ``->``, ``!``, ``in``,
``::``, ``++``); the common Unicode aliases are accepted on input.  ``>``,
``>=`` and ``!=`` are sugar for the flipped or negated core comparisons.

One regex reads the text: whitespace and comments, then one token, whose
kind one classifier names.  The parser scans with it once through
``findall`` and walks the token kinds and texts by index; line and column
are worked out only for a goal name's span and for a ``ParseError``, by
scanning again with ``finditer`` as far as the token needed
(``tokenize`` is that positioned reader).  A character no token starts
with is an error before parsing begins.

One precedence-climbing loop over ``ast.OPERATORS`` (Pratt, 1973) parses
terms and formulas alike, and works out each node's sort as it builds the
node, by the node's row of ``ast._SIGNATURES``: the table the sort walk
reads.  A body that is a formula of at most ``ast.MAX_DEPTH`` nodes, each
child of the sort its node takes, is cleared there and then, without the
walk.  Every other goal goes to ``GoalDecl.sort_error``, which writes every
message: it rejects a declaration that mixes terms and formulas up or is
nested more than ``MAX_DEPTH`` deep.  The loop itself stops at twice that
nesting, so text of any depth is a parse error, never a crash.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NamedTuple

from ..errors import ParseError
from .ast import (
    _A,
    _PROP,
    _SIGNATURES,
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

# Whitespace and comments, then one token: an integer (ASCII digits only), a
# word (a run of \w, which may start with a digit of another script), an
# alias, a symbol, any other single character, or the empty text at end of
# input.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*("
    + "|".join([
        r"[0-9]+",
        r"\w+",
        f"[{''.join(_UNICODE_ALIASES)}]",
        *map(re.escape, _SYMBOLS),
        r".",
        r"\Z",
    ])
    + ")",
    re.DOTALL,
)

# The kind and canonical text of every token text that has a fixed one.
_FIXED = {
    "": ("EOF", ""),
    **{symbol: ("SYM", symbol) for symbol in _SYMBOLS},
    **{word: ("KW", word) for word in KEYWORDS},
    **_UNICODE_ALIASES,
}


def _classify(text: str) -> tuple[str, str] | None:
    """The kind ("INT", "IDENT", "KW", "SYM" or "EOF") and canonical text of
    one scanned token, or None when its first character starts no token."""
    fixed = _FIXED.get(text)
    if fixed is not None:
        return fixed
    first = text[0]
    if "0" <= first <= "9":
        return "INT", text
    if first.isalpha() or first == "_":
        return "IDENT", text
    return None


class Token(NamedTuple):
    kind: str          # "INT" | "IDENT" | "KW" | "SYM" | "EOF"
    text: str
    line: int
    column: int


def _positioned(source: str) -> Iterator[Token]:
    """The tokens of ``source`` with their lines and columns, up to and
    including EOF; raises the ParseError of a character no token starts with."""
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        start = match.start(1)
        breaks = source.count("\n", match.start(), start)
        if breaks:
            line += breaks
            line_start = source.rindex("\n", 0, start) + 1
        text = match.group(1)
        if not text:
            # A comment advances no column, which only shows at end of input;
            # no token holds a "#", so the first one on the line starts it.
            comment = source.find("#", line_start)
            end = comment if comment >= 0 else start
            yield Token("EOF", "", line, end - line_start + 1)
            return
        entry = _classify(text)
        if entry is None:
            raise ParseError(f"unexpected character {text[0]!r}", line, start - line_start + 1)
        yield Token(*entry, line, start - line_start + 1)


def tokenize(source: str) -> list[Token]:
    """Every token of ``source`` with its line and column, EOF last."""
    return list(_positioned(source))


def _scan(source: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The kinds and canonical texts of the tokens of ``source``, up to and
    including EOF, without positions.  A character no token starts with
    raises its ParseError here, before any parsing."""
    texts = _TOKEN.findall(source)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()  # trailing skipped text yields a second empty match
    entries = list(map(_classify, texts))
    if None in entries:
        tokenize(source)  # raises with the position
    kinds, canonical = zip(*entries)
    return kinds, canonical


# Infix spellings as (precedence, associativity, node builder, sort rule,
# nodes built): the table's operators plus the comparison sugar.  The sort
# rule is the ``_SIGNATURES`` row of the class built, ``Lt``, ``Le`` or
# ``Eq`` for the sugar, so the loop and ``_sort_of`` read one rule table.
_INFIX = {
    symbol: (prec, assoc, cls, _SIGNATURES[cls], 1) for symbol, cls, prec, assoc in OPERATORS
}
_COMPARISON = _INFIX["="][0]
_INFIX.update({
    ">": (_COMPARISON, NONASSOC, lambda left, right: Lt(right, left), _SIGNATURES[Lt], 1),
    ">=": (_COMPARISON, NONASSOC, lambda left, right: Le(right, left), _SIGNATURES[Le], 1),
    "!=": (_COMPARISON, NONASSOC, lambda left, right: Not(Eq(left, right)), _SIGNATURES[Eq], 2),
})
# The precedence a term position (a list element, an argument of len or
# count, an if branch) parses at: term operators only.
_TERM = _COMPARISON + 1
# How deep ``parse_expression`` may nest.  Printing a tree nests it at most
# twice per tree level, so every tree within MAX_DEPTH reads back.
_MAX_NESTING = 2 * MAX_DEPTH
_SORTS = {"Int": Sort.INT, "IntList": Sort.INT_LIST}


class _Parser:
    def __init__(self, source: str):
        self.kinds, self.texts = _scan(source)
        self.pos = 0
        self.nesting = 0  # parse_expression calls now open
        self.built = 0  # nodes built for the current goal body
        self.ill_sorted = False  # a node of the current body got a child of the wrong sort
        self.positioned: list[Token] = []  # the first tokens, read on demand
        self.reader = _positioned(source)

    # -- token plumbing ----------------------------------------------------

    def token(self, index: int) -> Token:
        """Token ``index`` with its position: the source is read again, and
        only as far as the furthest token asked for so far."""
        while len(self.positioned) <= index:
            self.positioned.append(next(self.reader))
        return self.positioned[index]

    def error(self, message: str, index: int, length: int = 1) -> ParseError:
        tok = self.token(index)
        return ParseError(message, tok.line, tok.column, length)

    def expect(self, text: str) -> None:
        # Symbols and keywords never share their text with another token.
        if self.texts[self.pos] != text:
            self.fail(f"expected {text!r}")
        self.pos += 1

    def expect_name(self, what: str) -> int:
        if self.kinds[self.pos] != "IDENT":
            self.fail(f"expected {what}")
        self.pos += 1
        return self.pos - 1

    def fail(self, message: str, index: int | None = None) -> None:
        index = self.pos if index is None else index
        text = self.texts[index]
        shown = text or "end of input"
        raise self.error(f"{message}, found {shown!r}", index, max(len(text), 1))

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> list[GoalDecl]:
        decls: list[GoalDecl] = []
        seen: set[str] = set()
        while self.kinds[self.pos] != "EOF":
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
        name = self.expect_name("goal name")
        binders: dict[str, Sort] = {}
        while self.texts[self.pos] == "(":
            self.pos += 1
            binder = self.expect_name("binder name")
            self.expect(":")
            sort = self.parse_sort()
            self.expect(")")
            text = self.texts[binder]
            if text in binders:
                raise self.error(f"duplicate binder {text!r}", binder, len(text))
            binders[text] = sort
        self.expect(":=")
        self.built, self.ill_sorted = 0, False
        body, sort = self.parse_expression(0, binders)
        tok = self.token(name)
        span = SourceSpan(tok.line, tok.column, len(tok.text))
        decl = GoalDecl(self.texts[name], tuple(binders.items()), body, span=span)
        if self.ill_sorted or sort is not _PROP or self.built > MAX_DEPTH:
            # The walk writes every message, and clears a well-sorted body
            # too large for the node count to bound its depth.
            error = decl.sort_error
            if error is not None:
                raise ParseError(error, span.line, span.column, span.length)
        else:
            # A formula of at most MAX_DEPTH nodes is no deeper than that,
            # so the walk would find nothing: fill its cached_property slot.
            decl.__dict__["sort_error"] = None
        return decl

    def parse_sort(self) -> Sort:
        index = self.pos
        self.pos += 1
        sort = _SORTS.get(self.texts[index]) if self.kinds[index] == "IDENT" else None
        if sort is None:
            self.fail("unknown sort (expected Int or IntList)", index)
        return sort

    # -- expressions -------------------------------------------------------

    def sort_of(self, cls: type, *sorts) -> object:
        """The sort of a new ``cls`` node whose children have ``sorts``, by
        its ``_SIGNATURES`` row read as ``_sort_of`` reads it.  A child of
        the wrong sort marks the body as ill-sorted."""
        params, result = _SIGNATURES[cls]
        bound = None
        for param, sort in zip(params, sorts):
            if param is _A:
                param = bound = bound or (sort if sort is not _PROP else None)
            if sort is not param:
                self.ill_sorted = True
        return bound if result is _A else result

    def parse_expression(self, min_prec: int, scope: dict[str, Sort]) -> tuple[Node, object]:
        """Parse a prefix expression, then every infix operator that binds
        at least as tightly as ``min_prec``, and return the tree with its
        sort.  A non-associative operator ends the run of operators at its
        own precedence."""
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise self.error("expression nested too deeply", self.pos)
        left, sort = self.parse_prefix(scope)
        closed = None  # the precedence of a non-associative operator just applied
        while True:
            entry = _INFIX.get(self.texts[self.pos])
            if entry is None or entry[0] < min_prec or entry[0] == closed:
                self.nesting -= 1
                return left, sort
            prec, assoc, build, ((first, second), result), size = entry
            self.pos += 1
            if first is _A:
                # The left operand binds the sort variable, to a term sort only.
                first = second = sort if sort is not _PROP else None
            if sort is not first:
                self.ill_sorted = True
            right, right_sort = self.parse_expression(prec if assoc == RIGHT else prec + 1, scope)
            if right_sort is not second:
                self.ill_sorted = True
            left, sort = build(left, right), result
            self.built += size
            closed = prec if assoc == NONASSOC else None

    def parse_prefix(self, scope: dict[str, Sort]) -> tuple[Node, object]:
        index = self.pos
        self.pos += 1
        kind, text = self.kinds[index], self.texts[index]
        if text == "(":
            inner = self.parse_expression(0, scope)
            self.expect(")")
            return inner
        self.built += 1  # every other prefix builds one node, or fails
        if kind == "IDENT":
            sort = scope.get(text)
            if sort is None:
                raise self.error(f"unbound variable {text!r}", index, len(text))
            return Var(text), sort
        if kind == "INT" or (text == "-" and self.kinds[self.pos] == "INT"):
            if kind != "INT":
                index = self.pos
                self.pos += 1
            try:
                value = int(self.texts[index])
            except ValueError:  # past the interpreter's limit on integer digits
                raise self.error("integer literal too long", index, len(self.texts[index])) from None
            return IntLit(value if kind == "INT" else -value), Sort.INT
        if text == "!":
            child, sort = self.parse_expression(_COMPARISON, scope)
            return Not(child), self.sort_of(Not, sort)
        if text == "forall" or text == "exists":
            name = self.texts[self.expect_name("bound variable name")]
            self.expect(":")
            sort = self.parse_sort()
            self.expect(",")
            ctor = Forall if text == "forall" else Exists
            body, body_sort = self.parse_expression(0, {**scope, name: sort})
            return ctor(name, sort, body), self.sort_of(ctor, body_sort)
        if text == "true":
            return TrueF(), _PROP
        if text == "false":
            return FalseF(), _PROP
        if text == "len" or text == "count":
            self.expect("(")
            arg, arg_sort = self.parse_expression(_TERM, scope)
            if text == "len":
                self.expect(")")
                return Length(arg), self.sort_of(Length, arg_sort)
            self.expect(",")
            element, element_sort = self.parse_expression(_TERM, scope)
            self.expect(")")
            return Count(arg, element), self.sort_of(Count, arg_sort, element_sort)
        if text == "if":
            cond, cond_sort = self.parse_expression(0, scope)
            self.expect("then")
            then, then_sort = self.parse_expression(_TERM, scope)
            self.expect("else")
            other, other_sort = self.parse_expression(_TERM, scope)
            sort = self.sort_of(IfThenElse, cond_sort, then_sort, other_sort)
            return IfThenElse(cond, then, other), sort
        if text == "[":
            elements: list[tuple[Node, object]] = []
            if self.texts[self.pos] != "]":
                elements.append(self.parse_expression(_TERM, scope))
                while self.texts[self.pos] == ",":
                    self.pos += 1
                    elements.append(self.parse_expression(_TERM, scope))
            self.expect("]")
            if any(sort is not Sort.INT for _, sort in elements):
                self.ill_sorted = True
            return ListLit(tuple(node for node, _ in elements)), Sort.INT_LIST
        self.fail("expected term", index)
        raise AssertionError  # unreachable


def parse_goal_file(source: str) -> list[GoalDecl]:
    """Parse a goal file into declarations, enforcing well-sortedness, the
    depth bound, bound variables, and unique goal names."""
    return _Parser(source).parse_file()


def parse_goal(source: str) -> GoalDecl:
    """Parse exactly one declaration (the wire format for a single lemma)."""
    decls = parse_goal_file(source)
    if len(decls) != 1:
        raise ParseError(f"expected exactly one goal, found {len(decls)}", 1, 1)
    return decls[0]
