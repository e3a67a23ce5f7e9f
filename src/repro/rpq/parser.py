"""Text syntax for regular path queries.

The concrete syntax follows SPARQL 1.1 property paths where possible::

    query   := union
    union   := concat ('|' concat)*
    concat  := postfix ('/' postfix)*
    postfix := prefix ('*' | '+' | '?' | '{' INT (',' INT?)? '}')*
    prefix  := '^' prefix | atom
    atom    := IDENT | '<eps>' | '(' union ')'

Examples (all from the paper, Section 2.2 / Section 4)::

    supervisor/^worksFor
    (supervisor|worksFor|^worksFor){4,5}
    knows/(knows/worksFor){2,4}/worksFor

``^`` is inverse navigation (the paper's ``l⁻``); it may be applied to
any parenthesized expression, not just labels.  ``R{i}`` abbreviates
``R{i,i}``; ``R{i,}`` and ``R*``/``R+`` are unbounded and are bounded
against a concrete graph during rewriting.

:func:`parse_template` additionally accepts ``$name`` placeholders —
as repetition bounds and as the subject of an optional ``from(...):``
source anchor::

    template := ('from' '(' (IDENT | '$'IDENT) ')' ':')? union
    bounds   := '{' (INT | '$'IDENT) (',' (INT | '$'IDENT)?)? '}'

    from($v): knows{1,$n}/worksFor

Placeholders are resolved at *bind* time by the prepared-statement
layer (:meth:`repro.api.GraphDatabase.prepare`); :func:`parse` rejects
them with a pointed error.  Query text may carry a literal anchor
(``from(kim): knows/worksFor``); :func:`parse_query` reads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError
from repro.rpq import ast
from repro.rpq.ast import Node

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<eps><eps>|ε)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<param>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[\^/|*+?{},():])
    """,
    re.VERBOSE,
)

#: Hard cap on repetition bounds accepted by the parser; expanding a
#: recursion is exponential in the bound, so absurd literals are
#: rejected early with a clear message.
MAX_REPEAT_BOUND = 10_000


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'eps' | 'ident' | 'int' | one of the symbol characters
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    """Split query text into tokens; raise :class:`ParseError` on junk."""
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}",
                position=position,
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        value = match.group()
        if kind == "sym":
            kind = value
        tokens.append(_Token(kind, value, match.start()))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_params: bool = False):
        self._text = text
        self._tokens = tokenize(text)
        self._index = 0
        self._allow_params = allow_params

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query", position=len(self._text))
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {token.text!r} "
                f"at offset {token.position}",
                position=token.position,
            )
        return token

    def _accept(self, kind: str) -> _Token | None:
        token = self._peek()
        if token is not None and token.kind == kind:
            self._index += 1
            return token
        return None

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> Node:
        node = self._union()
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(
                f"unexpected {trailing.text!r} after end of query "
                f"at offset {trailing.position}",
                position=trailing.position,
            )
        return node

    def _union(self) -> Node:
        parts = [self._concat()]
        while self._accept("|"):
            parts.append(self._concat())
        return ast.union(*parts)

    def _concat(self) -> Node:
        parts = [self._postfix()]
        while self._accept("/"):
            parts.append(self._postfix())
        return ast.concat(*parts)

    def _postfix(self) -> Node:
        node = self._prefix()
        while True:
            token = self._peek()
            if token is None:
                return node
            if token.kind == "*":
                self._next()
                node = ast.star(node)
            elif token.kind == "+":
                self._next()
                node = ast.plus(node)
            elif token.kind == "?":
                self._next()
                node = ast.optional(node)
            elif token.kind == "{":
                node = self._bounds(node)
            else:
                return node

    def _bounds(self, node: Node) -> Node:
        open_token = self._expect("{")
        low = self._bound()
        high: int | str | None
        if self._accept(","):
            if self._peek() is not None and self._peek().kind in ("int", "param"):
                high = self._bound()
            else:
                high = None
        else:
            high = low
        self._expect("}")
        if isinstance(low, str) or isinstance(high, str):
            return ast.ParamRepeat(node, low, high)
        if high is not None and high < low:
            raise ParseError(
                f"repetition bounds {{{low},{high}}} are inverted "
                f"at offset {open_token.position}",
                position=open_token.position,
            )
        return ast.repeat(node, low, high)

    def _bound(self) -> int | str:
        """One repetition bound: a literal, or ``$name`` in templates."""
        token = self._peek()
        if token is not None and token.kind == "param":
            self._next()
            if not self._allow_params:
                raise ParseError(
                    f"parameter {token.text!r} is only allowed in templates "
                    f"(parse with parse_template / GraphDatabase.prepare) "
                    f"at offset {token.position}",
                    position=token.position,
                )
            return token.text[1:]
        return self._int()

    def _int(self) -> int:
        token = self._expect("int")
        value = int(token.text)
        if value > MAX_REPEAT_BOUND:
            raise ParseError(
                f"repetition bound {value} exceeds the maximum "
                f"{MAX_REPEAT_BOUND}",
                position=token.position,
            )
        return value

    def _prefix(self) -> Node:
        if self._accept("^"):
            return ast.Inverse(self._prefix())
        return self._atom()

    def _atom(self) -> Node:
        token = self._next()
        if token.kind == "ident":
            return ast.label(token.text)
        if token.kind == "eps":
            return ast.Epsilon()
        if token.kind == "(":
            node = self._union()
            self._expect(")")
            return node
        if token.kind == "param":
            raise ParseError(
                f"parameter {token.text!r} may only appear as a repetition "
                f"bound or a from(...) anchor, not as a path atom, "
                f"at offset {token.position}",
                position=token.position,
            )
        raise ParseError(
            f"expected a label, '<eps>' or '(' but found {token.text!r} "
            f"at offset {token.position}",
            position=token.position,
        )


def parse(text: str) -> Node:
    """Parse RPQ text into an AST.

    >>> str(parse("supervisor/^worksFor"))
    'supervisor/^worksFor'
    >>> str(parse("(supervisor|worksFor|^worksFor){4,5}"))
    '(supervisor|worksFor|^worksFor){4,5}'
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty query text")
    return _Parser(text).parse()


@dataclass(frozen=True, slots=True)
class Template:
    """A parsed RPQ template: a body with placeholders, plus an anchor.

    ``node`` may contain :class:`repro.rpq.ast.ParamRepeat` placeholder
    bounds; ``anchor_param`` / ``anchor_name`` capture an optional
    ``from($v):`` / ``from(alice):`` source anchor (at most one is
    set).  Parameter resolution lives in
    :func:`repro.rpq.ast.substitute_params`; the prepared-statement
    layer (:mod:`repro.engine.prepared`) does the binding.
    """

    text: str
    node: Node
    anchor_param: str | None = None
    anchor_name: str | None = None

    @property
    def bound_params(self) -> frozenset[str]:
        """Placeholder names appearing as repetition bounds."""
        return ast.params_used(self.node)

    @property
    def params(self) -> frozenset[str]:
        """Every placeholder name a binding must supply."""
        if self.anchor_param is None:
            return self.bound_params
        return self.bound_params | {self.anchor_param}

    @property
    def anchored(self) -> bool:
        return self.anchor_param is not None or self.anchor_name is not None

    def __str__(self) -> str:
        if self.anchor_param is not None:
            return f"from(${self.anchor_param}): {self.node}"
        if self.anchor_name is not None:
            return f"from({self.anchor_name}): {self.node}"
        return str(self.node)


def parse_template(text: str, allow_params: bool = True) -> Template:
    """Parse template text: ``$name`` bounds and a ``from(...):`` anchor.

    >>> template = parse_template("from($v): knows{1,$n}/worksFor")
    >>> sorted(template.params)
    ['n', 'v']
    >>> str(parse_template("knows{1,$n}").node)
    'knows{1,$n}'

    A template with no placeholders is legal (preparing a fixed query
    still skips re-planning on every run).  ``allow_params=False``
    reads query text: a literal ``from(name):`` anchor, no placeholders.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty template text")
    parser = _Parser(text, allow_params=allow_params)
    anchor_param: str | None = None
    anchor_name: str | None = None
    head = parser._peek()
    if (
        head is not None
        and head.kind == "ident"
        and head.text == "from"
        and parser._index + 1 < len(parser._tokens)
        and parser._tokens[parser._index + 1].kind == "("
    ):
        parser._next()  # 'from'
        parser._next()  # '('
        subject = parser._next()
        if subject.kind == "param" and allow_params:
            anchor_param = subject.text[1:]
        elif subject.kind == "ident":
            anchor_name = subject.text
        else:
            expected = "a node name or $parameter" if allow_params else "a node name"
            raise ParseError(
                f"expected {expected} inside from(...), "
                f"found {subject.text!r} at offset {subject.position}",
                position=subject.position,
            )
        parser._expect(")")
        parser._expect(":")
    node = parser.parse()
    return Template(
        text=text,
        node=node,
        anchor_param=anchor_param,
        anchor_name=anchor_name,
    )


def parse_query(text: str) -> tuple[Node, str | None]:
    """Parse query text, returning its AST and its anchor (or ``None``).

    >>> node, anchor = parse_query("from(kim): knows/worksFor")
    >>> anchor, str(node)
    ('kim', 'knows/worksFor')

    Text :func:`parse` accepts has no anchor (a label is never followed
    by ``(``), so only what it rejects is re-read as an anchored
    template — which raises the same error for anything else.
    """
    try:
        return parse(text), None
    except ParseError:
        template = parse_template(text, allow_params=False)
        return template.node, template.anchor_name
