"""Token definitions for the Puppet DSL lexer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class TokenKind(Enum):
    # Literals and names
    NAME = auto()  # bareword: package, nginx::config
    TYPEREF = auto()  # capitalized: File, Package, Class, Nginx::Config
    VARIABLE = auto()  # $x, $::x, $nginx::port
    STRING = auto()  # single-quoted (no interpolation)
    DQSTRING = auto()  # double-quoted (interpolation payload kept raw)
    NUMBER = auto()

    # Keywords
    DEFINE = auto()
    CLASS = auto()
    NODE = auto()
    INHERITS = auto()
    IF = auto()
    ELSIF = auto()
    ELSE = auto()
    UNLESS = auto()
    CASE = auto()
    DEFAULT = auto()
    TRUE = auto()
    FALSE = auto()
    UNDEF = auto()
    AND = auto()
    OR = auto()
    IN = auto()
    INCLUDE = auto()
    REQUIRE_KW = auto()

    # Punctuation
    LBRACE = auto()
    RBRACE = auto()
    LBRACK = auto()
    RBRACK = auto()
    LPAREN = auto()
    RPAREN = auto()
    COLON = auto()
    SEMI = auto()
    COMMA = auto()
    FARROW = auto()  # =>
    PARROW = auto()  # +>
    ARROW_RIGHT = auto()  # ->
    ARROW_LEFT = auto()  # <-
    NOTIFY_RIGHT = auto()  # ~>
    NOTIFY_LEFT = auto()  # <~
    COLLECT_OPEN = auto()  # <|
    COLLECT_CLOSE = auto()  # |>
    EQ = auto()  # ==
    NEQ = auto()  # !=
    MATCH = auto()  # =~
    NOMATCH = auto()  # !~
    LT = auto()
    GT = auto()
    LTEQ = auto()
    GTEQ = auto()
    ASSIGN = auto()  # =
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    BANG = auto()
    QUESTION = auto()
    AT = auto()  # virtual resource
    ATAT = auto()  # exported resource
    DOT = auto()

    EOF = auto()


KEYWORDS = {
    "define": TokenKind.DEFINE,
    "class": TokenKind.CLASS,
    "node": TokenKind.NODE,
    "inherits": TokenKind.INHERITS,
    "if": TokenKind.IF,
    "elsif": TokenKind.ELSIF,
    "else": TokenKind.ELSE,
    "unless": TokenKind.UNLESS,
    "case": TokenKind.CASE,
    "default": TokenKind.DEFAULT,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "undef": TokenKind.UNDEF,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "in": TokenKind.IN,
    "include": TokenKind.INCLUDE,
    "require": TokenKind.REQUIRE_KW,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
