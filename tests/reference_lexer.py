"""Reference lexer for the Puppet DSL subset: one character at a time.

This is ``repro.puppet.lexer`` as it was before it became one compiled
pattern, kept unchanged so that ``test_lexer_differential.py`` can hold
the new lexer to its tokens and errors.

Notable Puppet-isms handled here:

* barewords may be namespaced (``nginx::config``); a leading capital on
  any segment makes a type reference (``File``, ``Nginx::Config``);
* variables: ``$x``, ``$::top``, ``$nginx::port``;
* single-quoted strings are literal; double-quoted strings keep their
  raw payload — interpolation is resolved during evaluation, when
  variable scopes exist;
* ``<|`` / ``|>`` collector brackets vs comparison operators;
* ``#`` line comments and ``/* */`` block comments.
"""

from __future__ import annotations

from typing import List

from repro.errors import PuppetSyntaxError
from repro.puppet.tokens import KEYWORDS, Token, TokenKind

_SIMPLE = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACK,
    "]": TokenKind.RBRACK,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    "?": TokenKind.QUESTION,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
    "%": TokenKind.PERCENT,
}


class Lexer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                tokens.append(Token(TokenKind.EOF, "", self.line, self.column))
                return tokens
            tokens.append(self._next_token())

    # -- internals ----------------------------------------------------------

    def _error(self, message: str) -> PuppetSyntaxError:
        return PuppetSyntaxError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        out = self.source[self.pos : self.pos + count]
        for ch in out:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return out

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def _token(self, kind: TokenKind, text: str, line: int, col: int) -> Token:
        return Token(kind, text, line, col)

    def _next_token(self) -> Token:
        line, col = self.line, self.column
        ch = self._peek()
        two = ch + self._peek(1)

        if two in ("=>",):
            self._advance(2)
            return self._token(TokenKind.FARROW, two, line, col)
        if two == "+>":
            self._advance(2)
            return self._token(TokenKind.PARROW, two, line, col)
        if two == "->":
            self._advance(2)
            return self._token(TokenKind.ARROW_RIGHT, two, line, col)
        if two == "~>":
            self._advance(2)
            return self._token(TokenKind.NOTIFY_RIGHT, two, line, col)
        if two == "<-":
            self._advance(2)
            return self._token(TokenKind.ARROW_LEFT, two, line, col)
        if two == "<~":
            self._advance(2)
            return self._token(TokenKind.NOTIFY_LEFT, two, line, col)
        if two == "<|":
            self._advance(2)
            return self._token(TokenKind.COLLECT_OPEN, two, line, col)
        if two == "|>":
            self._advance(2)
            return self._token(TokenKind.COLLECT_CLOSE, two, line, col)
        if two == "==":
            self._advance(2)
            return self._token(TokenKind.EQ, two, line, col)
        if two == "!=":
            self._advance(2)
            return self._token(TokenKind.NEQ, two, line, col)
        if two == "=~":
            self._advance(2)
            return self._token(TokenKind.MATCH, two, line, col)
        if two == "!~":
            self._advance(2)
            return self._token(TokenKind.NOMATCH, two, line, col)
        if two == "<=":
            self._advance(2)
            return self._token(TokenKind.LTEQ, two, line, col)
        if two == ">=":
            self._advance(2)
            return self._token(TokenKind.GTEQ, two, line, col)
        if two == "@@":
            self._advance(2)
            return self._token(TokenKind.ATAT, two, line, col)

        if ch in _SIMPLE:
            self._advance()
            return self._token(_SIMPLE[ch], ch, line, col)
        if ch == "<":
            self._advance()
            return self._token(TokenKind.LT, ch, line, col)
        if ch == ">":
            self._advance()
            return self._token(TokenKind.GT, ch, line, col)
        if ch == "=":
            self._advance()
            return self._token(TokenKind.ASSIGN, ch, line, col)
        if ch == "+":
            self._advance()
            return self._token(TokenKind.PLUS, ch, line, col)
        if ch == "-":
            self._advance()
            return self._token(TokenKind.MINUS, ch, line, col)
        if ch == "/":
            self._advance()
            return self._token(TokenKind.SLASH, ch, line, col)
        if ch == "!":
            self._advance()
            return self._token(TokenKind.BANG, ch, line, col)
        if ch == "@":
            self._advance()
            return self._token(TokenKind.AT, ch, line, col)
        if ch == "$":
            return self._lex_variable()
        if ch == "'":
            return self._lex_single_quoted()
        if ch == '"':
            return self._lex_double_quoted()
        if ch.isdigit():
            return self._lex_number()
        if ch.isalpha() or ch == "_" or (ch == ":" and self._peek(1) == ":"):
            return self._lex_word()
        raise self._error(f"unexpected character {ch!r}")

    def _lex_variable(self) -> Token:
        line, col = self.line, self.column
        self._advance()  # $
        name = []
        if self._peek() == ":" and self._peek(1) == ":":
            name.append(self._advance(2))
        while True:
            ch = self._peek()
            if ch.isalnum() or ch == "_":
                name.append(self._advance())
            elif ch == ":" and self._peek(1) == ":":
                name.append(self._advance(2))
            else:
                break
        if not name:
            raise self._error("empty variable name after '$'")
        return self._token(TokenKind.VARIABLE, "".join(name), line, col)

    def _lex_single_quoted(self) -> Token:
        line, col = self.line, self.column
        self._advance()
        out = []
        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated string literal")
            ch = self._advance()
            if ch == "\\" and self._peek() in ("'", "\\"):
                out.append(self._advance())
            elif ch == "'":
                break
            else:
                out.append(ch)
        return self._token(TokenKind.STRING, "".join(out), line, col)

    def _lex_double_quoted(self) -> Token:
        line, col = self.line, self.column
        self._advance()
        out = []
        while True:
            if self.pos >= len(self.source):
                raise self._error("unterminated string literal")
            ch = self._advance()
            if ch == "\\":
                nxt = self._advance()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "$": "\\$"}
                out.append(mapping.get(nxt, "\\" + nxt))
            elif ch == '"':
                break
            else:
                out.append(ch)
        return self._token(TokenKind.DQSTRING, "".join(out), line, col)

    def _lex_number(self) -> Token:
        line, col = self.line, self.column
        out = []
        while self._peek().isdigit():
            out.append(self._advance())
        if self._peek() == "." and self._peek(1).isdigit():
            out.append(self._advance())
            while self._peek().isdigit():
                out.append(self._advance())
        return self._token(TokenKind.NUMBER, "".join(out), line, col)

    def _lex_word(self) -> Token:
        line, col = self.line, self.column
        out = []
        while True:
            ch = self._peek()
            if ch and (ch.isalnum() or ch in "_-"):
                out.append(self._advance())
            elif ch == ":" and self._peek(1) == ":":
                out.append(self._advance(2))
            else:
                break
        text = "".join(out)
        kind = KEYWORDS.get(text)
        if kind is not None:
            return self._token(kind, text, line, col)
        # A reference like File or Nginx::Config: first char of the
        # first non-empty segment is uppercase.
        segments = [s for s in text.split("::") if s]
        if segments and segments[0][0].isupper():
            return self._token(TokenKind.TYPEREF, text, line, col)
        return self._token(TokenKind.NAME, text, line, col)


def tokenize(source: str) -> List[Token]:
    return Lexer(source).tokenize()
