"""Lexer for the Puppet DSL subset: one compiled pattern.

Each match of ``_TOKEN`` skips trivia (blanks, ``#`` line comments,
``/* */`` block comments) and then takes one token, whose named group
gives its class.  The alternatives are tried in a fixed order: an
unclosed ``/*`` (an error), the operators (two-character ones before
one-character ones), a ``$`` variable, a single- or double-quoted
string, a number, a word, the end of input, and last any other
character (an error).  A token's line and column come from counting
newlines between the previous token's start and its own
(``str.count``/``str.rfind``), never from a walk over each character.

Notable Puppet-isms handled here:

* barewords may be namespaced (``nginx::config``); a capital first
  letter makes a type reference (``File``, ``Nginx::Config``);
* a word cannot start with ``::``: ``::apache`` is ``COLON COLON
  NAME`` and ``::Foo`` is ``COLON COLON TYPEREF``, so top-scope
  ``::name`` references are not supported;
* variables: ``$x``, ``$::top``, ``$nginx::port``;
* single-quoted strings are literal; double-quoted strings keep their
  raw payload — interpolation is resolved during evaluation, when
  variable scopes exist;
* ``<|`` / ``|>`` collector brackets vs comparison operators;
* ``#`` line comments and ``/* */`` block comments.

The character classes follow the ``str`` tests exactly, not the regex
shorthands: a number's digits are ``str.isdigit``, which is ``\\d``
plus 128 superscript, circled and other non-decimal digits (listed
in ``_NON_DECIMAL_DIGITS``); a word's characters are ``str.isalnum`` or ``_``,
which is ``\\w``.  A word starts with ``str.isalpha`` or ``_``; the
pattern lets any non-decimal ``\\w`` start one, and :func:`tokenize`
rejects numeric characters such as ``½`` there.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import PuppetSyntaxError
from repro.puppet.tokens import KEYWORDS, Token, TokenKind

_OPERATORS = {
    "=>": TokenKind.FARROW,
    "+>": TokenKind.PARROW,
    "->": TokenKind.ARROW_RIGHT,
    "~>": TokenKind.NOTIFY_RIGHT,
    "<-": TokenKind.ARROW_LEFT,
    "<~": TokenKind.NOTIFY_LEFT,
    "<|": TokenKind.COLLECT_OPEN,
    "|>": TokenKind.COLLECT_CLOSE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NEQ,
    "=~": TokenKind.MATCH,
    "!~": TokenKind.NOMATCH,
    "<=": TokenKind.LTEQ,
    ">=": TokenKind.GTEQ,
    "@@": TokenKind.ATAT,
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
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "/": TokenKind.SLASH,
    "!": TokenKind.BANG,
    "@": TokenKind.AT,
}

# str.isdigit is \d plus these non-decimal digits (superscripts, circled
# digits, ...); ``tests/test_lexer_differential.py --all`` checks the
# table against the running Python's Unicode data.
_NON_DECIMAL_DIGITS = (
    (0xB2, 0xB3), (0xB9, 0xB9), (0x1369, 0x1371), (0x19DA, 0x19DA),
    (0x2070, 0x2070), (0x2074, 0x2079), (0x2080, 0x2089), (0x2460, 0x2468),
    (0x2474, 0x247C), (0x2488, 0x2490), (0x24EA, 0x24EA), (0x24F5, 0x24FD),
    (0x24FF, 0x24FF), (0x2776, 0x277E), (0x2780, 0x2788), (0x278A, 0x2792),
    (0x10A40, 0x10A43), (0x10E60, 0x10E68), (0x11052, 0x1105A),
    (0x1F100, 0x1F10A),
)
_DIGIT = "[\\d%s]" % "".join(
    f"{chr(lo)}-{chr(hi)}" for lo, hi in _NON_DECIMAL_DIGITS
)

_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*|/\*[\s\S]*?\*/)*"
    r"(?:(?P<unclosed>/\*)"
    r"|(?P<op>=>|\+>|->|~>|<-|<~|<\||\|>|==|!=|=~|!~|<=|>=|@@"
    r"|[{}\[\]():;,?.*%<>=+\-/!@])"
    r"|(?P<var>\$(?:\w|::)*)"
    r"|(?P<sq>'(?:[^'\\]|\\[\s\S])*')"
    r'|(?P<dq>"(?:[^"\\]|\\[\s\S])*")'
    rf"|(?P<num>{_DIGIT}+(?:\.{_DIGIT}+)?)"
    r"|(?P<word>[^\W\d](?:[\w-]|::)*)"
    r"|(?P<end>\Z)"
    r"|(?P<other>[\s\S]))"
)

_DQ_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _dq_escape(match: re.Match) -> str:
    return _DQ_ESCAPES[match[1]]


def _error(message: str, source: str, offset: int) -> PuppetSyntaxError:
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    return PuppetSyntaxError(message, line, column)


def _unexpected(source: str, offset: int) -> PuppetSyntaxError:
    return _error(f"unexpected character {source[offset]!r}", source, offset)


def tokenize(source: str) -> List[Token]:
    """The tokens of ``source``, ending with EOF."""
    tokens: List[Token] = []
    line, line_start, last, column = 1, 0, 0, 1
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        start, end = match.span(group)
        newlines = source.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", last, start) + 1
        last = start
        column = start - line_start + 1
        text = source[start:end]
        if group == "op":
            kind = _OPERATORS[text]
        elif group == "word":
            kind = KEYWORDS.get(text)
            if kind is None:
                head = text[0]  # a numeric such as ½ starts no word
                if not (head.isalpha() or head == "_"):
                    raise _unexpected(source, start)
                kind = TokenKind.TYPEREF if head.isupper() else TokenKind.NAME
        elif group == "sq":
            kind, text = TokenKind.STRING, text[1:-1]
            if "\\" in text:
                text = re.sub(r"\\(['\\])", r"\1", text)
        elif group == "dq":
            kind, text = TokenKind.DQSTRING, text[1:-1]
            if "\\" in text:
                text = re.sub(r'\\([nt"\\])', _dq_escape, text)
        elif group == "var":
            if end - start == 1:
                raise _error("empty variable name after '$'", source, end)
            kind, text = TokenKind.VARIABLE, text[1:]
        elif group == "num":
            kind = TokenKind.NUMBER
        elif group == "end":
            break
        elif group == "unclosed":
            raise _error("unterminated block comment", source, len(source))
        elif text in "'\"":  # a quote the string groups could not close
            raise _error("unterminated string literal", source, len(source))
        else:
            raise _unexpected(source, start)
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
