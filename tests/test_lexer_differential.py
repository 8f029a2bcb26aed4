"""The one-pattern lexer against the character-loop reference lexer.

``reference_lexer.py`` in this directory is the lexer that stepped
through the source one character at a time, kept as the reference the
way ``sat/brute.py`` is the solver's.  ``repro.puppet.lexer`` must
agree with it on every input: the same tokens (kind, text, line,
column), or the same error (message, line, column).

The inputs are the corpus manifests, every string literal in
``examples/``, sources printed from the round-trip strategies of
``test_puppet_printer.py``, Hypothesis text over the Puppet
punctuation and a few non-ASCII characters, and single code points in
short contexts.  Tier-1 takes the code points where the ``str`` tests
the reference lexer uses (``isdigit``, ``isalpha``, ``isalnum``) and
the regex classes ``\\d``, ``[^\\W\\d_]`` and ``[^\\W_]`` disagree,
plus Latin-1.  ``python tests/test_lexer_differential.py --all``
sweeps every code point the same way (a CI step runs it).
"""

import ast
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer
from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS, load_source
from repro.errors import PuppetSyntaxError
from repro.puppet.lexer import tokenize
from repro.puppet.printer import print_manifest
from test_puppet_printer import manifests

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: A code point is placed alone, inside a word, inside a number, after
#: a number's dot and inside a variable name.
CONTEXTS = ("{}", "a{}b", "1{}2", "1.{}", "$a{}")


def outcome(lex, source):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in lex(source)]
    except PuppetSyntaxError as err:
        return ("error", str(err), err.line, err.column)


def assert_agrees(source):
    assert outcome(tokenize, source) == outcome(
        reference_lexer.tokenize, source
    ), repr(source)


def disagreeing_code_points():
    """Code points where a ``str`` test and its regex spelling differ."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    differ = set()
    for test, pattern in (
        (str.isdigit, r"\d"),
        (str.isalpha, r"[^\W\d_]"),
        (str.isalnum, r"[^\W_]"),
    ):
        differ |= set(filter(test, every)) ^ set(re.findall(pattern, every))
    return sorted(differ)


def mismatches(code_points):
    """(source, new outcome, reference outcome) for each disagreement."""
    found = []
    for char in code_points:
        for context in CONTEXTS:
            source = context.format(char)
            new = outcome(tokenize, source)
            old = outcome(reference_lexer.tokenize, source)
            if new != old:
                found.append((source, new, old))
    return found


def example_strings():
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield pytest.param(node.value, id=f"{path.stem}:{node.lineno}")


@pytest.mark.parametrize("name", BENCHMARK_NAMES + sorted(FIXED_VARIANTS))
def test_corpus_manifest(name):
    assert_agrees(load_source(name))


@pytest.mark.parametrize("source", list(example_strings()))
def test_example_string(source):
    assert_agrees(source)


def test_the_disagreeing_code_points_include_the_known_traps():
    points = disagreeing_code_points()
    assert "\u00b2" in points  # isdigit, not \d: starts a NUMBER
    assert "\u00bd" in points  # not isalpha, but [^\W\d_]: an error
    assert len(points) >= 1000


def test_disagreeing_and_latin1_code_points():
    points = sorted(set(disagreeing_code_points()) | set(map(chr, range(256))))
    assert mismatches(points) == []


@pytest.mark.parametrize(
    "source",
    [
        "",
        "   \n\t\r\n",
        "a\n  b\r\n\tc",
        "/* open",
        "/*/",
        "/**/x",
        "# only a comment",
        "'open",
        "'ends in a backslash\\",
        '"open',
        '"ends in a backslash\\',
        "$",
        "$ x",
        "x\n$",
        "$::",
        "$::a::b::",
        "'a\\'b\\\\c\\d'",
        '"a\\nb\\tc\\"d\\\\e\\$f\\qg\\\nh"',
        "'multi\nline' x\n\"two\nlines\" y",
        "1.5.2 1. .5 12abc",
        "a-b::c- d:::e",
        "::apache ::Foo",
        "| ~ ^ & ` \\",
        "=> +> -> ~> <- <~ <| |> == != =~ !~ <= >= @@ <<| |>>",
        "x\u00bd",
        "\u00bdx",
        "\u2160",
        "a\u0301",
        "\u01c5x",
    ],
)
def test_edge_case(source):
    assert_agrees(source)


@given(manifests)
@settings(max_examples=200, deadline=None)
def test_printed_manifest(manifest):
    assert_agrees(print_manifest(manifest))


#: Puppet punctuation, quotes, escapes, comment and blank characters,
#: ASCII word characters, and non-ASCII digits, numerics and letters.
CHARACTERS = (
    "{}[]():;,?.*%<>=+-/!@~|'\"\\$#\n \t\rab_AZ09"
    "\u00b2\u00bd\u00e9\u2160\u0661\u01c5"
)
PIECES = list(CHARACTERS) + ["/*", "*/", "::", "=>", "<|", "|>"]


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@settings(max_examples=500, deadline=None)
def test_punctuation_text(source):
    assert_agrees(source)


@given(st.text(alphabet=CHARACTERS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_punctuation_characters(source):
    assert_agrees(source)


if __name__ == "__main__":
    if sys.argv[1:] != ["--all"]:
        sys.exit("usage: python tests/test_lexer_differential.py --all")
    found = mismatches(map(chr, range(sys.maxunicode + 1)))
    for source, new, old in found[:20]:
        print(f"{source!r}: lexer {new!r}, reference {old!r}")
    print(f"{len(found)} mismatches over {sys.maxunicode + 1} code points")
    sys.exit(1 if found else 0)
