"""Round-trip property: ``parse(print(ast)) == ast``.

The unparser and parser are mutual inverses at the AST level (surface
syntax may normalize — quoting style, parentheses — but the tree must
be preserved exactly).  Hypothesis generates random ASTs from composed
strategies mirroring the grammar.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.puppet import ast_nodes as ast
from repro.puppet.parser import parse_manifest
from repro.puppet.printer import print_manifest

# -- strategies ---------------------------------------------------------------

lower_names = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=8
)
type_names = lower_names.map(lambda s: s)  # resource type names
cap_names = lower_names.map(lambda s: s.capitalize())
var_names = lower_names
safe_text = st.text(
    alphabet=string.ascii_letters + string.digits + "/._- ",
    min_size=0,
    max_size=12,
)

literals = st.one_of(
    st.just(ast.Literal(None)),
    st.booleans().map(ast.Literal),
    st.integers(min_value=0, max_value=9999).map(ast.Literal),
    safe_text.map(ast.Literal),
)


def exprs(depth=2):
    base = st.one_of(
        literals,
        var_names.map(ast.VariableRef),
        st.tuples(cap_names, safe_text).map(
            lambda t: ast.ResourceRefExpr(t[0], (ast.Literal(t[1]),))
        ),
    )
    if depth == 0:
        return base
    sub = exprs(depth - 1)
    return st.one_of(
        base,
        st.lists(sub, min_size=0, max_size=3).map(
            lambda items: ast.ArrayLit(tuple(items))
        ),
        st.tuples(
            st.sampled_from(["==", "!=", "+", "and", "or", "in", "<"]),
            sub,
            sub,
        ).map(lambda t: ast.BinaryOp(t[0], t[1], t[2])),
        sub.map(lambda e: ast.UnaryOp("!", e)),
        st.tuples(sub, sub, sub).map(
            lambda t: ast.Selector(
                t[0], ((t[1], t[2]), (None, ast.Literal("d")))
            )
        ),
    )


attributes = st.lists(
    st.tuples(lower_names, exprs(1)).map(
        lambda t: ast.AttributeDef(t[0], t[1])
    ),
    min_size=0,
    max_size=3,
    unique_by=lambda a: a.name,
).map(tuple)

resource_decls = st.tuples(
    lower_names, safe_text, attributes, st.booleans()
).map(
    lambda t: ast.ResourceDecl(
        rtype=t[0],
        bodies=(ast.ResourceBody(ast.Literal(t[1]), t[2]),),
        virtual=t[3],
    )
)

assignments = st.tuples(var_names, exprs(2)).map(
    lambda t: ast.Assignment(name=t[0], value=t[1])
)

includes = st.lists(lower_names, min_size=1, max_size=3, unique=True).map(
    lambda names: ast.IncludeStatement(names=tuple(names))
)

chains = st.tuples(cap_names, safe_text, cap_names, safe_text).map(
    lambda t: ast.ChainStatement(
        operands=(
            ast.ResourceRefExpr(t[0], (ast.Literal(t[1]),)),
            ast.ResourceRefExpr(t[2], (ast.Literal(t[3]),)),
        ),
        arrows=("->",),
    )
)


def statements(depth=1):
    base = st.one_of(resource_decls, assignments, includes, chains)
    if depth == 0:
        return base
    sub = st.lists(statements(depth - 1), min_size=0, max_size=2).map(tuple)
    ifs = st.tuples(exprs(1), sub, sub).map(
        lambda t: ast.IfStatement(
            branches=((t[0], t[1]), (None, t[2]))
        )
    )
    defines = st.tuples(
        lower_names,
        st.lists(
            st.tuples(var_names, st.none() | exprs(0)),
            min_size=0,
            max_size=2,
            unique_by=lambda p: p[0],
        ).map(tuple),
        sub,
    ).map(lambda t: ast.DefineDecl(name=t[0], params=t[1], body=t[2]))
    classes = st.tuples(lower_names, sub).map(
        lambda t: ast.ClassDecl(name=t[0], body=t[1])
    )
    return st.one_of(base, ifs, defines, classes)


manifests = st.lists(statements(2), min_size=0, max_size=4).map(
    lambda stmts: ast.Manifest(tuple(stmts))
)

# -- tests -----------------------------------------------------------------------


KEYWORDS = {
    "define", "class", "node", "inherits", "if", "elsif", "else",
    "unless", "case", "default", "true", "false", "undef", "and", "or",
    "in", "include", "require",
}


def _uses_keyword_badly(manifest: ast.Manifest) -> bool:
    """Generated names colliding with keywords would not round-trip."""

    def bad_name(name: str) -> bool:
        return name in KEYWORDS

    def check_stmt(stmt) -> bool:
        if isinstance(stmt, ast.ResourceDecl):
            return bad_name(stmt.rtype) or any(
                any(bad_name(a.name) for a in b.attributes)
                for b in stmt.bodies
            )
        if isinstance(stmt, ast.Assignment):
            return False
        if isinstance(stmt, ast.IncludeStatement):
            return any(bad_name(n) for n in stmt.names)
        if isinstance(stmt, (ast.DefineDecl, ast.ClassDecl)):
            return bad_name(stmt.name) or any(
                check_stmt(s) for s in stmt.body
            )
        if isinstance(stmt, ast.IfStatement):
            return any(
                check_stmt(s) for _, body in stmt.branches for s in body
            )
        return False

    return any(check_stmt(s) for s in manifest.statements)


class TestRoundTrip:
    @given(manifests)
    @settings(max_examples=200, deadline=None)
    def test_parse_print_roundtrip(self, manifest):
        if _uses_keyword_badly(manifest):
            return
        source = print_manifest(manifest)
        reparsed = parse_manifest(source)
        assert reparsed == manifest, f"surface:\n{source}"

    def test_concrete_roundtrip(self):
        source = """
        define myuser($shell = '/bin/bash') {
          user{"$title": ensure => present }
        }
        class base inherits core {
          $x = 4 + 2
          include tools, extras
        }
        if $osfamily == 'Debian' { package{'apt': } }
        else { package{'yum': } }
        @user{'carol': ensure => present }
        Package['a'] -> File['/f']
        File { owner => 'root' }
        """
        first = parse_manifest(source)
        second = parse_manifest(print_manifest(first))
        assert first == second

    def test_collector_roundtrip(self):
        source = "File <| owner == 'carol' |> { mode => 'go-rwx' }"
        first = parse_manifest(source)
        second = parse_manifest(print_manifest(first))
        assert first == second

    def test_case_roundtrip(self):
        source = """
        case $os {
          'a', 'b': { $x = 1 }
          default: { $x = 2 }
        }
        """
        first = parse_manifest(source)
        second = parse_manifest(print_manifest(first))
        assert first == second

    def test_selector_roundtrip(self):
        source = "$x = $y ? { 'a' => 1, default => 2 }"
        first = parse_manifest(source)
        second = parse_manifest(print_manifest(first))
        assert first == second

    @pytest.mark.parametrize(
        "source",
        [
            "File['/f'] { content => 'x', mode => '0644' }",
            "node 'web1', 'web2' { package{'nginx': } }\nnode default { }",
            "notice(join(['a', 'b'], ','))\n$n = size($list)",
            "$h = { 'a' => 1, 'b' => [2, 3] }",
            "if $a { $x = 1 } elsif $b { $x = 2 } elsif $c { $x = 3 } else { $x = 4 }",
            "User <| (title == 'a' or title == 'b') and shell != 'sh' |>",
            "Package['x'] -> File <| tag == 'conf' |> ~> Service['s']",
        ],
        ids=[
            "override",
            "nodes",
            "function-calls",
            "hash",
            "elsif",
            "nested-collector-query",
            "chain-through-collector",
        ],
    )
    def test_form_roundtrips(self, source):
        first = parse_manifest(source)
        second = parse_manifest(print_manifest(first))
        assert first == second
