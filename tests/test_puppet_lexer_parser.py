"""Tests for the Puppet lexer and parser."""

import pytest

from repro.errors import PuppetSyntaxError
from repro.puppet import ast_nodes as ast
from repro.puppet.lexer import tokenize
from repro.puppet.parser import parse_manifest
from repro.puppet.tokens import TokenKind as T


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


class TestLexer:
    def test_simple_resource(self):
        got = kinds("package{'vim': ensure => present }")
        assert got == [
            T.NAME,
            T.LBRACE,
            T.STRING,
            T.COLON,
            T.NAME,
            T.FARROW,
            T.NAME,
            T.RBRACE,
        ]

    def test_typeref_vs_name(self):
        assert kinds("File") == [T.TYPEREF]
        assert kinds("file") == [T.NAME]
        assert kinds("Nginx::Config") == [T.TYPEREF]
        assert kinds("nginx::config") == [T.NAME]

    def test_variables(self):
        toks = tokenize("$x $::top $nginx::port")
        assert [t.text for t in toks[:-1]] == ["x", "::top", "nginx::port"]
        assert all(t.kind is T.VARIABLE for t in toks[:-1])

    def test_arrows(self):
        assert kinds("-> ~> <- <~") == [
            T.ARROW_RIGHT,
            T.NOTIFY_RIGHT,
            T.ARROW_LEFT,
            T.NOTIFY_LEFT,
        ]

    def test_collector_brackets(self):
        assert kinds("<| |>") == [T.COLLECT_OPEN, T.COLLECT_CLOSE]

    def test_comparison_ops(self):
        assert kinds("== != <= >= < >") == [
            T.EQ,
            T.NEQ,
            T.LTEQ,
            T.GTEQ,
            T.LT,
            T.GT,
        ]

    def test_comments_skipped(self):
        assert kinds("# line comment\nfoo /* block */ bar") == [
            T.NAME,
            T.NAME,
        ]

    def test_string_escapes(self):
        toks = tokenize(r"'it\'s' ")
        assert toks[0].text == "it's"

    def test_dq_string_keeps_payload(self):
        toks = tokenize('"hello $name"')
        assert toks[0].kind is T.DQSTRING
        assert toks[0].text == "hello $name"

    def test_numbers(self):
        toks = tokenize("42 3.14")
        assert toks[0].text == "42"
        assert toks[1].text == "3.14"

    def test_keywords(self):
        assert kinds("define class if else case node") == [
            T.DEFINE,
            T.CLASS,
            T.IF,
            T.ELSE,
            T.CASE,
            T.NODE,
        ]

    def test_unterminated_string(self):
        with pytest.raises(PuppetSyntaxError):
            tokenize("'oops")

    def test_position_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_leading_double_colon_is_two_colons(self):
        # A word cannot start with "::", so top-scope references such
        # as ::apache are not supported: the colons lex on their own.
        assert kinds("::apache") == [T.COLON, T.COLON, T.NAME]
        assert kinds("::Foo") == [T.COLON, T.COLON, T.TYPEREF]
        with pytest.raises(
            PuppetSyntaxError, match="expected class name to include"
        ):
            parse_manifest("include ::apache")


class TestParserResources:
    def test_basic_resource(self):
        m = parse_manifest("package{'vim': ensure => present }")
        decl = m.statements[0]
        assert isinstance(decl, ast.ResourceDecl)
        assert decl.rtype == "package"
        assert decl.bodies[0].title == ast.Literal("vim")
        assert decl.bodies[0].attributes[0].name == "ensure"

    def test_multiple_bodies(self):
        m = parse_manifest(
            "file{'/a': ensure => present; '/b': ensure => absent }"
        )
        decl = m.statements[0]
        assert len(decl.bodies) == 2

    def test_trailing_comma(self):
        m = parse_manifest("file{'/a': content => 'x', }")
        assert len(m.statements) == 1

    def test_array_title(self):
        m = parse_manifest("package{['m4', 'make']: ensure => present }")
        decl = m.statements[0]
        assert isinstance(decl.bodies[0].title, ast.ArrayLit)

    def test_virtual_resource(self):
        m = parse_manifest("@user{'carol': ensure => present }")
        assert m.statements[0].virtual

    def test_resource_default(self):
        m = parse_manifest("File { owner => 'root' }")
        stmt = m.statements[0]
        assert isinstance(stmt, ast.ResourceDefault)
        assert stmt.rtype == "File"

    def test_resource_override(self):
        m = parse_manifest("File['/etc/motd'] { mode => '0644' }")
        stmt = m.statements[0]
        assert isinstance(stmt, ast.ResourceOverride)

    def test_class_resource_style(self):
        m = parse_manifest("class { 'nginx': port => 80 }")
        stmt = m.statements[0]
        assert isinstance(stmt, ast.ResourceDecl)
        assert stmt.rtype == "class"


class TestParserDefinitions:
    def test_define(self):
        m = parse_manifest(
            """
            define myuser($uid, $shell = '/bin/bash') {
              user{"$title": ensure => present }
            }
            """
        )
        stmt = m.statements[0]
        assert isinstance(stmt, ast.DefineDecl)
        assert stmt.name == "myuser"
        assert stmt.params[0] == ("uid", None)
        assert stmt.params[1][0] == "shell"

    def test_class_with_inherits(self):
        m = parse_manifest("class web inherits base { }")
        stmt = m.statements[0]
        assert stmt.parent == "base"

    def test_node_blocks(self):
        m = parse_manifest("node default { } node 'db1', 'db2' { }")
        assert m.statements[0].names == ("default",)
        assert m.statements[1].names == ("db1", "db2")

    def test_include(self):
        m = parse_manifest("include nginx, postgres")
        assert m.statements[0].names == ("nginx", "postgres")


class TestParserControlFlow:
    def test_if_elsif_else(self):
        m = parse_manifest(
            """
            if $osfamily == 'Debian' { include apt }
            elsif $osfamily == 'RedHat' { include yum }
            else { fail('unsupported') }
            """
        )
        stmt = m.statements[0]
        assert isinstance(stmt, ast.IfStatement)
        assert len(stmt.branches) == 3
        assert stmt.branches[2][0] is None

    def test_unless(self):
        m = parse_manifest("unless $ok { fail('no') }")
        stmt = m.statements[0]
        assert isinstance(stmt, ast.IfStatement)
        cond = stmt.branches[0][0]
        assert isinstance(cond, ast.UnaryOp) and cond.op == "!"

    def test_case(self):
        m = parse_manifest(
            """
            case $os {
              'ubuntu', 'debian': { $pkg = 'apache2' }
              default: { $pkg = 'httpd' }
            }
            """
        )
        stmt = m.statements[0]
        assert isinstance(stmt, ast.CaseStatement)
        assert len(stmt.cases) == 2
        assert stmt.cases[1][0] == (None,)

    def test_selector(self):
        m = parse_manifest(
            "$pkg = $os ? { 'ubuntu' => 'apache2', default => 'httpd' }"
        )
        stmt = m.statements[0]
        assert isinstance(stmt.value, ast.Selector)


class TestParserChainsAndCollectors:
    def test_simple_chain(self):
        m = parse_manifest("Package['apache2'] -> File['/etc/apache2.conf']")
        stmt = m.statements[0]
        assert isinstance(stmt, ast.ChainStatement)
        assert stmt.arrows == ("->",)

    def test_left_arrow_flipped(self):
        m = parse_manifest("File['/f'] <- Package['p']")
        stmt = m.statements[0]
        assert stmt.operands[0].rtype == "Package"
        assert stmt.operands[1].rtype == "File"

    def test_long_chain(self):
        m = parse_manifest("Package['a'] -> Package['b'] ~> Service['c']")
        stmt = m.statements[0]
        assert stmt.arrows == ("->", "~>")

    def test_collector_bare(self):
        m = parse_manifest("User <| |>")
        stmt = m.statements[0]
        assert isinstance(stmt, ast.Collector)
        assert stmt.query is None

    def test_collector_with_query_and_override(self):
        m = parse_manifest(
            "File <| owner == 'carol' |> { mode => 'go-rwx' }"
        )
        stmt = m.statements[0]
        assert stmt.query.op == "=="
        assert stmt.query.attr == "owner"
        assert stmt.overrides[0].name == "mode"

    def test_collector_compound_query(self):
        m = parse_manifest("User <| title == 'a' or title == 'b' |>")
        assert m.statements[0].query.op == "or"

    def test_chain_with_collector(self):
        m = parse_manifest("Package['x'] -> File <| tagged == 'conf' |>")
        stmt = m.statements[0]
        assert isinstance(stmt.operands[1], ast.Collector)


class TestParserExpressions:
    def test_precedence(self):
        m = parse_manifest("$x = 1 + 2 * 3")
        value = m.statements[0].value
        assert value.op == "+"
        assert value.right.op == "*"

    def test_boolean_ops(self):
        m = parse_manifest("$x = $a and $b or !$c")
        assert m.statements[0].value.op == "or"

    def test_array_and_hash(self):
        m = parse_manifest("$x = [1, 'two', $three]")
        assert isinstance(m.statements[0].value, ast.ArrayLit)
        m = parse_manifest("$x = { 'a' => 1, 'b' => 2 }")
        assert isinstance(m.statements[0].value, ast.HashLit)

    def test_function_call_expr(self):
        m = parse_manifest("$x = defined(Package['vim'])")
        value = m.statements[0].value
        assert isinstance(value, ast.FunctionCall)
        assert value.name == "defined"

    def test_in_operator(self):
        m = parse_manifest("$x = 'a' in $list")
        assert m.statements[0].value.op == "in"


class TestParserErrors:
    def test_missing_colon(self):
        with pytest.raises(PuppetSyntaxError):
            parse_manifest("file{'/a' content => 'x' }")

    def test_dangling_ref(self):
        with pytest.raises(PuppetSyntaxError):
            parse_manifest("File['/a']")

    def test_unclosed_brace(self):
        with pytest.raises(PuppetSyntaxError):
            parse_manifest("file{'/a': content => 'x'")

    def test_error_has_position(self):
        with pytest.raises(PuppetSyntaxError) as exc:
            parse_manifest("file{'/a' content }")
        assert exc.value.line >= 1


class TestLexerEdges:
    def test_match_operators(self):
        assert kinds("$a =~ $b !~ $c") == [
            T.VARIABLE,
            T.MATCH,
            T.VARIABLE,
            T.NOMATCH,
            T.VARIABLE,
        ]

    def test_block_comment_is_trivia(self):
        assert kinds("/* a\n * b */ package") == [T.NAME]

    def test_unterminated_block_comment(self):
        with pytest.raises(PuppetSyntaxError, match="unterminated block comment"):
            tokenize("package /* never closed")

    def test_unterminated_string(self):
        with pytest.raises(PuppetSyntaxError, match="unterminated string"):
            tokenize('$x = "no end')

    def test_empty_variable_name(self):
        with pytest.raises(PuppetSyntaxError, match="empty variable name"):
            tokenize("$ = 1")

    def test_unexpected_character_reports_its_line(self):
        with pytest.raises(PuppetSyntaxError, match="unexpected character '`'") as exc:
            tokenize("package{'vim': }\n`")
        assert exc.value.line == 2


class TestParserMoreForms:
    def test_default_is_a_value(self):
        m = parse_manifest("$x = default")
        assert m.statements[0].value == ast.Literal("default")

    def test_reference_with_several_titles(self):
        m = parse_manifest("$x = Package['a', 'b']")
        assert m.statements[0].value == ast.ResourceRefExpr(
            "Package", (ast.Literal("a"), ast.Literal("b"))
        )

    def test_chain_operand_with_several_titles(self):
        m = parse_manifest("Package['a', 'b'] -> File['/f']")
        assert len(m.statements[0].operands[0].titles) == 2

    def test_collector_parenthesized_query(self):
        m = parse_manifest(
            "User <| (title == 'a' or title == 'b') and shell != 'sh' |>"
        )
        query = m.statements[0].query
        assert query.op == "and"
        assert query.left.op == "or"
        assert (query.right.op, query.right.attr) == ("!=", "shell")

    def test_node_list_with_default(self):
        m = parse_manifest("node 'web1', default { }")
        assert m.statements[0].names == ("web1", "default")


class TestParserMoreErrors:
    def test_unexpected_end_inside_block(self):
        with pytest.raises(PuppetSyntaxError, match="unexpected end of input"):
            parse_manifest("class web { package{'vim': }")

    def test_stray_bareword(self):
        with pytest.raises(PuppetSyntaxError, match="unexpected bareword 'ensure'"):
            parse_manifest("ensure")

    def test_stray_token(self):
        with pytest.raises(PuppetSyntaxError, match="unexpected token"):
            parse_manifest("=> 'x'")

    def test_node_without_name(self):
        with pytest.raises(PuppetSyntaxError, match="expected node name"):
            parse_manifest("node { }")

    def test_include_without_class(self):
        with pytest.raises(PuppetSyntaxError, match="expected class name"):
            parse_manifest("include 3")

    def test_chain_operand_needs_title_or_collector(self):
        with pytest.raises(PuppetSyntaxError, match="after type reference"):
            parse_manifest("Package['a'] -> Service")

    def test_collector_needs_attribute_name(self):
        with pytest.raises(PuppetSyntaxError, match="expected attribute name"):
            parse_manifest("User <| 'carol' == title |>")

    def test_collector_needs_equality_operator(self):
        with pytest.raises(PuppetSyntaxError, match="expected == or !="):
            parse_manifest("User <| uid > 100 |>")
