"""Tests for manifest evaluation: scoping, defines, classes,
collectors, stages, dependency edges, and graph construction."""

import pytest

from repro.digraph import find_cycle
from repro.errors import DependencyCycleError, PuppetEvalError
from repro.puppet import compile_catalog, evaluate_manifest
from repro.puppet.values import RefValue


def graph_of(source, **kwargs):
    catalog = evaluate_manifest(source, **kwargs)
    return catalog.build_graph()


class TestBasicResources:
    def test_single_resource(self):
        catalog = evaluate_manifest("package{'vim': ensure => present }")
        entry = catalog.get("package", "vim")
        assert entry is not None
        assert entry.resource.get_str("ensure") == "present"

    def test_multiple_titles(self):
        catalog = evaluate_manifest(
            "package{['m4', 'make']: ensure => present }"
        )
        assert catalog.has("package", "m4")
        assert catalog.has("package", "make")

    def test_duplicate_resource_rejected(self):
        with pytest.raises(PuppetEvalError, match="duplicate"):
            evaluate_manifest(
                "package{'vim': } package{'vim': ensure => present }"
            )

    def test_paper_intro_manifest(self):
        """The three-resource manifest from §1."""
        catalog = evaluate_manifest(
            """
            package{'vim': ensure => present }
            file{'/home/carol/.vimrc': content => 'syntax on' }
            user{'carol': ensure => present, managehome => true }
            """
        )
        assert len(catalog.primitive_resources()) == 3


class TestVariablesAndInterpolation:
    def test_assignment_and_use(self):
        catalog = evaluate_manifest(
            """
            $content = 'hello'
            file{'/motd': content => $content }
            """
        )
        assert catalog.get("file", "/motd").resource.get_str("content") == (
            "hello"
        )

    def test_interpolation(self):
        catalog = evaluate_manifest(
            """
            $user = 'carol'
            file{"/home/${user}/.vimrc": content => "syntax on" }
            """
        )
        assert catalog.has("file", "/home/carol/.vimrc")

    def test_dollar_var_form(self):
        catalog = evaluate_manifest(
            """
            $name = 'web'
            file{"/etc/$name.conf": content => 'x' }
            """
        )
        assert catalog.has("file", "/etc/web.conf")

    def test_reassignment_rejected(self):
        with pytest.raises(PuppetEvalError, match="reassign"):
            evaluate_manifest("$x = 1 $x = 2")

    def test_facts_available(self):
        catalog = evaluate_manifest(
            """
            if $osfamily == 'Debian' {
              package{'apt-tools': ensure => present }
            }
            """
        )
        assert catalog.has("package", "apt-tools")

    def test_custom_facts(self):
        catalog = evaluate_manifest(
            "file{\"/etc/$color\": content => 'x' }",
            facts={"color": "blue"},
        )
        assert catalog.has("file", "/etc/blue")

    def test_undefined_variable_interpolates_empty(self):
        catalog = evaluate_manifest('file{"/etc/${nope}conf": content => "x"}')
        assert catalog.has("file", "/etc/conf")


class TestDefines:
    SOURCE = """
    define myuser() {
      user {"$title":
        ensure => present,
        managehome => true
      }
      file {"/home/${title}/.vimrc":
        content => "syntax on"
      }
      User["$title"] -> File["/home/${title}/.vimrc"]
    }
    myuser {"alice": }
    myuser {"carol": }
    """

    def test_paper_fig2(self):
        catalog = evaluate_manifest(self.SOURCE)
        assert catalog.has("user", "alice")
        assert catalog.has("user", "carol")
        assert catalog.has("file", "/home/alice/.vimrc")
        graph = catalog.build_graph()
        assert graph.has_edge("User['alice']", "File['/home/alice/.vimrc']")
        assert graph.has_edge("User['carol']", "File['/home/carol/.vimrc']")

    def test_define_params_with_defaults(self):
        catalog = evaluate_manifest(
            """
            define tool($ensure = 'present') {
              package{"$title": ensure => $ensure }
            }
            tool{'vim': }
            tool{'emacs': ensure => 'absent' }
            """
        )
        assert catalog.get("package", "vim").resource.get_str("ensure") == (
            "present"
        )
        assert catalog.get("package", "emacs").resource.get_str("ensure") == (
            "absent"
        )

    def test_missing_required_param(self):
        with pytest.raises(PuppetEvalError, match="missing required"):
            evaluate_manifest(
                "define t($x) { package{\"$title\": } } t{'a': }"
            )

    def test_unknown_param_rejected(self):
        with pytest.raises(PuppetEvalError, match="unknown parameter"):
            evaluate_manifest(
                "define t() { package{\"$title\": } } t{'a': bogus => 1 }"
            )

    def test_dependency_on_define_instance_expands(self):
        """An edge to a define instance orders against its contents."""
        catalog = evaluate_manifest(
            """
            define site() {
              file{"/srv/$title": ensure => directory }
            }
            site{'blog': }
            package{'nginx': ensure => present }
            Package['nginx'] -> Site['blog']
            """
        )
        graph = catalog.build_graph()
        assert graph.has_edge("Package['nginx']", "File['/srv/blog']")


class TestClasses:
    def test_include_idempotent(self):
        catalog = evaluate_manifest(
            """
            class base { package{'curl': ensure => present } }
            include base
            include base
            """
        )
        assert catalog.has("package", "curl")

    def test_class_params(self):
        catalog = evaluate_manifest(
            """
            class web($port = 80) {
              file{'/etc/port': content => "$port" }
            }
            class { 'web': port => 8080 }
            """
        )
        assert catalog.get("file", "/etc/port").resource.get_str(
            "content"
        ) == "8080"

    def test_class_scope_access(self):
        catalog = evaluate_manifest(
            """
            class settings { $docroot = '/var/www' }
            include settings
            file{"${settings::docroot}/index.html": content => 'hi' }
            """
        )
        assert catalog.has("file", "/var/www/index.html")

    def test_inheritance(self):
        catalog = evaluate_manifest(
            """
            class base { $dir = '/srv' }
            class app inherits base {
              file{"$dir/app": ensure => directory }
            }
            include app
            """
        )
        assert catalog.has("file", "/srv/app")

    def test_class_dependency_expands_to_members(self):
        catalog = evaluate_manifest(
            """
            class a { package{'pa': ensure => present } }
            class b { package{'pb': ensure => present } }
            include a
            include b
            Class['a'] -> Class['b']
            """
        )
        graph = catalog.build_graph()
        assert graph.has_edge("Package['pa']", "Package['pb']")

    def test_unknown_class(self):
        with pytest.raises(PuppetEvalError, match="unknown class"):
            evaluate_manifest("include nothere")


class TestEdges:
    def test_chain_arrow(self):
        graph = graph_of(
            """
            package{'a': } package{'b': }
            Package['a'] -> Package['b']
            """
        )
        assert graph.has_edge("Package['a']", "Package['b']")

    def test_require_metaparam(self):
        graph = graph_of(
            """
            package{'a': }
            file{'/f': content => 'x', require => Package['a'] }
            """
        )
        assert graph.has_edge("Package['a']", "File['/f']")

    def test_before_metaparam(self):
        graph = graph_of(
            """
            package{'a': before => File['/f'] }
            file{'/f': content => 'x' }
            """
        )
        assert graph.has_edge("Package['a']", "File['/f']")

    def test_notify_subscribe(self):
        graph = graph_of(
            """
            file{'/conf': content => 'x', notify => Service['svc'] }
            service{'svc': ensure => running }
            service{'svc2': ensure => running, subscribe => File['/conf'] }
            """
        )
        assert graph.has_edge("File['/conf']", "Service['svc']")
        assert graph.has_edge("File['/conf']", "Service['svc2']")

    def test_require_array(self):
        graph = graph_of(
            """
            package{'a': } package{'b': }
            file{'/f': content => 'x', require => [Package['a'], Package['b']] }
            """
        )
        assert graph.has_edge("Package['a']", "File['/f']")
        assert graph.has_edge("Package['b']", "File['/f']")

    def test_cycle_detected(self):
        """The Fig. 3b composition failure: cpp and ocaml modules with
        contradictory false dependencies."""
        with pytest.raises(DependencyCycleError):
            graph_of(
                """
                define cpp() {
                  package{'m4': ensure => present }
                  package{'make': ensure => present }
                  Package['m4'] -> Package['make']
                }
                define ocaml() {
                  package{'ocaml': ensure => present }
                  Package['make'] -> Package['m4']
                }
                cpp{'dev': }
                ocaml{'dev2': }
                """
            )

    def test_file_autorequire_parent(self):
        graph = graph_of(
            """
            file{'/srv': ensure => directory }
            file{'/srv/app': ensure => directory }
            """
        )
        assert graph.has_edge("File['/srv']", "File['/srv/app']")

    def test_undeclared_reference(self):
        with pytest.raises(PuppetEvalError, match="undeclared"):
            graph_of("Package['ghost'] -> Package['ghost2']")


class TestVirtualAndCollectors:
    def test_virtual_not_in_graph(self):
        graph = graph_of("@user{'carol': ensure => present }")
        assert graph.number_of_nodes() == 0

    def test_collector_realizes(self):
        graph = graph_of(
            """
            @user{'carol': ensure => present }
            User <| |>
            """
        )
        assert "User['carol']" in graph.nodes

    def test_realize_function(self):
        graph = graph_of(
            """
            @user{'carol': ensure => present }
            realize(User['carol'])
            """
        )
        assert "User['carol']" in graph.nodes

    def test_collector_query_filters(self):
        catalog = evaluate_manifest(
            """
            @user{'carol': ensure => present, groups => 'admin' }
            @user{'dave': ensure => present, groups => 'dev' }
            User <| groups == 'admin' |>
            """
        )
        assert not catalog.get("user", "carol").virtual
        assert catalog.get("user", "dave").virtual

    def test_paper_collector_override(self):
        """§3.1: collectors update attributes non-modularly."""
        catalog = evaluate_manifest(
            """
            file{'/home/carol/notes': content => 'x', owner => 'carol' }
            file{'/home/dave/notes': content => 'y', owner => 'dave' }
            File <| owner == 'carol' |> { mode => 'go-rwx' }
            """
        )
        assert catalog.get("file", "/home/carol/notes").resource.get_str(
            "mode"
        ) == "go-rwx"
        assert catalog.get("file", "/home/dave/notes").resource.get_str(
            "mode"
        ) is None

    def test_collector_in_chain(self):
        graph = graph_of(
            """
            package{'pkg': }
            file{'/a.conf': content => 'x', tagged => 'conf' }
            file{'/b.conf': content => 'y', tagged => 'conf' }
            Package['pkg'] -> File <| tagged == 'conf' |>
            """
        )
        assert graph.has_edge("Package['pkg']", "File['/a.conf']")
        assert graph.has_edge("Package['pkg']", "File['/b.conf']")

    def test_exported_resources_rejected(self):
        with pytest.raises(PuppetEvalError, match="exported"):
            evaluate_manifest("@@user{'x': }")


class TestStages:
    def test_stage_ordering(self):
        graph = graph_of(
            """
            stage{'pre': before => Stage['main'] }
            class prep { package{'keyring': ensure => present } }
            class app { package{'server': ensure => present } }
            class { 'prep': stage => 'pre' }
            include app
            """
        )
        assert graph.has_edge("Package['keyring']", "Package['server']")

    def test_default_stage_is_main(self):
        catalog = evaluate_manifest(
            """
            class app { package{'x': ensure => present } }
            include app
            """
        )
        members = catalog.expand_ref(RefValue("stage", "main"))
        assert [str(m.ref) for m in members] == ["Package['x']"]


class TestControlFlowAndDefaults:
    def test_case_selects_package(self):
        catalog = evaluate_manifest(
            """
            case $operatingsystem {
              'Ubuntu', 'Debian': { $web = 'apache2' }
              default: { $web = 'httpd' }
            }
            package{$web: ensure => present }
            """
        )
        assert catalog.has("package", "apache2")

    def test_selector(self):
        catalog = evaluate_manifest(
            """
            $pkg = $osfamily ? { 'Debian' => 'apache2', default => 'httpd' }
            package{$pkg: }
            """
        )
        assert catalog.has("package", "apache2")

    def test_resource_defaults_applied(self):
        catalog = evaluate_manifest(
            """
            File { owner => 'root' }
            file{'/f': content => 'x' }
            file{'/g': content => 'y', owner => 'carol' }
            """
        )
        assert catalog.get("file", "/f").resource.get_str("owner") == "root"
        assert catalog.get("file", "/g").resource.get_str("owner") == "carol"

    def test_override_statement(self):
        catalog = evaluate_manifest(
            """
            file{'/f': content => 'x' }
            File['/f'] { content => 'overridden' }
            """
        )
        assert catalog.get("file", "/f").resource.get_str("content") == (
            "overridden"
        )

    def test_fail_function(self):
        with pytest.raises(PuppetEvalError, match="fail"):
            evaluate_manifest("fail('boom')")

    def test_notice_collected(self):
        from repro.puppet import Evaluator, parse_manifest

        ev = Evaluator()
        ev.evaluate(parse_manifest("notice('hello')"))
        assert ev.messages == ["notice: hello"]

    def test_defined_guard_pattern(self):
        """The footnote-4 idiom guarding shared resources."""
        catalog = evaluate_manifest(
            """
            if !defined(Package['make']) {
              package{'make': ensure => present }
            }
            if !defined(Package['make']) {
              package{'make': ensure => present }
            }
            """
        )
        assert catalog.has("package", "make")

    def test_node_block(self):
        catalog = evaluate_manifest(
            """
            node 'web1' { package{'nginx': } }
            node default { package{'vim': } }
            """,
            node_name="web1",
        )
        assert catalog.has("package", "nginx")
        assert not catalog.has("package", "vim")

    def test_node_default_fallback(self):
        catalog = evaluate_manifest(
            """
            node 'web1' { package{'nginx': } }
            node default { package{'vim': } }
            """,
            node_name="db9",
        )
        assert catalog.has("package", "vim")


class TestEndToEnd:
    def test_compile_catalog(self):
        catalog = evaluate_manifest(
            """
            package{'ntp': ensure => present }
            file{'/etc/ntp.conf': content => 'pool example', require => Package['ntp'] }
            service{'ntp-svc': ensure => running, subscribe => File['/etc/ntp.conf'] }
            """
        )
        graph, programs = compile_catalog(catalog)
        assert set(graph.nodes) == set(programs)
        assert graph.has_edge("Package['ntp']", "File['/etc/ntp.conf']")
        assert not find_cycle(graph)


def notices(source):
    """The ``notice`` lines a manifest emits, in order."""
    from repro.puppet import Evaluator, parse_manifest

    ev = Evaluator()
    ev.evaluate(parse_manifest(source))
    return [m.removeprefix("notice: ") for m in ev.messages]


class TestExpressionSemantics:
    def test_case_falls_back_to_default(self):
        catalog = evaluate_manifest(
            """
            case $operatingsystem {
              'Gentoo': { $web = 'www-servers/apache' }
              default: { $web = 'httpd' }
              'Arch': { $web = 'apache' }
            }
            package{$web: }
            """
        )
        assert catalog.has("package", "httpd")

    def test_case_without_match_or_default_runs_nothing(self):
        catalog = evaluate_manifest(
            """
            case 'plan9' { 'Ubuntu': { package{'apache2': } } }
            package{'vim': }
            """
        )
        assert [str(e.ref) for e in catalog.primitive_resources()] == [
            "Package['vim']"
        ]

    def test_selector_default_may_come_first(self):
        assert notices(
            "notice('Gentoo' ? { default => 'httpd', 'Debian' => 'apache2' })"
        ) == ["httpd"]

    def test_selector_without_match_or_default_is_an_error(self):
        with pytest.raises(PuppetEvalError, match="no default"):
            evaluate_manifest("$x = 'b' ? { 'a' => 1 }")

    def test_boolean_connectives_follow_puppet3_truthiness(self):
        assert notices(
            """
            notice('' or 'x')
            notice('x' and '')
            notice(undef or false)
            notice('a' and 'b')
            """
        ) == ["true", "false", "false", "true"]

    def test_inequality(self):
        assert notices("notice('a' != 'A')\nnotice('a' != 'b')") == [
            "false",
            "true",
        ]

    def test_in_searches_strings_arrays_and_hash_keys(self):
        assert notices(
            """
            notice('NTP' in 'the ntp daemon')
            notice('b' in ['a', 'b'])
            notice('k' in {'k' => 1})
            notice('v' in {'k' => 'v'})
            """
        ) == ["true", "true", "true", "false"]

    def test_in_rejects_a_number(self):
        with pytest.raises(PuppetEvalError, match="'in' needs"):
            evaluate_manifest("$x = 'a' in 3")

    def test_arithmetic(self):
        assert notices(
            "notice(7 - 10)\nnotice('6' * 7)\nnotice(7 % 3)\nnotice(9 / 3)"
        ) == ["-3", "42", "1", "3"]

    def test_modulo_by_zero_is_an_error(self):
        with pytest.raises(PuppetEvalError, match="modulo by zero"):
            evaluate_manifest("$x = 5 % 0")

    def test_boolean_is_not_a_number(self):
        with pytest.raises(PuppetEvalError, match="boolean as a number"):
            evaluate_manifest("$x = true + 1")

    def test_non_numeric_string_is_not_a_number(self):
        with pytest.raises(PuppetEvalError, match="not a number: 'ten'"):
            evaluate_manifest("$x = 'ten' < 11")

    def test_array_is_not_a_number(self):
        with pytest.raises(PuppetEvalError, match="not a number"):
            evaluate_manifest("$x = -[1]")


class TestFunctions:
    def test_split_join_and_size(self):
        assert notices(
            """
            $parts = split('a:b:c', ':')
            notice(join($parts, ','))
            notice(size($parts))
            notice(length('four'))
            """
        ) == ["a,b,c", "3", "4"]

    def test_join_needs_an_array(self):
        with pytest.raises(PuppetEvalError, match="join\\(\\) expects an array"):
            evaluate_manifest("$x = join('abc', ',')")

    def test_size_needs_a_collection(self):
        with pytest.raises(PuppetEvalError, match="size\\(\\) expects a collection"):
            evaluate_manifest("$x = size(3)")

    def test_wrong_arity(self):
        with pytest.raises(PuppetEvalError, match="expects 2 arguments, got 1"):
            evaluate_manifest("$x = split('a:b')")

    def test_templates_are_refused(self):
        with pytest.raises(PuppetEvalError, match="embedded Ruby"):
            evaluate_manifest("file{'/f': content => template('m/f.erb') }")

    def test_unknown_function(self):
        with pytest.raises(PuppetEvalError, match="unknown function 'sha1'"):
            evaluate_manifest("$x = sha1('a')")

    def test_defined_by_name_sees_classes_and_defines(self):
        assert notices(
            """
            class web { }
            define site() { }
            notice(defined('web'))
            notice(defined('site'))
            notice(defined('db'))
            """
        ) == ["true", "true", "false"]

    def test_defined_class_reference_means_included(self):
        assert notices(
            """
            class web { }
            notice(defined(Class['web']))
            include web
            notice(defined(Class['web']))
            """
        ) == ["false", "true"]

    def test_realize_rejects_a_string(self):
        with pytest.raises(PuppetEvalError, match="realize expects resource"):
            evaluate_manifest("realize('vim')")


class TestDeclarationErrors:
    def test_duplicate_define(self):
        with pytest.raises(PuppetEvalError, match="duplicate definition: define"):
            evaluate_manifest("define site() { }\ndefine site() { }")

    def test_duplicate_class(self):
        with pytest.raises(PuppetEvalError, match="duplicate definition: class"):
            evaluate_manifest("class web { }\nclass web { }")

    def test_parameterized_class_declared_twice(self):
        with pytest.raises(PuppetEvalError, match="with parameters"):
            evaluate_manifest(
                """
                class web($port = 80) { }
                include web
                class {'web': port => 8080 }
                """
            )

    def test_override_of_undeclared_resource(self):
        with pytest.raises(PuppetEvalError, match="override of undeclared"):
            evaluate_manifest("File['/f'] { content => 'x' }")

    def test_realize_of_undeclared_resource(self):
        with pytest.raises(PuppetEvalError, match="realize of undeclared"):
            evaluate_manifest("realize(Package['vim'])")
