"""Tests for catalog internals: containment, reference expansion,
nested defines, and graph construction edge cases."""

import pytest

from repro.errors import PuppetEvalError
from repro.puppet import evaluate_manifest
from repro.puppet.values import RefValue


class TestContainment:
    def test_nested_define_membership_is_transitive(self):
        catalog = evaluate_manifest(
            """
            define inner() {
              file{"/srv/${title}": content => 'x' }
            }
            define outer() {
              inner{"${title}-core": }
              package{"${title}-pkg": }
            }
            outer{'app': }
            """
        )
        members = catalog.expand_ref(RefValue("outer", "app"))
        names = sorted(str(m.ref) for m in members)
        assert names == ["File['/srv/app-core']", "Package['app-pkg']"]

    def test_dependency_through_nested_define(self):
        catalog = evaluate_manifest(
            """
            define inner() { file{"/srv/${title}": content => 'x' } }
            define outer() { inner{"${title}-core": } }
            outer{'app': }
            package{'base': }
            Package['base'] -> Outer['app']
            """
        )
        graph = catalog.build_graph()
        assert graph.has_edge("Package['base']", "File['/srv/app-core']")

    def test_class_inside_class_membership(self):
        catalog = evaluate_manifest(
            """
            class inner { package{'deep': } }
            class outer { include inner package{'shallow': } }
            include outer
            """
        )
        members = catalog.expand_ref(RefValue("class", "outer"))
        names = {str(m.ref) for m in members}
        # The included class itself is contained where declared.
        assert "Package['shallow']" in names
        assert "Package['deep']" in names

    def test_define_instance_not_a_graph_node(self):
        catalog = evaluate_manifest(
            """
            define wrapper() { package{"${title}-p": } }
            wrapper{'x': }
            """
        )
        graph = catalog.build_graph()
        assert "Wrapper['x']" not in graph.nodes
        assert "Package['x-p']" in graph.nodes


class TestReferenceExpansion:
    def test_primitive_ref_is_itself(self):
        catalog = evaluate_manifest("package{'p': }")
        members = catalog.expand_ref(RefValue("package", "p"))
        assert [str(m.ref) for m in members] == ["Package['p']"]

    def test_undeclared_ref_raises(self):
        catalog = evaluate_manifest("package{'p': }")
        with pytest.raises(PuppetEvalError, match="undeclared"):
            catalog.expand_ref(RefValue("package", "ghost"))

    def test_stage_ref_collects_class_members(self):
        catalog = evaluate_manifest(
            """
            stage{'pre': before => Stage['main'] }
            class early { package{'keyring': } }
            class { 'early': stage => 'pre' }
            class normal { package{'app': } }
            include normal
            """
        )
        pre = catalog.expand_ref(RefValue("stage", "pre"))
        main = catalog.expand_ref(RefValue("stage", "main"))
        assert [str(m.ref) for m in pre] == ["Package['keyring']"]
        assert [str(m.ref) for m in main] == ["Package['app']"]

    def test_empty_stage_expands_empty(self):
        catalog = evaluate_manifest(
            "stage{'pre': before => Stage['main'] } package{'p': }"
        )
        # p belongs to no class, hence to no stage.
        assert catalog.expand_ref(RefValue("stage", "pre")) == []


class TestGraphConstruction:
    def test_self_edge_ignored(self):
        catalog = evaluate_manifest(
            """
            class app { package{'p': } }
            include app
            Class['app'] -> Class['app']
            """
        )
        graph = catalog.build_graph()
        assert all(u != v for u, v in graph.edges)

    def test_virtual_excluded_from_container_expansion(self):
        catalog = evaluate_manifest(
            """
            class app {
              @user{'ghost': }
              package{'real': }
            }
            include app
            package{'other': }
            Class['app'] -> Package['other']
            """
        )
        graph = catalog.build_graph()
        assert graph.has_edge("Package['real']", "Package['other']")
        assert "User['ghost']" not in graph.nodes

    def test_edge_between_members_of_same_container_kept(self):
        catalog = evaluate_manifest(
            """
            class app {
              package{'a': }
              package{'b': require => Package['a'] }
            }
            include app
            """
        )
        graph = catalog.build_graph()
        assert graph.has_edge("Package['a']", "Package['b']")

    def test_cycle_error_lists_nodes(self):
        from repro.errors import DependencyCycleError

        catalog = evaluate_manifest(
            """
            package{'a': } package{'b': }
            Package['a'] -> Package['b']
            Package['b'] -> Package['a']
            """
        )
        with pytest.raises(DependencyCycleError) as exc:
            catalog.build_graph()
        assert len(exc.value.cycle) >= 2

    def test_graph_nodes_carry_entries(self):
        catalog = evaluate_manifest("package{'p': ensure => present }")
        graph = catalog.build_graph()
        entry = graph.nodes["Package['p']"]["entry"]
        assert entry.resource.get_str("ensure") == "present"
