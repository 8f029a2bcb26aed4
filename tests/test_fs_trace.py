"""Tests for the execution tracer."""

from repro.fs import ERR, FileSystem, Path, cp, creat, ite, mkdir, none_, rm, seq
from repro.fs.trace import explain_order, trace_expr


class TestTraceExpr:
    def test_successful_trace(self):
        e = seq(mkdir("/a"), creat("/a/f", "x"))
        trace = trace_expr(e, FileSystem.empty())
        assert trace.ok
        assert [s.ok for s in trace.steps] == [True, True]
        assert trace.final.is_file(Path.of("/a/f"))

    def test_failure_recorded_with_reason(self):
        trace = trace_expr(creat("/a/f", "x"), FileSystem.empty())
        assert not trace.ok
        assert trace.steps[-1].ok is False
        assert "parent /a is not a directory" in trace.steps[-1].detail

    def test_branch_recorded(self):
        e = ite(none_(Path.of("/a")), mkdir("/a"), rm("/a"))
        trace = trace_expr(e, FileSystem.empty())
        assert "-> then" in trace.steps[0].description
        state = FileSystem.from_dict({"/a": None})
        trace2 = trace_expr(e, state)
        assert "-> else" in trace2.steps[0].description

    def test_execution_stops_at_error(self):
        e = seq(rm("/missing"), mkdir("/never"))
        trace = trace_expr(e, FileSystem.empty())
        assert not trace.ok
        # The mkdir after the failure must not appear.
        assert all("never" not in s.description for s in trace.steps)

    def test_rm_failure_reasons(self):
        trace = trace_expr(rm("/x"), FileSystem.empty())
        assert "does not exist" in trace.steps[0].detail
        state = FileSystem.from_dict({"/d": None, "/d/f": "x"})
        trace2 = trace_expr(rm("/d"), state)
        assert "non-empty" in trace2.steps[0].detail

    def test_render(self):
        trace = trace_expr(mkdir("/a"), FileSystem.empty())
        text = trace.render()
        assert "[ok ] mkdir(/a)" in text
        assert "success" in text


class TestExplainOrder:
    def test_failing_order_narrative(self):
        """The Fig. 3a story as a narrative: file first fails."""
        from repro.resources import Resource, ResourceCompiler

        compiler = ResourceCompiler()
        programs = {
            "File[conf]": compiler.compile(
                Resource(
                    "file",
                    "/etc/apache2/sites-available/000-default.conf",
                    {"content": "site"},
                )
            ),
            "Package[apache2]": compiler.compile(
                Resource("package", "apache2", {})
            ),
        }
        text = explain_order(
            ["File[conf]", "Package[apache2]"],
            programs,
            FileSystem.empty(),
        )
        assert "File[conf] FAILED" in text
        assert "remaining resources not applied" in text
        good = explain_order(
            ["Package[apache2]", "File[conf]"],
            programs,
            FileSystem.empty(),
        )
        assert "all resources applied successfully" in good


class TestFailureReasons:
    def test_err_is_a_failed_step(self):
        trace = trace_expr(seq(mkdir("/a"), ERR, mkdir("/b")), FileSystem.empty())
        assert not trace.ok
        assert [(s.description, s.ok) for s in trace.steps][-1] == ("err", False)
        assert trace.final is None

    def test_creat_over_existing_path(self):
        state = FileSystem.from_dict({"/f": "old"})
        trace = trace_expr(creat("/f", "new"), state)
        assert trace.steps[0].detail == "/f already exists"

    def test_cp_from_missing_source(self):
        trace = trace_expr(cp("/src", "/dst"), FileSystem.empty())
        assert trace.steps[0].detail == "source /src is not a file"

    def test_cp_onto_existing_destination(self):
        state = FileSystem.from_dict({"/src": "x", "/dst": None})
        trace = trace_expr(cp("/src", "/dst"), state)
        assert trace.steps[0].detail == "destination /dst already exists"

    def test_cp_into_missing_directory(self):
        state = FileSystem.from_dict({"/src": "x"})
        trace = trace_expr(cp("/src", "/d/dst"), state)
        assert trace.steps[0].detail == "destination parent /d is not a directory"
