"""Evaluating Puppet manifests to resource catalogs (§3.1).

The evaluator performs the paper's compilation passes: user-defined
type substitution (defines expand to their constituent resources),
class inclusion with parameters and inheritance, stage assignment,
variable scoping and interpolation, conditionals, resource defaults,
virtual resources, and the deferred *global* passes — collectors and
overrides — that make separate compilation impossible (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PuppetEvalError
from repro.puppet import ast_nodes as ast
from repro.puppet.catalog import (
    Catalog,
    CatalogResource,
    collector_matches,
)
from repro.puppet.scope import Scope, ScopeStack
from repro.puppet.values import (
    RefValue,
    Value,
    interpolate,
    to_display,
    truthy,
    values_equal,
)
from repro.resources.base import METAPARAMETERS, Resource
from repro.resources.compiler import PLATFORMS

#: The facts of a node whose caller passes none: Ubuntu's OS facts
#: plus node facts no platform changes.  Passed facts override these.
DEFAULT_FACTS: Dict[str, Value] = {
    **PLATFORMS["ubuntu"][0],
    "kernel": "Linux",
    "architecture": "amd64",
    "hostname": "node1",
    "fqdn": "node1.example.com",
    "ipaddress": "192.168.1.10",
    "processorcount": 4,
}

_EDGE_METAPARAMS = ("before", "require", "notify", "subscribe")


@dataclass
class _DeferredCollector:
    node: ast.Collector
    scope: Scope


@dataclass
class _DeferredChain:
    operands: Tuple[object, ...]  # RefValue lists or _DeferredCollector
    arrows: Tuple[str, ...]
    line: int = 0
    col: int = 0


class Evaluator:
    """One-shot evaluator: construct, call :meth:`evaluate`."""

    def __init__(
        self,
        facts: Optional[Dict[str, Value]] = None,
        node_name: str = "default",
    ):
        self.scopes = ScopeStack()
        self.catalog = Catalog()
        self.defines: Dict[str, ast.DefineDecl] = {}
        self.classes: Dict[str, ast.ClassDecl] = {}
        self.nodes: List[ast.NodeDecl] = []
        self.included: set[str] = set()
        self.defaults: Dict[str, Dict[str, Value]] = {}
        self.messages: List[str] = []
        self.node_name = node_name
        self._container_stack: List[RefValue] = []
        self._collectors: List[_DeferredCollector] = []
        self._chains: List[_DeferredChain] = []
        self._overrides: List[Tuple[RefValue, Dict[str, Value]]] = []
        self._realized: List[RefValue] = []
        merged_facts = dict(DEFAULT_FACTS)
        if facts:
            merged_facts.update(facts)
        for name, value in merged_facts.items():
            self.scopes.top.define(name, value)

    # -- entry point ----------------------------------------------------------

    def evaluate(self, manifest: ast.Manifest) -> Catalog:
        self._hoist(manifest.statements)
        self._exec_block(manifest.statements)
        self._exec_node_block()
        self._apply_collectors()
        self._apply_overrides()
        self._apply_realize()
        self._apply_chains()
        return self.catalog

    # -- hoisting ---------------------------------------------------------------

    def _hoist(self, statements: Sequence[ast.Statement]) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.DefineDecl):
                if stmt.name in self.defines:
                    raise PuppetEvalError(
                        f"duplicate definition: define {stmt.name}"
                    )
                self.defines[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDecl):
                if stmt.name in self.classes:
                    raise PuppetEvalError(
                        f"duplicate definition: class {stmt.name}"
                    )
                self.classes[stmt.name] = stmt
                self._hoist(stmt.body)
            elif isinstance(stmt, ast.NodeDecl):
                self.nodes.append(stmt)
                self._hoist(stmt.body)

    # -- statement execution -------------------------------------------------------

    def _exec_block(self, statements: Sequence[ast.Statement]) -> None:
        for stmt in statements:
            self._exec(stmt)

    def _exec(self, stmt: ast.Statement) -> None:
        if isinstance(stmt, (ast.DefineDecl, ast.ClassDecl, ast.NodeDecl)):
            return  # hoisted
        if isinstance(stmt, ast.Assignment):
            self.scopes.current.define(stmt.name, self._eval(stmt.value))
            return
        if isinstance(stmt, ast.ResourceDecl):
            self._exec_resource_decl(stmt)
            return
        if isinstance(stmt, ast.ResourceDefault):
            bucket = self.defaults.setdefault(stmt.rtype.lower(), {})
            for attr in stmt.attributes:
                bucket[attr.name] = self._eval(attr.value)
            return
        if isinstance(stmt, ast.ResourceOverride):
            for title_expr in stmt.ref.titles:
                title = to_display(self._eval(title_expr))
                attrs = {
                    a.name: self._eval(a.value) for a in stmt.attributes
                }
                self._overrides.append(
                    (RefValue(stmt.ref.rtype.lower(), title), attrs)
                )
            return
        if isinstance(stmt, ast.IfStatement):
            for cond, body in stmt.branches:
                if cond is None or truthy(self._eval(cond)):
                    self._exec_block(body)
                    return
            return
        if isinstance(stmt, ast.CaseStatement):
            subject = self._eval(stmt.subject)
            default_body = None
            for matches, body in stmt.cases:
                for match in matches:
                    if match is None:
                        default_body = body
                        continue
                    if values_equal(subject, self._eval(match)):
                        self._exec_block(body)
                        return
            if default_body is not None:
                self._exec_block(default_body)
            return
        if isinstance(stmt, ast.IncludeStatement):
            for name in stmt.names:
                self._declare_class(name, {}, stmt.line, col=stmt.col)
                if stmt.require_edges and self._container_stack:
                    self.catalog.add_edge(
                        RefValue("class", name),
                        self._container_stack[-1],
                        line=stmt.line,
                        col=stmt.col,
                    )
            return
        if isinstance(stmt, ast.Collector):
            self._collectors.append(
                _DeferredCollector(stmt, self.scopes.current)
            )
            return
        if isinstance(stmt, ast.ChainStatement):
            self._exec_chain(stmt)
            return
        if isinstance(stmt, ast.ExpressionStatement):
            self._exec_call(stmt.expr)
            return
        raise PuppetEvalError(f"cannot execute statement: {stmt!r}")

    def _exec_node_block(self) -> None:
        chosen: Optional[ast.NodeDecl] = None
        default: Optional[ast.NodeDecl] = None
        for node in self.nodes:
            if self.node_name in node.names:
                chosen = node
                break
            if "default" in node.names:
                default = default or node
        block = chosen or default
        if block is not None:
            self._exec_block(block.body)

    # -- resources ---------------------------------------------------------------

    def _exec_resource_decl(self, stmt: ast.ResourceDecl) -> None:
        if stmt.exported:
            raise PuppetEvalError(
                "exported resources (@@) are not supported: they require "
                "a PuppetDB substrate that is out of scope"
            )
        rtype = stmt.rtype.lower()
        for body in stmt.bodies:
            title_value = self._eval(body.title)
            titles = (
                [to_display(t) for t in title_value]
                if isinstance(title_value, list)
                else [to_display(title_value)]
            )
            attrs = {}
            for attr in body.attributes:
                attrs[attr.name] = self._eval(attr.value)
            line = body.line or stmt.line
            col = body.col or stmt.col
            for title in titles:
                if rtype == "class":
                    self._declare_class(
                        title, dict(attrs), line, col=col
                    )
                elif rtype in self.defines:
                    self._instantiate_define(
                        rtype, title, dict(attrs), stmt.virtual,
                        line=line, col=col,
                    )
                else:
                    self._declare_primitive(
                        rtype, title, dict(attrs), stmt.virtual,
                        line=line, col=col,
                    )

    def _declare_primitive(
        self,
        rtype: str,
        title: str,
        attrs: Dict[str, Value],
        virtual: bool,
        line: int = 0,
        col: int = 0,
    ) -> None:
        for name, value in self.defaults.get(rtype, {}).items():
            attrs.setdefault(name, value)
        ref = RefValue(rtype, title)
        meta = self._extract_edges(ref, attrs, line=line, col=col)
        entry = CatalogResource(
            resource=Resource(rtype, title, attrs, line=line, col=col),
            containers=tuple(str(c) for c in self._container_stack),
            virtual=virtual,
            stage=meta.get("stage"),
        )
        self.catalog.add(entry)

    def _instantiate_define(
        self,
        rtype: str,
        title: str,
        attrs: Dict[str, Value],
        virtual: bool,
        line: int = 0,
        col: int = 0,
    ) -> None:
        define = self.defines[rtype]
        for name, value in self.defaults.get(rtype, {}).items():
            attrs.setdefault(name, value)
        ref = RefValue(rtype, title)
        self._extract_edges(ref, attrs, line=line, col=col)
        entry = CatalogResource(
            resource=Resource(rtype, title, dict(attrs), line=line, col=col),
            containers=tuple(str(c) for c in self._container_stack),
            virtual=virtual,
            is_define_instance=True,
        )
        self.catalog.add(entry)

        scope = Scope(f"{rtype}[{title}]", parent=self.scopes.top)
        self._bind_params(scope, define.params, attrs, f"define {rtype}")
        scope._bindings.setdefault("title", title)
        scope._bindings.setdefault("name", title)
        self._with_scope_and_container(scope, ref, define.body)

    def _declare_class(
        self, name: str, attrs: Dict[str, Value], line: int, col: int = 0
    ) -> None:
        decl = self.classes.get(name)
        if decl is None:
            raise PuppetEvalError(f"unknown class {name!r} (line {line})")
        if name in self.included:
            if attrs:
                raise PuppetEvalError(
                    f"duplicate declaration of class {name!r} with parameters"
                )
            return
        self.included.add(name)
        ref = RefValue("class", name)
        meta = self._extract_edges(ref, attrs, line=line, col=col)
        entry = CatalogResource(
            resource=Resource("class", name, dict(attrs), line=line, col=col),
            containers=tuple(str(c) for c in self._container_stack),
            stage=meta.get("stage"),
        )
        self.catalog.add(entry)

        scope = self.scopes.class_scope(name)
        if decl.parent:
            self._declare_class(decl.parent, {}, line)
            scope.parent = self.scopes.class_scope(decl.parent)
        self._bind_params(scope, decl.params, attrs, f"class {name}")
        self._with_scope_and_container(scope, ref, decl.body)

    def _bind_params(
        self,
        scope: Scope,
        params: Sequence[Tuple[str, Optional[ast.Expr]]],
        attrs: Dict[str, Value],
        what: str,
    ) -> None:
        param_names = {p for p, _ in params}
        for attr_name in attrs:
            if attr_name not in param_names and attr_name not in METAPARAMETERS:
                raise PuppetEvalError(
                    f"{what}: unknown parameter {attr_name!r}"
                )
        previous = self.scopes.current
        for param, default in params:
            if param in attrs:
                value = attrs[param]
            elif default is not None:
                self.scopes.current = scope
                try:
                    value = self._eval(default)
                finally:
                    self.scopes.current = previous
            else:
                raise PuppetEvalError(
                    f"{what}: missing required parameter ${param}"
                )
            if not scope.has_local(param):
                scope.define(param, value)

    def _with_scope_and_container(
        self, scope: Scope, ref: RefValue, body: Tuple[ast.Statement, ...]
    ) -> None:
        previous = self.scopes.current
        self.scopes.current = scope
        self._container_stack.append(ref)
        try:
            self._exec_block(body)
        finally:
            self._container_stack.pop()
            self.scopes.current = previous

    def _extract_edges(
        self,
        ref: RefValue,
        attrs: Dict[str, Value],
        line: int = 0,
        col: int = 0,
    ) -> Dict[str, Value]:
        """Convert before/require/notify/subscribe metaparameters into
        edges; returns remaining interesting metaparameters (stage)."""
        meta: Dict[str, Value] = {}
        for key in _EDGE_METAPARAMS:
            if key not in attrs:
                continue
            value = attrs.pop(key)
            for target in _iter_refs(value, key):
                if key in ("before", "notify"):
                    self.catalog.add_edge(
                        ref, target, kind="before", line=line, col=col
                    )
                else:
                    self.catalog.add_edge(
                        target, ref, kind="before", line=line, col=col
                    )
        if "stage" in attrs:
            meta["stage"] = to_display(attrs.pop("stage"))
        attrs.pop("alias", None)
        attrs.pop("tag", None)
        attrs.pop("noop", None)
        return meta

    # -- chains ------------------------------------------------------------------

    def _exec_chain(self, stmt: ast.ChainStatement) -> None:
        operands: List[object] = []
        for operand in stmt.operands:
            if isinstance(operand, ast.ResourceRefExpr):
                refs = [
                    RefValue(
                        operand.rtype.lower(),
                        to_display(self._eval(t)),
                    )
                    for t in operand.titles
                ]
                operands.append(refs)
            elif isinstance(operand, ast.Collector):
                deferred = _DeferredCollector(operand, self.scopes.current)
                self._collectors.append(deferred)
                operands.append(deferred)
            else:
                raise PuppetEvalError(
                    f"unsupported chain operand: {operand!r}"
                )
        self._chains.append(
            _DeferredChain(
                tuple(operands), stmt.arrows, line=stmt.line, col=stmt.col
            )
        )

    # -- deferred global passes -----------------------------------------------------

    def _matching_entries(
        self, deferred: _DeferredCollector
    ) -> List[CatalogResource]:
        rtype = deferred.node.rtype.lower()
        previous = self.scopes.current
        self.scopes.current = deferred.scope

        def evaluate(expr):
            return self._eval(expr)

        try:
            return [
                entry
                for entry in self.catalog.resources.values()
                if entry.resource.rtype == rtype
                and not entry.is_define_instance
                and collector_matches(entry, deferred.node.query, evaluate)
            ]
        finally:
            self.scopes.current = previous

    def _apply_collectors(self) -> None:
        for deferred in self._collectors:
            matches = self._matching_entries(deferred)
            previous = self.scopes.current
            self.scopes.current = deferred.scope
            try:
                overrides = {
                    a.name: self._eval(a.value)
                    for a in deferred.node.overrides
                }
            finally:
                self.scopes.current = previous
            for entry in matches:
                entry.virtual = False  # realize
                for name, value in overrides.items():
                    entry.resource.attributes[name] = value

    def _apply_overrides(self) -> None:
        for ref, attrs in self._overrides:
            entry = self.catalog.get(ref.rtype, ref.title)
            if entry is None:
                raise PuppetEvalError(
                    f"override of undeclared resource {ref}"
                )
            entry.resource.attributes.update(attrs)

    def _apply_realize(self) -> None:
        for ref in self._realized:
            entry = self.catalog.get(ref.rtype, ref.title)
            if entry is None:
                raise PuppetEvalError(f"realize of undeclared resource {ref}")
            entry.virtual = False

    def _apply_chains(self) -> None:
        for chain in self._chains:
            resolved: List[List[RefValue]] = []
            for operand in chain.operands:
                if isinstance(operand, _DeferredCollector):
                    resolved.append(
                        [
                            RefValue(e.resource.rtype, e.resource.title)
                            for e in self._matching_entries(operand)
                        ]
                    )
                else:
                    resolved.append(list(operand))  # type: ignore[arg-type]
            for left, right in zip(resolved, resolved[1:]):
                for src in left:
                    for dst in right:
                        self.catalog.add_edge(
                            src, dst, line=chain.line, col=chain.col
                        )

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.InterpolatedString):
            return interpolate(expr.raw, self.scopes.resolve)
        if isinstance(expr, ast.VariableRef):
            return self.scopes.resolve(expr.name)
        if isinstance(expr, ast.ArrayLit):
            return [self._eval(item) for item in expr.items]
        if isinstance(expr, ast.HashLit):
            return {
                to_display(self._eval(k)): self._eval(v)
                for k, v in expr.entries
            }
        if isinstance(expr, ast.ResourceRefExpr):
            refs = [
                RefValue(expr.rtype.lower(), to_display(self._eval(t)))
                for t in expr.titles
            ]
            return refs[0] if len(refs) == 1 else refs
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand)
            if expr.op == "!":
                return not truthy(operand)
            if expr.op == "-":
                return -_as_number(operand)
            raise PuppetEvalError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binop(expr)
        if isinstance(expr, ast.Selector):
            subject = self._eval(expr.subject)
            default_value = None
            has_default = False
            for key, value in expr.cases:
                if key is None:
                    default_value = value
                    has_default = True
                    continue
                if values_equal(subject, self._eval(key)):
                    return self._eval(value)
            if has_default:
                return self._eval(default_value)
            raise PuppetEvalError(
                f"selector has no match for {subject!r} and no default"
            )
        if isinstance(expr, ast.FunctionCall):
            return self._call_function(expr)
        raise PuppetEvalError(f"cannot evaluate expression: {expr!r}")

    def _eval_binop(self, expr: ast.BinaryOp) -> Value:
        op = expr.op
        if op == "and":
            return truthy(self._eval(expr.left)) and truthy(
                self._eval(expr.right)
            )
        if op == "or":
            return truthy(self._eval(expr.left)) or truthy(
                self._eval(expr.right)
            )
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        if op == "in":
            if isinstance(right, str):
                return isinstance(left, str) and left.lower() in right.lower()
            if isinstance(right, list):
                return any(values_equal(left, item) for item in right)
            if isinstance(right, dict):
                return isinstance(left, str) and left in right
            raise PuppetEvalError(f"'in' needs string/array/hash, got {right!r}")
        if op in ("<", "<=", ">", ">="):
            ln, rn = _as_number(left), _as_number(right)
            return {
                "<": ln < rn,
                "<=": ln <= rn,
                ">": ln > rn,
                ">=": ln >= rn,
            }[op]
        if op in ("+", "-", "*", "/", "%"):
            ln, rn = _as_number(left), _as_number(right)
            if op == "+":
                return ln + rn
            if op == "-":
                return ln - rn
            if op == "*":
                return ln * rn
            if op == "/":
                if rn == 0:
                    raise PuppetEvalError("division by zero")
                result = ln / rn
                return int(result) if result == int(result) else result
            if rn == 0:
                raise PuppetEvalError("modulo by zero")
            return int(ln) % int(rn)
        raise PuppetEvalError(f"unknown operator {op!r}")

    # -- functions ----------------------------------------------------------------

    def _call_function(self, call: ast.FunctionCall) -> Value:
        name = call.name
        args = [self._eval(a) for a in call.args]
        if name == "defined":
            return all(self._is_defined(a) for a in args)
        if name == "split":
            _expect_args(name, args, 2)
            return str(args[0]).split(str(args[1]))
        if name == "join":
            _expect_args(name, args, 2)
            if not isinstance(args[0], list):
                raise PuppetEvalError("join() expects an array")
            return str(args[1]).join(to_display(v) for v in args[0])
        if name == "size" or name == "length":
            _expect_args(name, args, 1)
            if isinstance(args[0], (list, dict, str)):
                return len(args[0])
            raise PuppetEvalError(f"{name}() expects a collection")
        if name == "template" or name == "inline_template":
            raise PuppetEvalError(
                f"{name}() is not supported: templates execute embedded "
                "Ruby, which has no FS model (cf. paper §8 on exec)"
            )
        raise PuppetEvalError(f"unknown function {name!r}")

    def _exec_call(self, call: ast.FunctionCall) -> None:
        name = call.name
        if name in ("notice", "info", "warning", "debug"):
            args = [self._eval(a) for a in call.args]
            self.messages.append(
                f"{name}: " + " ".join(to_display(a) for a in args)
            )
            return
        if name == "fail":
            args = [self._eval(a) for a in call.args]
            raise PuppetEvalError(
                "fail(): " + " ".join(to_display(a) for a in args)
            )
        if name == "realize":
            for arg in call.args:
                value = self._eval(arg)
                for ref in _iter_refs(value, "realize"):
                    self._realized.append(ref)
            return
        # Expression-position functions used as statements.
        self._call_function(call)

    def _is_defined(self, arg: Value) -> bool:
        if isinstance(arg, RefValue):
            if arg.rtype == "class":
                return arg.title in self.included
            return self.catalog.has(arg.rtype, arg.title)
        if isinstance(arg, str):
            return (
                arg in self.classes
                or arg in self.defines
                or arg in self.included
            )
        raise PuppetEvalError(f"defined() cannot handle {arg!r}")


def _iter_refs(value: Value, what: str) -> List[RefValue]:
    if isinstance(value, RefValue):
        return [value]
    if isinstance(value, list):
        out = []
        for item in value:
            out.extend(_iter_refs(item, what))
        return out
    raise PuppetEvalError(
        f"{what} expects resource references, got {value!r}"
    )


def _as_number(value: Value) -> float:
    if isinstance(value, bool):
        raise PuppetEvalError("cannot use a boolean as a number")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(value) if "." in value else int(value)
        except ValueError:
            raise PuppetEvalError(f"not a number: {value!r}") from None
    raise PuppetEvalError(f"not a number: {value!r}")


def _expect_args(name: str, args: list, count: int) -> None:
    if len(args) != count:
        raise PuppetEvalError(
            f"{name}() expects {count} arguments, got {len(args)}"
        )


def evaluate_manifest(
    source: str,
    facts: Optional[Dict[str, Value]] = None,
    node_name: str = "default",
) -> Catalog:
    """Parse and evaluate manifest source into a catalog."""
    from repro.puppet.parser import parse_manifest

    manifest = parse_manifest(source)
    return Evaluator(facts=facts, node_name=node_name).evaluate(manifest)
