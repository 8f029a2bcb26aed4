"""The syntax trees and lattice values keep frozen-dataclass semantics.

The Puppet AST, the FS syntax and the rewrite/definitive lattice values
are plain ``__slots__`` classes over :class:`repro.node.Node`.  Every
one of them is checked here against a hand-written expectation: its
fields in order, its compared fields, and its ``repr``.  Hash values
and ``repr`` feed set orders, cache keys and store digests, so they
must be exactly what the frozen dataclass gave.
"""

import copy
import pickle

import pytest

from repro.analysis import definitive as dv
from repro.fs import rewrite as rw
from repro.fs import syntax as fx
from repro.fs.paths import Path
from repro.node import Node
from repro.puppet import ast_nodes as ast

P = Path.of("/a")
Q = Path.of("/b")
PR = "Path('/a')"
QR = "Path('/b')"
LIT = ast.Literal("x")
LR = "Literal(value='x')"
ATTR = ast.AttributeDef("mode", LIT)
AR = f"AttributeDef(name='mode', value={LR}, add=False)"
REF = ast.ResourceRefExpr("File", (LIT,))
RR = f"ResourceRefExpr(rtype='File', titles=({LR},))"
CALL = ast.FunctionCall("notice", (LIT,))
CR = f"FunctionCall(name='notice', args=({LR},))"
BODY = ast.ResourceBody(LIT, (ATTR,), 3, 4)
BR = f"ResourceBody(title={LR}, attributes=({AR},), line=3, col=4)"
QUERY = ast.CollectorQuery("==", "tag", LIT)
QRY = (
    f"CollectorQuery(op='==', attr='tag', value={LR}, left=None, "
    "right=None)"
)
DECL = ast.ResourceDecl(1, 2, "file", (BODY,))
DR = (
    f"ResourceDecl(line=1, col=2, rtype='file', bodies=({BR},), "
    "virtual=False, exported=False)"
)
ASSIGN = ast.Assignment(5, 6, "x", LIT)
ASR = f"Assignment(line=5, col=6, name='x', value={LR})"
MK = fx.Mkdir(P)
MKR = f"Mkdir(path={PR})"
ISD = fx.IsDir(P)
ISDR = f"IsDir(path={PR})"

#: (class, field name -> value in ``__init__`` order, expected repr).
#: Fields named ``line``/``col`` are the uncompared source spans.
CASES = [
    # Puppet AST: expressions
    (ast.Expr, {}, "Expr()"),
    (ast.Literal, {"value": "x"}, LR),
    (ast.InterpolatedString, {"raw": "a$b"}, "InterpolatedString(raw='a$b')"),
    (ast.VariableRef, {"name": "::x"}, "VariableRef(name='::x')"),
    (ast.ArrayLit, {"items": (LIT,)}, f"ArrayLit(items=({LR},))"),
    (ast.HashLit, {"entries": ((LIT, LIT),)}, f"HashLit(entries=(({LR}, {LR}),))"),
    (ast.ResourceRefExpr, {"rtype": "File", "titles": (LIT,)}, RR),
    (ast.UnaryOp, {"op": "!", "operand": LIT}, f"UnaryOp(op='!', operand={LR})"),
    (
        ast.BinaryOp,
        {"op": "==", "left": LIT, "right": LIT},
        f"BinaryOp(op='==', left={LR}, right={LR})",
    ),
    (
        ast.Selector,
        {"subject": LIT, "cases": ((None, LIT),)},
        f"Selector(subject={LR}, cases=((None, {LR}),))",
    ),
    (ast.FunctionCall, {"name": "notice", "args": (LIT,)}, CR),
    # Puppet AST: statements and their parts
    (ast.Statement, {"line": 1, "col": 2}, "Statement(line=1, col=2)"),
    (ast.AttributeDef, {"name": "mode", "value": LIT, "add": False}, AR),
    (
        ast.ResourceBody,
        {"title": LIT, "attributes": (ATTR,), "line": 3, "col": 4},
        BR,
    ),
    (
        ast.ResourceDecl,
        {
            "line": 1,
            "col": 2,
            "rtype": "file",
            "bodies": (BODY,),
            "virtual": False,
            "exported": False,
        },
        DR,
    ),
    (
        ast.ResourceDefault,
        {"line": 1, "col": 2, "rtype": "file", "attributes": (ATTR,)},
        f"ResourceDefault(line=1, col=2, rtype='file', attributes=({AR},))",
    ),
    (
        ast.ResourceOverride,
        {"line": 1, "col": 2, "ref": REF, "attributes": (ATTR,)},
        f"ResourceOverride(line=1, col=2, ref={RR}, attributes=({AR},))",
    ),
    (
        ast.DefineDecl,
        {
            "line": 1,
            "col": 2,
            "name": "d",
            "params": (("p", None),),
            "body": (ASSIGN,),
        },
        f"DefineDecl(line=1, col=2, name='d', params=(('p', None),), "
        f"body=({ASR},))",
    ),
    (
        ast.ClassDecl,
        {
            "line": 1,
            "col": 2,
            "name": "c",
            "params": (("p", LIT),),
            "parent": "base",
            "body": (ASSIGN,),
        },
        f"ClassDecl(line=1, col=2, name='c', params=(('p', {LR}),), "
        f"parent='base', body=({ASR},))",
    ),
    (
        ast.NodeDecl,
        {"line": 1, "col": 2, "names": ("default",), "body": (ASSIGN,)},
        f"NodeDecl(line=1, col=2, names=('default',), body=({ASR},))",
    ),
    (ast.Assignment, {"line": 5, "col": 6, "name": "x", "value": LIT}, ASR),
    (
        ast.IfStatement,
        {"line": 1, "col": 2, "branches": ((LIT, (ASSIGN,)), (None, ()))},
        f"IfStatement(line=1, col=2, branches=(({LR}, ({ASR},)), "
        "(None, ())))",
    ),
    (
        ast.CaseStatement,
        {"line": 1, "col": 2, "subject": LIT, "cases": (((None,), (ASSIGN,)),)},
        f"CaseStatement(line=1, col=2, subject={LR}, "
        f"cases=(((None,), ({ASR},)),))",
    ),
    (
        ast.IncludeStatement,
        {"line": 1, "col": 2, "names": ("ntp",), "require_edges": True},
        "IncludeStatement(line=1, col=2, names=('ntp',), require_edges=True)",
    ),
    (
        ast.CollectorQuery,
        {"op": "==", "attr": "tag", "value": LIT, "left": None, "right": None},
        QRY,
    ),
    (
        ast.Collector,
        {
            "line": 1,
            "col": 2,
            "rtype": "user",
            "query": QUERY,
            "overrides": (ATTR,),
            "exported": True,
        },
        f"Collector(line=1, col=2, rtype='user', query={QRY}, "
        f"overrides=({AR},), exported=True)",
    ),
    (
        ast.ChainStatement,
        {"line": 1, "col": 2, "operands": (REF, DECL), "arrows": ("->",)},
        f"ChainStatement(line=1, col=2, operands=({RR}, {DR}), "
        "arrows=('->',))",
    ),
    (
        ast.ExpressionStatement,
        {"line": 1, "col": 2, "expr": CALL},
        f"ExpressionStatement(line=1, col=2, expr={CR})",
    ),
    (ast.Manifest, {"statements": (ASSIGN,)}, f"Manifest(statements=({ASR},))"),
    # FS syntax: predicates
    (fx.Pred, {}, "Pred()"),
    (fx.PTrue, {}, "PTrue()"),
    (fx.PFalse, {}, "PFalse()"),
    (fx.IsNone, {"path": P}, f"IsNone(path={PR})"),
    (fx.IsFile, {"path": P}, f"IsFile(path={PR})"),
    (fx.IsDir, {"path": P}, ISDR),
    (fx.IsEmptyDir, {"path": P}, f"IsEmptyDir(path={PR})"),
    (
        fx.IsFileWith,
        {"path": P, "content": "c"},
        f"IsFileWith(path={PR}, content='c')",
    ),
    (fx.PNot, {"inner": ISD}, f"PNot(inner={ISDR})"),
    (fx.PAnd, {"left": ISD, "right": ISD}, f"PAnd(left={ISDR}, right={ISDR})"),
    (fx.POr, {"left": ISD, "right": ISD}, f"POr(left={ISDR}, right={ISDR})"),
    # FS syntax: expressions
    (fx.Expr, {}, "Expr()"),
    (fx.Id, {}, "Id()"),
    (fx.Err, {}, "Err()"),
    (fx.Mkdir, {"path": P}, MKR),
    (fx.Creat, {"path": P, "content": "c"}, f"Creat(path={PR}, content='c')"),
    (fx.Rm, {"path": P}, f"Rm(path={PR})"),
    (fx.Cp, {"src": P, "dst": Q}, f"Cp(src={PR}, dst={QR})"),
    (fx.Seq, {"first": MK, "second": MK}, f"Seq(first={MKR}, second={MKR})"),
    (
        fx.If,
        {"pred": ISD, "then_branch": MK, "else_branch": fx.ID},
        f"If(pred={ISDR}, then_branch={MKR}, else_branch=Id())",
    ),
    # Simplifier knowledge lattice
    (rw.KDir, {}, "KDir()"),
    (rw.KDne, {}, "KDne()"),
    (rw.KFile, {"content": None}, "KFile(content=None)"),
    (rw.KExists, {}, "KExists()"),
    # Definitive-write lattice (hand-written reprs)
    (dv.ADir, {}, "dir"),
    (dv.ADne, {}, "dne"),
    (dv.AFile, {"content": "c"}, "file('c')"),
    (
        dv.WriteProfile,
        {"value": dv.A_DIR, "condition_paths": frozenset({P})},
        f"WriteProfile(value=dir, condition_paths=frozenset({{{PR}}}))",
    ),
]

SPANS = ("line", "col")
IDS = [f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}" for cls, _, _ in CASES]


def _build(cls, fields):
    return cls(*fields.values())


def _compared(fields):
    return tuple(v for name, v in fields.items() if name not in SPANS)


def test_every_node_class_has_a_case():
    modules = (ast, fx, rw, dv)
    converted = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, Node)
        and obj.__module__ == module.__name__
    }
    assert converted == {cls for cls, _, _ in CASES}
    assert len(CASES) == 57


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
class TestNodeSemantics:
    def test_field_order_is_the_init_order(self, cls, fields, text):
        node = _build(cls, fields)
        assert tuple(getattr(node, name) for name in fields) == tuple(
            fields.values()
        )
        assert cls._fields == tuple(fields)

    def test_equality_is_per_class_over_compared_fields(self, cls, fields, text):
        node = _build(cls, fields)
        assert node == _build(cls, fields)
        assert not node != _build(cls, fields)
        twin = type("Twin", (cls,), {"__slots__": ()})
        other = _build(twin, fields)
        assert node != other and other != node
        assert node != _compared(fields)
        assert node.__eq__(object()) is NotImplemented

    def test_hash_is_the_hash_of_the_compared_fields(self, cls, fields, text):
        assert hash(_build(cls, fields)) == hash(_compared(fields))

    def test_repr(self, cls, fields, text):
        assert repr(_build(cls, fields)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        node = _build(cls, fields)
        for name in tuple(fields) or ("anything",):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert repr(node) == text

    def test_pickle_and_deepcopy_round_trip(self, cls, fields, text):
        node = _build(cls, fields)
        for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert type(clone) is cls
            assert clone == node and hash(clone) == hash(node)
            assert repr(clone) == text

    def test_keyword_construction(self, cls, fields, text):
        assert repr(cls(**fields)) == text


def test_source_spans_stay_out_of_equality_and_hash_but_show_in_repr():
    a = ast.ResourceDecl(line=1, col=2, rtype="file", bodies=(BODY,))
    b = ast.ResourceDecl(line=9, col=9, rtype="file", bodies=(BODY,))
    assert a == b and hash(a) == hash(b) == hash(("file", (BODY,), False, False))
    assert repr(a) != repr(b) and "line=9, col=9" in repr(b)
    body = ast.ResourceBody(LIT, (ATTR,), line=7, col=8)
    assert body == BODY and hash(body) == hash((LIT, (ATTR,)))
    assert repr(body).endswith("line=7, col=8)")
    assert ast.Statement(1, 2) == ast.Statement() and hash(ast.Statement()) == hash(())


def test_keyword_construction_with_defaults():
    """The parser builds statements with ``line=…, col=…, name=…`` and
    leaves the rest at their defaults."""
    decl = ast.ClassDecl(line=3, col=1, name="ntp")
    assert repr(decl) == (
        "ClassDecl(line=3, col=1, name='ntp', params=(), parent=None, body=())"
    )
    assert repr(ast.ResourceDecl()) == (
        "ResourceDecl(line=0, col=0, rtype='', bodies=(), virtual=False, "
        "exported=False)"
    )
    assert repr(ast.Assignment(name="x")) == (
        "Assignment(line=0, col=0, name='x', value=None)"
    )
    assert ast.AttributeDef("mode", LIT).add is False
    assert repr(ast.ResourceBody(LIT, ())) == (
        f"ResourceBody(title={LR}, attributes=(), line=0, col=0)"
    )
    assert repr(ast.CollectorQuery()) == (
        "CollectorQuery(op='', attr='', value=None, left=None, right=None)"
    )
    assert repr(ast.Collector(rtype="user")) == (
        "Collector(line=0, col=0, rtype='user', query=None, overrides=(), "
        "exported=False)"
    )


def test_set_order_follows_the_dataclass_hash():
    """Equal hashes give equal iteration orders: a set of nodes lists
    exactly like a set of their compared-field tuples."""
    nodes = [fx.Mkdir(Path.of(f"/d{i}")) for i in range(40)]
    keys = [(n.path,) for n in nodes]
    index = {key: n for key, n in zip(keys, nodes)}
    assert list(set(nodes)) == [index[key] for key in set(keys)]
