"""Every record class in the package: repr text, equality, hashing,
frozenness, default factories and span fields.  The expected repr texts were
recorded from the original dataclass-based classes."""

import inspect

import pytest

import oracle

from heapcheck import arith, entail, formula as fm, interp, prooftree, symexec, termir
from heapcheck.errors import Span

MODULES = (fm, termir, arith, entail, symexec, prooftree, interp, oracle)

x, y = fm.Var("x"), fm.Var("y")
pto = fm.PointsTo(x, fm.IntLit(1))
node = prooftree.ProofNode(0, "r", "in", "ok")
tree = prooftree.ProofTree(node)
heap = entail.SymHeap()

# class -> (keyword arguments of a sample, one field changed in a second
# instance, repr of the sample)
TABLE = {
    fm.IntLit: ({"value": 1}, {"value": -1}, "IntLit(value=1)"),
    fm.Var: ({"name": "x"}, {"name": "y"}, "Var(name='x')"),
    fm.Nil: ({}, None, "Nil()"),
    fm.FieldRef: ({"obj": x, "field": "f"}, {"field": "g"}, "FieldRef(obj=Var(name='x'), field='f')"),
    fm.ArithExpr: ({"op": "*", "left": x, "right": y}, {"right": x},
                   "ArithExpr(op='*', left=Var(name='x'), right=Var(name='y'))"),
    fm.Record: ({"tag": "node", "fields": (("value", x),)}, {"tag": None},
                "Record(tag='node', fields=(('value', Var(name='x')),))"),
    fm.Emp: ({}, None, "Emp()"),
    fm.TrueF: ({}, None, "TrueF()"),
    fm.FalseF: ({}, None, "FalseF()"),
    fm.PointsTo: ({"loc": x, "val": fm.Nil()}, {"val": y}, "PointsTo(loc=Var(name='x'), val=Nil())"),
    fm.Star: ({"parts": (pto, fm.Emp())}, {"parts": (fm.Emp(), pto)},
              "Star(parts=(PointsTo(loc=Var(name='x'), val=IntLit(value=1)), Emp()))"),
    fm.And: ({"parts": (pto, fm.TrueF())}, {"parts": (pto, fm.FalseF())},
             "And(parts=(PointsTo(loc=Var(name='x'), val=IntLit(value=1)), TrueF()))"),
    fm.Or: ({"parts": (fm.Emp(), pto)}, {"parts": (pto, pto)},
            "Or(parts=(Emp(), PointsTo(loc=Var(name='x'), val=IntLit(value=1))))"),
    fm.Exists: ({"vars": ("v",), "body": pto}, {"vars": ("w",)},
                "Exists(vars=('v',), body=PointsTo(loc=Var(name='x'), val=IntLit(value=1)))"),
    fm.PredApp: ({"name": "list", "args": (x, fm.Nil())}, {"name": "lseg"},
                 "PredApp(name='list', args=(Var(name='x'), Nil()))"),
    fm.PureAtom: ({"op": "==", "left": x, "right": y}, {"op": "!="},
                  "PureAtom(op='==', left=Var(name='x'), right=Var(name='y'))"),
    fm.PredDef: ({"name": "p", "params": ("a",), "body": fm.Emp()}, {"body": fm.TrueF()},
                 "PredDef(name='p', params=('a',), body=Emp())"),
    termir.Atom: ({"name": "a"}, {"name": "b"}, "Atom(name='a')"),
    termir.Int: ({"value": 0}, {"value": 1}, "Int(value=0)"),
    termir.Compound: ({"functor": "f", "args": (termir.Atom("a"),)}, {"functor": "g"},
                      "Compound(functor='f', args=(Atom(name='a'),))"),
    termir.TList: ({"items": (termir.Int(1),)}, {"items": ()}, "TList(items=(Int(value=1),))"),
    termir.SourceProgram: ({"predicates": (), "classes": (), "functions": ()},
                           {"functions": (termir.Atom("f"),)},
                           "SourceProgram(predicates=(), classes=(), functions=())"),
    arith.SatResult: ({"status": "sat", "witness": None}, {"status": "unsat"},
                      "SatResult(status='sat', witness=None)"),
    arith.PureSet: ({"atoms": (("==", x, y),)}, {"separated": (x,)},
                    "PureSet(atoms=(('==', Var(name='x'), Var(name='y')),), separated=())"),
    entail.SymHeap: ({"spatial": (fm.PointsTo(x, y),)}, {"existentials": frozenset({"x"})},
                     "SymHeap(pure=PureSet(atoms=(), separated=()), "
                     "spatial=(PointsTo(loc=Var(name='x'), val=Var(name='y')),), existentials=frozenset())"),
    entail.Proved: ({"frame": heap, "binding": {"v": x}, "tree": node}, {"binding": {}},
                    "Proved(frame=SymHeap(pure=PureSet(atoms=(), separated=()), spatial=(), "
                    "existentials=frozenset()), binding={'v': Var(name='x')}, "
                    "tree=ProofNode(id=0, rule='r', input='in', outcome='ok', children=[]))"),
    entail.Failed: ({"residue_consequent": (), "nearest_rule": "match", "tree": node},
                    {"nearest_rule": "fold"},
                    "Failed(residue_consequent=(), nearest_rule='match', "
                    "tree=ProofNode(id=0, rule='r', input='in', outcome='ok', children=[]))"),
    symexec.Diagnostic: ({"kind": "MemoryLeak", "span": Span(1, 2, 1, 5), "message": "m"},
                         {"span": Span(1, 3, 1, 5)},
                         "Diagnostic(kind='MemoryLeak', span=Span(line=1, col=2, end_line=1, end_col=5), "
                         "message='m', counterexample='', proof_ref=-1)"),
    symexec.Stats: ({"rule_applications": 2}, {"branches": 1},
                    "Stats(rule_applications=2, branches=0)"),
    symexec.Verdict: ({"function": "f", "status": "Verified", "diagnostics": [], "proof": tree,
                       "stats": symexec.Stats()}, {"inconclusive_reason": "r"},
                      "Verdict(function='f', status='Verified', diagnostics=[], "
                      "proof=ProofTree(root=ProofNode(id=0, rule='r', input='in', outcome='ok', children=[])), "
                      "stats=Stats(rule_applications=0, branches=0), inconclusive_reason='')"),
    symexec.SymState: ({"store": {"x": x}, "heap": heap, "scopes": [set()], "node": node}, {"tainted": True},
                       "SymState(store={'x': Var(name='x')}, heap=SymHeap(pure=PureSet(atoms=(), separated=()), "
                       "spatial=(), existentials=frozenset()), scopes=[set()], "
                       "node=ProofNode(id=0, rule='r', input='in', outcome='ok', children=[]), tainted=False, "
                       "taint_reason='', partial_heap=False, reported=frozenset())"),
    symexec.Contract: ({"name": "f", "params": ("x",), "pre": fm.Emp(), "post": fm.TrueF()}, {"params": ()},
                       "Contract(name='f', params=('x',), pre=Emp(), post=TrueF())"),
    prooftree.ProofNode: ({"id": 1, "rule": "r", "input": "i", "outcome": "ok"}, {"outcome": "failed"},
                          "ProofNode(id=1, rule='r', input='i', outcome='ok', children=[])"),
    prooftree.ProofTree: ({"root": node}, {"root": prooftree.ProofNode(1, "r", "in", "ok")},
                          "ProofTree(root=ProofNode(id=0, rule='r', input='in', outcome='ok', children=[]))"),
    prooftree.DotOptions: ({}, {"verbosity": "rule"}, "DotOptions(verbosity='full', graph_name='proof')"),
    interp.CRecord: ({"tag": "node", "fields": (("value", 1),)}, {"tag": None},
                     "CRecord(tag='node', fields=(('value', 1),))"),
    interp.Fault: ({"kind": "InvalidFree"}, {"message": "m"}, "Fault(kind='InvalidFree', message='')"),
    interp.ConcreteState: ({"store": {"x": 1}}, {"steps": 1}, "ConcreteState(store={'x': 1}, heap={}, steps=0)"),
    oracle.OracleConfig: ({"value_hi": 3}, {"value_lo": -2},
                          "OracleConfig(value_lo=-4, value_hi=3)"),
}

MUTABLE = {entail.Proved, entail.Failed, symexec.Stats, symexec.Verdict, symexec.SymState,
           prooftree.ProofNode, prooftree.ProofTree, interp.Fault, interp.ConcreteState}

# class -> (sample with a span, the name of its span field)
SPANNED = (termir.Compound, termir.TList, fm.PredDef)


def _is_record(cls) -> bool:
    return "__eq__" in vars(cls) and "__repr__" in vars(cls)


def test_table_covers_every_record_class():
    found = {cls for mod in MODULES for _, cls in inspect.getmembers(mod, inspect.isclass)
             if cls.__module__ == mod.__name__ and _is_record(cls)}
    assert found == set(TABLE)


@pytest.mark.parametrize("cls", list(TABLE), ids=lambda c: c.__qualname__)
def test_record_behaviour(cls):
    kwargs, changed, text = TABLE[cls]
    a, b = cls(**kwargs), cls(**kwargs)
    assert repr(a) == text
    assert a == b and not a != b
    assert a != object() and a != tuple(kwargs.values())
    if changed is not None:
        c = cls(**{**kwargs, **changed})
        assert a != c and c != a
    name = next(iter(kwargs), "anything")
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, name, getattr(a, name, None))
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(a, name)
        assert repr(a) == text


@pytest.mark.parametrize("cls", SPANNED, ids=lambda c: c.__qualname__)
def test_span_takes_no_part_in_eq_hash_or_repr(cls):
    kwargs = TABLE[cls][0]
    plain, spanned = cls(**kwargs), cls(**kwargs, span=Span(3, 4, 3, 9))
    assert plain.span == Span() and spanned.span == Span(3, 4, 3, 9)
    assert plain == spanned and hash(plain) == hash(spanned)
    assert repr(plain) == repr(spanned) == TABLE[cls][2]


def test_fresh_default_factories():
    assert entail.SymHeap().pure is not entail.SymHeap().pure
    assert entail.SymHeap().pure == entail.SymHeap().pure
    assert prooftree.ProofNode(0, "r", "", "ok").children is not prooftree.ProofNode(0, "r", "", "ok").children
    s, t = interp.ConcreteState(), interp.ConcreteState()
    assert s.store is not t.store and s.heap is not t.heap


def test_equal_fields_of_different_classes_compare_unequal():
    a, b = fm.Emp(), fm.TrueF()
    assert fm.Star((a, b)) != fm.And((a, b)) != fm.Or((a, b))
    assert fm.Emp() != fm.TrueF() != fm.FalseF() and fm.Nil() != termir.Atom("nil")
    assert fm.Var("x") != termir.Atom("x")
    assert fm.IntLit(1) != termir.Int(1)
    assert fm.PureAtom("+", x, y) != fm.ArithExpr("+", x, y)
    assert fm.Record("node", ()) != interp.CRecord("node", ())


def test_positional_and_keyword_construction_agree():
    assert termir.Compound("f", (), Span(1, 1, 1, 2)).span == Span(1, 1, 1, 2)
    assert fm.PredDef("p", ("a",), fm.Emp()) == fm.PredDef(name="p", params=("a",), body=fm.Emp())
    with pytest.raises(TypeError):
        fm.Var()
    with pytest.raises(TypeError):
        fm.Var("x", "y")
    with pytest.raises(TypeError):
        fm.Var(nme="x")


def test_post_init_checks_names():
    with pytest.raises(ValueError, match="empty atom name"):
        termir.Atom("")
    with pytest.raises(ValueError, match="empty functor name"):
        termir.Compound("", ())


def test_memo_writes_the_instance_dict():
    ps = arith.PureSet((("==", x, y),))
    assert "_solver" not in vars(ps)
    assert ps.equal(x, y)
    assert "_solver" in vars(ps)
    assert ps == arith.PureSet((("==", x, y),)) and repr(ps).startswith("PureSet(atoms=")


def test_a_field_without_default_after_one_with_a_default_is_an_error():
    from heapcheck.records import Frozen, record

    class Bad(Frozen):
        a: int = 0
        b: int

    with pytest.raises(TypeError, match="field 'b' without a default follows one with a default"):
        record(Bad)
