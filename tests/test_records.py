"""Value classes keep a frozen dataclass's semantics without ``dataclasses``.

Declarations, expression nodes, witnesses, weights, blocks, expression maps
and multilinear forms derive from ``weil.Record``: equality and the hash
read the compared fields of the same class, a trailing ``line`` or ``dim``
rides along, fields cannot be assigned, and the repr keeps the dataclass
text.  ``import weilaff`` must load neither ``dataclasses`` nor ``inspect``.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weilaff import (
    Add,
    AffineWeights,
    CheckEntry,
    CheckReport,
    Const,
    ExprMap,
    MultilinearForm,
    Sub,
    Var,
    Witness,
    parse_expression,
)
from weilaff.dsl import BlockDecl, CheckDecl, ERef, PointDecl
from weilaff.weil import Block, Record


def test_line_and_dim_are_not_compared():
    a, b = BlockDecl("d", 1, 2, line=3), BlockDecl("d", 1, 2, line=7)
    assert a == b and hash(a) == hash(b) and a.line == 3
    p, q = PointDecl("P", Const(1), dim=1, line=2), PointDecl("P", Const(1), dim=2, line=5)
    assert p == q and hash(p) == hash(q)
    assert CheckDecl("in-Dk", k=1, line=1) == CheckDecl("in-Dk", k=1, line=9)
    assert BlockDecl("d", 1, 2) != BlockDecl("e", 1, 2)
    assert CheckDecl("in-Dk", k=1) != CheckDecl("in-Dk", k=2)


def test_equality_needs_the_same_class():
    a, b = Var(0), Const(2)
    assert Add(a, b) == Add(Var(0), Const(2))
    assert Add(a, b) != Sub(a, b)
    assert Const(1) != Var(1)
    assert Const(1) != 1 and ERef("P") != ("P", None)
    assert Block("d", 0, 2, 1) == Block("d", 0, 2, 1) != Block("e", 0, 2, 1)
    assert ExprMap(1, 1, [Var(0)]) == ExprMap(1, 1, (Var(0),)) != ExprMap(2, 1, [Var(0)])
    form = MultilinearForm(2, 2, {(0, 1): 1, (1, 0): Fraction(1, 2)})
    assert form == MultilinearForm(2, 2, {(1, 0): Fraction(1, 2), (0, 1): 1, (1, 1): 0})
    assert form != MultilinearForm(2, 3, {(0, 1): 1, (1, 0): Fraction(1, 2)})


def test_fields_cannot_be_assigned():
    values = [BlockDecl("d", 1, 2), Const(Fraction(1, 2)), Add(Var(0), Var(1)),
              Witness("x", "d^2", Fraction(1)), AffineWeights((1,)), Block("d", 0, 1, 2),
              ExprMap(1, 1, [Var(0)]), MultilinearForm(1, 1, {(0,): 1})]
    for value in values:
        name = value.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_repr_keeps_the_dataclass_text():
    assert repr(Const(Fraction(3, 2))) == "Const(value=Fraction(3, 2))"
    assert repr(ERef("P")) == "ERef(name='P', index=None)"
    assert repr(BlockDecl("d", 1, 2, line=4)) == "BlockDecl(name='d', nvars=1, cap=2, line=4)"
    assert repr(Add(Var(0), Const(1))) == "Add(left=Var(index=0), right=Const(value=1))"


def test_constructor_takes_fields_by_position_or_name():
    assert ERef(name="P", index=2) == ERef("P", 2)
    assert CheckDecl("axioms", mode="canonical").weights == ()
    bad = (((), {}), (("P", 1, 2), {}), (("P",), {"name": "Q"}), (("P",), {"size": 1}))
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            ERef(*args, **kwargs)


def test_copy_and_pickle_keep_every_field():
    decl = PointDecl("P", Add(Var(0), Const(Fraction(1, 3))), dim=1, line=6)
    for clone in (copy.copy(decl), copy.deepcopy(decl), pickle.loads(pickle.dumps(decl))):
        assert clone == decl and (clone.dim, clone.line) == (1, 6)
    assert pickle.loads(pickle.dumps(AffineWeights((2, -1)))) == AffineWeights((2, -1))
    # weights compare, hash, copy and pickle by their values; the integer
    # numerators and denominator ride along
    w = AffineWeights((1, Fraction(1, 2), Fraction(-1, 2)))
    assert w == AffineWeights((Fraction(2, 2), Fraction(2, 4), -Fraction(1, 2)))
    assert w != AffineWeights((1, 0, 0)) and hash(w) == hash(AffineWeights(w.values))
    for clone in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert clone == w and hash(clone) == hash(w) and clone.values == w.values
        assert (clone.nums, clone.den) == ((2, 1, -1), 2)


def test_report_classes_stay_mutable_and_unhashable():
    entry = CheckEntry("c", "in-Dk", "pass")
    assert entry == CheckEntry("c", "in-Dk", "pass", None, 0)
    entry.millis = 5
    assert entry != CheckEntry("c", "in-Dk", "pass")
    report = CheckReport()
    report.add(entry)
    assert report == CheckReport([CheckEntry("c", "in-Dk", "pass", millis=5)])
    assert report != CheckReport()
    for value in (entry, report):
        with pytest.raises(TypeError):
            hash(value)


def _plain(node):
    """A record tree as nested tuples headed by class names: the oracle of
    record equality."""
    if isinstance(node, Record):
        return (type(node).__name__, *(_plain(getattr(node, f)) for f in node.__slots__))
    if isinstance(node, tuple):
        return tuple(_plain(item) for item in node)
    return node


_ATOMS = st.sampled_from(["1", "2", "3/2", "P", "Q", "d[1]", "d[2]"])


def _extend(children):
    pairs = st.tuples(children, st.sampled_from("+-*/"), children)
    return st.one_of(
        pairs.map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})^2"),
        children.map(lambda c: f"sqrt({c})"),
        children.map(lambda c: f"f({c})"),
        children.map(lambda c: f"({c},)"),
    )


_EXPRS = st.recursive(_ATOMS, _extend, max_leaves=6)


@settings(max_examples=300, derandomize=True)
@given(_EXPRS, _EXPRS)
def test_equality_and_hash_agree_on_parsed_trees(a_text, b_text):
    a, b = parse_expression(a_text), parse_expression(b_text)
    again = parse_expression(a_text)
    assert a == again and hash(a) == hash(again) and a is not again
    assert (a == b) == (_plain(a) == _plain(b))
    if a == b:
        assert hash(a) == hash(b)


def test_import_loads_no_dataclasses_or_inspect():
    """Building dataclasses at import cost every launch about 35 ms, the
    import of ``dataclasses`` (with ``inspect``) included."""
    code = (
        "import weilaff, weilaff.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == ""
