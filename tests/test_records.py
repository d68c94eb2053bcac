"""`core.record` against `dataclasses`.  Every class that `@record` builds in
src/qvbench, found by scanning the modules' source, gets a dataclass twin
made from the same declaration: its annotated fields, their defaults, its
`uncompared` argument, and its `__post_init__`.  Built from the
same values, a record and its twin must agree on construction, positional
and by keyword, on `==`, `hash`, `repr` and `replace`."""
import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from collections import defaultdict
from functools import cached_property
from itertools import product as iproduct
from pathlib import Path
from types import FunctionType

import pytest

import fx
from qvbench.core import FiniteAlgebra, FrozenRecordError, replace
from qvbench.implicit import PartialOperation
from qvbench.parser import Workspace, parse_workspace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qvbench"


def declarations() -> list[tuple]:
    """(module, class, uncompared, [(field, default expression or None)])
    for each class decorated with `record`."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if ast.unparse(call.func if call else dec) != "record":
                    continue
                options = {k.arg: ast.literal_eval(k.value) for k in call.keywords} if call else {}
                fields = [(s.target.id, s.value) for s in node.body if isinstance(s, ast.AnnAssign)]
                out.append((path.stem, node.name, options.get("uncompared", ()), fields))
    return out


DECLARATIONS = declarations()
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


def twin_of(module: str, name: str, uncompared, fields) -> tuple[type, type]:
    """The record class, and the dataclass its declaration describes, with
    the record class's own methods and properties."""
    namespace = vars(importlib.import_module(f"qvbench.{module}"))
    specs = []
    for field, expr in fields:
        options = {"compare": field not in uncompared}
        if isinstance(expr, ast.Call) and ast.unparse(expr.func) == "Fresh":
            options["default_factory"] = eval(ast.unparse(expr.args[0]), namespace)
        elif expr is not None:
            options["default"] = eval(ast.unparse(expr), namespace)
        specs.append((field, object, dataclasses.field(**options)))
    cls = namespace[name]
    methods = {
        k: v for k, v in vars(cls).items()
        if isinstance(v, (FunctionType, property, cached_property, classmethod)) and k not in GENERATED
    }
    return cls, dataclasses.make_dataclass(name, specs, frozen=True, namespace=methods)


def _reachable_records() -> dict[str, list]:
    """Every record reachable from a freshly parsed fixture workspace, by
    class name, in the order first reached."""
    found = defaultdict(list)
    seen = set()
    todo = [parse_workspace(fx.WORKSPACE.read_text(encoding="utf-8"))]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (tuple, list)):
            todo.extend(reversed(obj))
        elif isinstance(obj, dict):
            todo.extend(reversed(list(obj.values())))
        elif hasattr(obj, "_fields") and id(obj) not in seen:
            seen.add(id(obj))
            found[type(obj).__name__].append(obj)
            todo.extend(getattr(obj, f) for f in reversed(obj._fields))
    return found


REACHABLE = _reachable_records()


def rows(cls, fields, uncompared) -> list[tuple]:
    """Field values to build records from.  A class that validates in
    `__post_init__` takes the values of up to four fixture records; any
    other takes three rows of opaque values.  A class with uncompared fields
    also gets the first row with those fields changed."""
    names = [f for f, _ in fields]
    if "__post_init__" in vars(cls):
        out = [tuple(getattr(r, f) for f in names) for r in REACHABLE[cls.__name__][:4]]
    else:
        out = [tuple((k, f) for f in names) for k in range(3)]
    if uncompared:
        out.append(tuple(v + "'" if f in uncompared else v for f, v in zip(names, out[0])))
    return out


def outcome(make, names):
    """What building a record gives: its repr, hash and the values of the
    fields `names`, or the exception's type and text.  A record with an
    unhashable field gives the hash's exception in place of the hash."""
    try:
        obj = make()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    try:
        key = hash(obj)
    except TypeError as exc:
        key = str(exc)
    return repr(obj), key, tuple(getattr(obj, f) for f in names)


CASES = [pytest.param(d, id=f"{d[0]}.{d[1]}") for d in DECLARATIONS]


def test_scan_finds_every_record_class():
    by_runtime = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"qvbench.{path.stem}")
        for value in vars(module).values():
            if (
                isinstance(value, type) and value.__module__ == module.__name__
                and "_fields" in vars(value) and not issubclass(value, tuple)
            ):
                by_runtime.add(f"{path.stem}.{value.__name__}")
    assert by_runtime == {f"{m}.{n}" for m, n, *_ in DECLARATIONS}
    assert len(by_runtime) == 33


@pytest.mark.parametrize("decl", CASES)
def test_record_matches_its_dataclass_twin(decl):
    _, _, uncompared, fields = decl
    cls, twin = twin_of(*decl)
    names = [f for f, _ in fields]
    assert cls._fields == tuple(names)
    assert not hasattr(cls, "__dataclass_fields__") and not hasattr(cls, "__slots__")
    data = rows(cls, fields, uncompared)
    assert len({tuple(v for f, v in zip(names, row) if f not in uncompared) for row in data}) >= 2

    made, twins = [], []
    for row in data:
        assert outcome(lambda: cls(*row), names) == outcome(lambda: twin(*row), names)
        kwargs = dict(zip(names, row))
        assert outcome(lambda: cls(**kwargs), names) == outcome(lambda: twin(**kwargs), names)
        made.append(cls(*row))
        twins.append(twin(*row))
    # Equal, separately built records; and equality with another type.
    made.append(cls(*data[0]))
    twins.append(twin(*data[0]))
    for (a, b), (ta, tb) in zip(iproduct(made, repeat=2), iproduct(twins, repeat=2)):
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert (made[0] == 0) == (twins[0] == 0) == False  # noqa: E712

    required = [f for f, expr in fields if expr is None]
    first = dict(zip(names, data[0]))
    minimal = {f: first[f] for f in required}
    assert outcome(lambda: cls(**minimal), names) == outcome(lambda: twin(**minimal), names)

    for field, value in zip(names, data[1]):
        assert outcome(lambda: replace(made[0], **{field: value}), names) == outcome(
            lambda: dataclasses.replace(twins[0], **{field: value}), names
        )
    assert outcome(lambda: replace(made[0]), names) == outcome(
        lambda: dataclasses.replace(twins[0]), names
    )
    assert outcome(lambda: replace(made[0], nonfield=1), names)[0] == "TypeError"

    with pytest.raises(FrozenRecordError):
        setattr(made[0], names[0], data[1][0])
    with pytest.raises(FrozenRecordError):
        delattr(made[0], names[0])
    assert issubclass(FrozenRecordError, AttributeError)


def test_fresh_defaults_are_made_per_record():
    a, b = Workspace(), Workspace()
    assert a == b and a.signatures == {} and a.signatures is not b.signatures


def _cached(obj) -> dict:
    """The cached properties of a record, or of a record class."""
    cls = obj if isinstance(obj, type) else type(obj)
    return {name: v for name, v in vars(cls).items() if isinstance(v, cached_property)}


def test_cached_properties_compute_once_and_store_on_the_record():
    examples = [
        fx.BDL,
        FiniteAlgebra(fx.CHAIN2.name, fx.CHAIN2.signature, fx.CHAIN2.size, fx.CHAIN2.tables),
        fx.PP_COMPL,
        PartialOperation(fx.CHAIN2, 1, (((0,), 1), ((1,), 0))),
    ]
    every = {
        (n, a)
        for m, n, *_ in DECLARATIONS
        for a in _cached(getattr(importlib.import_module(f"qvbench.{m}"), n))
    }
    assert {(type(x).__name__, a) for x in examples for a in _cached(x)} == every
    for obj in examples:
        for name, prop in _cached(obj).items():
            value = getattr(obj, name)
            assert vars(obj)[name] is value is getattr(obj, name)
            assert prop.func(obj) == value
    assert fx.BDL.arities == {"meet": 2, "join": 2, "bot": 0, "top": 0}
    assert examples[3].as_dict == {(0,): 1, (1,): 0}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Set-up work: building the records imports no `dataclasses`, and with
    it no `inspect`, in a fresh interpreter."""
    code = "import sys, qvbench.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
