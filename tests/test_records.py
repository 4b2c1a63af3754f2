"""The record contract: every frozen record class gstf defines, found by
walking the package, with its repr bytes, equality, hash, immutability
and construction pinned."""

import ast
import importlib
import inspect
import math
import pathlib
import pkgutil

import numpy as np
import pytest

import gstf
from gstf import transforms
from gstf.catalog import (Bump, Const, Diff, FunctionSpec, Gaussian, Hermite,
                          Infix, Modulate, Poly, Product, Scale, SubExp, Sum,
                          Translate)
from gstf.classify import (ClassifyOptions, CriticalScale, EnvelopeReport,
                           GSIndex)
from gstf.grids import TFR, Grid1D, Record, SampledFunction, TFGrid
from gstf.toeplitz import ContinuityEntry, ContinuityReport
from gstf.witnesses import BoundaryCandidate, BoundaryReport


def _record_classes():
    found = {}
    for info in pkgutil.iter_modules(gstf.__path__):
        mod = importlib.import_module(f"gstf.{info.name}")
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and issubclass(obj, Record) and obj is not Record):
                found[obj.__name__] = obj
    return found


RECORDS = _record_classes()

_G = Grid1D(0.0, 0.5, 4)
_CS = CriticalScale(1.5, 2.0, 3.0, True)
_CS_REPR = ("CriticalScale(value=1.5, attained_at=2.0, bound_at=3.0, "
            "masked_edge=True)")
_ENTRY = ContinuityEntry(1.0, 2.0, "Member", "NotMember")
_CAND = BoundaryCandidate("gaussian(1.0)", True, "function", _CS, None)
_VALUES = np.arange(4, dtype=complex)
_TF_VALUES = np.zeros((4, 4), dtype=complex)
_G_REPR = "Grid1D(center=0.0, step=0.5, count=4)"
_GAUSS_REPR = "Gaussian(a=1.0)"

# class name -> (positional arguments, repr)
SAMPLES = {
    "FunctionSpec": ((), "FunctionSpec()"),
    "Const": ((1.5,), "Const(value=1.5)"),
    "Gaussian": ((1.0,), _GAUSS_REPR),
    "Hermite": ((3,), "Hermite(k=3)"),
    "Bump": ((), "Bump()"),
    "SubExp": ((2.0, 0.5), "SubExp(s=2.0, r=0.5)"),
    "Poly": ((2,), "Poly(k=2)"),
    "Translate": ((Gaussian(1.0), 0.5),
                  f"Translate(inner={_GAUSS_REPR}, x0=0.5)"),
    "Modulate": ((Gaussian(1.0), 2.0),
                 f"Modulate(inner={_GAUSS_REPR}, xi0=2.0)"),
    "Scale": ((Gaussian(1.0), -1.0), f"Scale(inner={_GAUSS_REPR}, c=-1.0)"),
    "Infix": ((Gaussian(1.0), Bump()),
              f"Infix(left={_GAUSS_REPR}, right=Bump())"),
    "Sum": ((Gaussian(1.0), Bump()), f"Sum(left={_GAUSS_REPR}, right=Bump())"),
    "Diff": ((Gaussian(1.0), Bump()),
             f"Diff(left={_GAUSS_REPR}, right=Bump())"),
    "Product": ((Gaussian(1.0), Bump()),
                f"Product(left={_GAUSS_REPR}, right=Bump())"),
    "GSIndex": ((1.0, math.inf, "roumieu"),
                "GSIndex(s=1.0, sigma=inf, regularity='roumieu')"),
    "ClassifyOptions": ((0.5, 4), "ClassifyOptions(r_scale=0.5, n_max=4)"),
    "CriticalScale": ((1.5, 2.0, 3.0, True), _CS_REPR),
    "EnvelopeReport": ((1.0, _CS, CriticalScale(math.inf), "Member"),
                       f"EnvelopeReport(C_peak=1.0, r_star={_CS_REPR}, "
                       "N_star=CriticalScale(value=inf, attained_at=None, "
                       "bound_at=None, masked_edge=False), verdict='Member')"),
    "Grid1D": ((0.0, 0.5, 4), _G_REPR),
    "TFGrid": ((_G, _G), f"TFGrid(xgrid={_G_REPR}, xigrid={_G_REPR})"),
    "SampledFunction": ((_G, _VALUES), f"SampledFunction(grid={_G_REPR})"),
    "TFR": ((TFGrid(_G, _G), _TF_VALUES),
            f"TFR(tfgrid=TFGrid(xgrid={_G_REPR}, xigrid={_G_REPR}))"),
    "ContinuityEntry": ((1.0, 2.0, "Member", "NotMember"),
                        "ContinuityEntry(r_star_in=1.0, r_star_out=2.0, "
                        "verdict_in='Member', verdict_out='NotMember')"),
    "ContinuityReport": (((_ENTRY,), True),
                         "ContinuityReport(entries=(ContinuityEntry("
                         "r_star_in=1.0, r_star_out=2.0, verdict_in='Member', "
                         "verdict_out='NotMember'),), all_member=True)"),
    "BoundaryCandidate": (("gaussian(1.0)", True, "function", _CS, None),
                          "BoundaryCandidate(name='gaussian(1.0)', "
                          f"failed=True, failing_side='function', "
                          f"r_star_x={_CS_REPR}, r_star_xi=None)"),
    "BoundaryReport": ((0.5, 0.5, (_CAND,), True),
                       "BoundaryReport(s=0.5, sigma=0.5, candidates=("
                       "BoundaryCandidate(name='gaussian(1.0)', failed=True, "
                       f"failing_side='function', r_star_x={_CS_REPR}, "
                       "r_star_xi=None),), all_failed=True)"),
}

# records holding an ndarray: equal by np.array_equal, unhashable
ARRAY_RECORDS = {"SampledFunction", "TFR"}
# the defaults of a record's trailing fields
DEFAULTS = {
    "ClassifyOptions": (1.0, 8),
    "CriticalScale": (None, None, False),
}

params = pytest.mark.parametrize("name", sorted(SAMPLES))


def _build(name):
    args, _ = SAMPLES[name]
    return RECORDS[name](*args)


def test_every_record_class_has_a_sample():
    assert set(RECORDS) == set(SAMPLES)


@params
def test_repr_bytes(name):
    assert repr(_build(name)) == SAMPLES[name][1]


@params
def test_equality_within_one_class(name):
    cls, args = RECORDS[name], SAMPLES[name][0]
    rec, again = cls(*args), cls(*args)
    assert rec == again and not rec != again
    assert rec != tuple(args) and tuple(args) != rec
    twin = type(name, (cls,), {})  # same fields, another class
    assert twin(*args) != rec and rec != twin(*args)


def test_same_fields_across_infix_classes_are_unequal():
    a, b = Gaussian(1.0), Bump()
    assert len({Sum(a, b), Diff(a, b), Product(a, b), Infix(a, b)}) == 4
    assert Sum(a, b) != Diff(a, b)


@params
def test_equal_records_hash_equal(name):
    rec, again = _build(name), _build(name)
    if name in ARRAY_RECORDS:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(again)
        assert {rec: 1}[again] == 1


@params
def test_fields_are_read_only(name):
    rec = _build(name)
    for field_name in type(rec)._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field_name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, field_name)
    assert repr(rec) == SAMPLES[name][1]


@params
def test_positional_keyword_and_default_construction(name):
    cls, (args, _) = RECORDS[name], SAMPLES[name]
    names = tuple(cls._fields)
    assert len(names) == len(args)
    rec = cls(**dict(zip(names, args)))
    assert rec == cls(*args)
    assert [getattr(rec, n) for n in names] == list(args)
    assert rec._asdict() == dict(zip(names, args))
    k = len(args) // 2
    assert cls(*args[:k], **dict(zip(names[k:], args[k:]))) == rec
    if name in DEFAULTS:
        defaults = DEFAULTS[name]
        head = args[:len(args) - len(defaults)]
        assert cls(*head) == cls(*head, *defaults)


@params
def test_bad_arguments_raise_type_error(name):
    cls, (args, _) = RECORDS[name], SAMPLES[name]
    names = tuple(cls._fields)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, args[0] if args else 0)  # one too many
    if names:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})  # given twice
    if len(names) > len(DEFAULTS.get(name, ())):
        with pytest.raises(TypeError):
            cls()  # missing


@params
def test_signature_lists_the_fields_and_defaults(name):
    cls = RECORDS[name]
    sig = inspect.signature(cls).parameters.values()
    assert [p.name for p in sig] == list(cls._fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in sig)
    defaults = tuple(p.default for p in sig if p.default is not p.empty)
    assert defaults == DEFAULTS.get(name, ())


def test_missing_argument_names_the_class():
    with pytest.raises(TypeError, match=r"^Grid1D\.__init__\(\) missing 1 "
                       r"required positional argument: 'count'$"):
        Grid1D(0.0, 0.5)


def test_plan_cache_hits_for_equal_grids_built_separately():
    def pair():
        g = Grid1D(0.0, 0.25, 64)
        return g, TFGrid(Grid1D(0.0, 1.0, 9), Grid1D(0.0, 0.5, 9))

    transforms._stft_plan(*pair())
    hits = transforms._stft_plan.cache_info().hits
    transforms._stft_plan(*pair())
    assert transforms._stft_plan.cache_info().hits == hits + 1


def test_no_module_imports_dataclasses():
    src = pathlib.Path(gstf.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in mods):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
