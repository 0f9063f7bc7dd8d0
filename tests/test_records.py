"""Every class of the package keeps its fields in slots."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import torusskein
from torusskein.assembly import Deg0, DegK
from torusskein.charvariety import AdmissiblePair, Component, TorusKnotConfig
from torusskein.skein import AnnularTangle, Multicurve

FROZEN = [
    TorusKnotConfig(2, 3),
    AdmissiblePair(1, 1),
    Component(TorusKnotConfig(2, 3), AdmissiblePair(1, 1)),
    Deg0(0, 0, 0),
    DegK(1, 0, 0),
    AnnularTangle(0),
    Multicurve(),
]


def package_classes():
    """The classes defined in torusskein's modules, exceptions aside
    (``__main__`` is not imported: it runs the CLI)."""
    for info in pkgutil.iter_modules(torusskein.__path__, f"{torusskein.__name__}."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and not issubclass(cls, BaseException):
                yield cls


def test_no_instance_has_a_dict():
    with_dict = sorted(cls.__qualname__ for cls in package_classes() if cls.__dictoffset__)
    assert with_dict == []


def test_frozen_records_refuse_assignment():
    frozen = {cls for cls in package_classes()
              if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen}
    assert frozen == {type(value) for value in FROZEN}
    for value in FROZEN:
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, 1)
        # with slots, Python 3.11's frozen __setattr__ raises TypeError, not
        # FrozenInstanceError, for a name that is no field; either refuses it
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
