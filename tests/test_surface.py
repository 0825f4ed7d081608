"""The package's settable surface: every value a caller can choose.

Counted are the fields of each public dataclass and the defaulted
parameters of each public function and public method (``__init__``
included) in ``src/cosmix``. A change that adds or removes one must
update ``EXPECTED`` on purpose; the failure message lists them all.
"""
import dataclasses
import importlib
import inspect
import pkgutil

import cosmix

EXPECTED = 96


def _defaulted(prefix, fn):
    return [f"{prefix}.{p.name}" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def settable_values():
    out = []
    for info in pkgutil.iter_modules(cosmix.__path__):
        mod = importlib.import_module(f"cosmix.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                out += _defaulted(where, obj)
            elif inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                if is_dc:
                    out += [f"{where}.{f.name}" for f in dataclasses.fields(obj)]
                for mname, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    public = not mname.startswith("_") or (mname == "__init__" and not is_dc)
                    if inspect.isfunction(member) and public:
                        out += _defaulted(f"{where}.{mname}", member)
    return out


def test_settable_value_count():
    values = settable_values()
    assert len(values) == EXPECTED, \
        f"{len(values)} settable values, expected {EXPECTED}:\n" + "\n".join(values)
