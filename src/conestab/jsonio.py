"""JSON schemas for cones, problems, points, and pairs.

Cone: {"product": [{"psd": {"order": 2, "sign": "plus"}},
                   {"orthant": {"dim": 1, "sign": "plus"}},
                   {"soc": {"dim": 3, "sign": "plus"}},
                   {"zero": {"dim": 2}}, {"free": {"dim": 2}}]}
Problem: {"cone": ..., "mapping": {"builtin": "example1"}
                        | {"affine": {"A": [[...]], "b": [...]}}
                        | {"quadratic": {"Q_list": [...], "A": ..., "b": ...}}}
Matrices are dense row-major lists.
"""

import json
import numpy as np

from .cone_core import ConeDesc, Orthant, SOC, PSD, Zero, Free
from .constraint_system import (
    example1_system, example3_system, section32_system, affine_system,
    quadratic_system,
)

__all__ = ["parse_cone", "emit_cone", "parse_problem", "load_json",
           "SchemaError"]


class SchemaError(ValueError):
    """Input file does not match the documented schema."""


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _field(obj, key, where, kind=object):
    """Field `key` of `obj`, which must be there and a `kind` (the Python
    type of a JSON object, list or string)."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    if not isinstance(obj[key], kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got "
                          f"{type(obj[key]).__name__}")
    return obj[key]


_NESTED = {1: "a flat list of numbers", 2: "a matrix", 3: "a list of matrices"}


def _array(obj, key, where, ndim):
    """Field `key` of `obj` as a float array; SchemaError unless it is
    `_NESTED[ndim]`, rectangular and finite."""
    value = _field(obj, key, where)
    try:
        arr = np.asarray(value, float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}.{key}: {exc}") from exc
    if arr.ndim != ndim:
        raise SchemaError(f"{where}.{key}: expected {_NESTED[ndim]}, got "
                          f"shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}.{key}: not finite (a NaN or infinite "
                          "entry)")
    return arr


def _vector(obj, key, where, default=None):
    """Field `key` of `obj` as a float vector; `default` when the field is
    absent and a default is given."""
    if default is not None and isinstance(obj, dict) and key not in obj:
        return default
    return _array(obj, key, where, 1)


# block kind -> (class, size key); Zero and Free carry no sign
_KINDS = {"orthant": (Orthant, "dim"), "soc": (SOC, "dim"),
          "psd": (PSD, "order"), "zero": (Zero, "dim"), "free": (Free, "dim")}
_KIND_OF = {cls: (kind, key) for kind, (cls, key) in _KINDS.items()}


def parse_cone(obj) -> ConeDesc:
    blocks = []
    for i, entry in enumerate(_field(obj, "product", "cone", list)):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise SchemaError(f"cone.product[{i}]: expected one-key object")
        kind, spec = next(iter(entry.items()))
        if kind not in _KINDS:
            raise SchemaError(f"cone.product[{i}]: unknown kind {kind!r}")
        cls, key = _KINDS[kind]
        try:
            size = spec[key]
            if type(size) is not int or size < 1:  # a bool is not an int
                raise ValueError(f"{key} must be an integer >= 1, got "
                                 f"{size!r}")
            blocks.append(cls(size, spec.get("sign", "plus")) if cls.signed
                          else cls(size))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"cone.product[{i}].{kind}: {exc}") from exc
    if not blocks:
        raise SchemaError("cone.product: empty")
    return ConeDesc(blocks)


def emit_cone(K: ConeDesc):
    out = []
    for b in K.blocks:
        if type(b) not in _KIND_OF:
            raise SchemaError(f"unknown block type {type(b).__name__}")
        kind, key = _KIND_OF[type(b)]
        spec = {key: b.size}
        if b.signed:
            spec["sign"] = "plus" if b.sign > 0 else "minus"
        out.append({kind: spec})
    return {"product": out}


_BUILTINS = {
    "example1": example1_system,
    "example3": example3_system,
    "section32_scalar": section32_system,
    "section32": section32_system,
}


def parse_problem(obj):
    """Returns the ConstraintSystem of a problem object."""
    mapping = _field(obj, "mapping", "problem", dict)
    if "builtin" in mapping:
        name = _field(mapping, "builtin", "mapping", str)
        if name not in _BUILTINS:
            raise SchemaError(f"mapping.builtin: unknown builtin {name!r}")
        return _BUILTINS[name]()
    cone = parse_cone(_field(obj, "cone", "problem"))
    if "affine" in mapping:
        spec, where = mapping["affine"], "mapping.affine"
        return affine_system(cone, _array(spec, "A", where, 2),
                             _vector(spec, "b", where))
    if "quadratic" in mapping:
        spec, where = mapping["quadratic"], "mapping.quadratic"
        return quadratic_system(cone, _array(spec, "Q_list", where, 3),
                                _array(spec, "A", where, 2),
                                _vector(spec, "b", where))
    raise SchemaError("mapping: expected builtin | affine | quadratic")
