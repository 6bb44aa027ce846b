"""JSON wire formats (schema "ttow/1") for tensors, operators,
polynomials, ideals, subframes, complexes, and verdicts.

Every emitter produces deterministic structures (sorted terms, explicit
field tags) so that identical jobs yield byte-identical output.
"""

import json

from .errors import DivisionByZero, ValidationError
from .fields import field_from_json
from .groebner import Ideal
from .operators import TransverseOperator
from .polys import GREVLEX, MultiPoly, poly_to_string
from .singularity import Subframe
from .tensors import Frame, Tensor

SCHEMA = "ttow/1"


def _require(obj, key, what):
    """obj[key] of a decoded JSON object, or a ValidationError naming the
    missing key and what the object was read as."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{what}: missing key {key!r}")
    return obj[key]


def _parse_scalar(field, x, what):
    """field.parse(x), or a ValidationError naming what x was read as."""
    try:
        return field.parse(x)
    except (ValueError, ZeroDivisionError, DivisionByZero) as exc:
        raise ValidationError(f"{what}: {x!r} is not a scalar of {field!r}") from exc


def _scalar_out(field, x):
    s = field.fmt(x)
    try:
        return int(s)
    except ValueError:
        return s


def tensor_to_json(t):
    field = t.frame.field
    entries = []
    for idx in t.frame.indices():
        val = t[idx]
        if not field.is_zero(val):
            entries.append({"idx": list(idx), "val": _scalar_out(field, val)})
    return {"field": field.to_json(), "dims": list(t.frame.dims), "entries": entries}


def tensor_from_json(obj, field=None):
    if field is None:
        field = field_from_json(_require(obj, "field", "tensor"))
    frame = Frame(tuple(_require(obj, "dims", "tensor")), field)
    if "dense" in obj:
        coeffs = [_parse_scalar(field, x, "tensor 'dense'") for x in obj["dense"]]
        return Tensor(frame, coeffs)
    t = Tensor.zero(frame)
    for entry in obj.get("entries", []):
        idx = _require(entry, "idx", "tensor entry")
        if not (
            isinstance(idx, (list, tuple))
            and len(idx) == len(frame.dims)
            and all(type(i) is int and 0 <= i < d for i, d in zip(idx, frame.dims))
        ):
            raise ValidationError(
                f"tensor entry: idx {idx!r} is not an index of dims {list(frame.dims)}"
            )
        val = _require(entry, "val", "tensor entry")
        t.coeffs[frame.flat(idx)] = _parse_scalar(field, val, "tensor entry 'val'")
    return t


def operator_to_json(omega):
    field = omega.frame.field
    return {
        "matrices": [
            [[_scalar_out(field, x) for x in row] for row in m] for m in omega.mats
        ],
        "variance": list(omega.variance),
    }


def operator_from_json(obj, frame):
    field = frame.field
    mats = [
        [[_parse_scalar(field, x, "operator 'matrices'") for x in row] for row in m]
        for m in _require(obj, "matrices", "operator")
    ]
    return TransverseOperator(frame, mats, obj.get("variance"))


def poly_to_json(p, order=GREVLEX):
    field = p.field
    terms = sorted(p.terms, key=order.key, reverse=True)
    return {
        "terms": [
            {"coeff": _scalar_out(field, p.terms[e]), "exp": list(e)} for e in terms
        ]
    }


def poly_from_json(obj, field, nvars=None):
    terms = {}
    for term in _require(obj, "terms", "polynomial"):
        e = tuple(int(k) for k in _require(term, "exp", "polynomial term"))
        if nvars is not None and len(e) != nvars:
            raise ValidationError("exponent length mismatch")
        c = _require(term, "coeff", "polynomial term")
        terms[e] = _parse_scalar(field, c, "polynomial term 'coeff'")
    if not terms:
        if nvars is None:
            raise ValidationError("cannot infer variable count of the zero polynomial")
        return MultiPoly.zero(field, nvars)
    n = nvars if nvars is not None else len(next(iter(terms)))
    return MultiPoly(field, n, terms)


def ideal_to_json(I):
    return {
        "field": I.field.to_json(),
        "nvars": I.nvars,
        "basis": [poly_to_json(g, I.order) for g in I.gb],
        "strings": [poly_to_string(g) for g in I.gb],
    }


def ideal_from_json(obj, order=GREVLEX):
    field = field_from_json(_require(obj, "field", "ideal"))
    nvars = _require(obj, "nvars", "ideal")
    gens = [poly_from_json(g, field, nvars) for g in _require(obj, "basis", "ideal")]
    return Ideal(gens, order) if gens else Ideal.zero(field, nvars, order)


def subframe_to_json(U):
    field = U.frame.field
    return {
        "axes": [
            {
                "axis": a,
                "basis": [[_scalar_out(field, x) for x in row] for row in rows],
            }
            for a, rows in enumerate(U.bases)
        ]
    }


def subframe_from_json(obj, frame):
    field = frame.field
    bases = [[] for _ in frame.dims]
    for ax in _require(obj, "axes", "subframe"):
        a = int(_require(ax, "axis", "subframe axis"))
        if not 0 <= a < len(frame.dims):
            raise ValidationError("subframe axis out of range")
        basis = _require(ax, "basis", "subframe axis")
        bases[a] = [
            [_parse_scalar(field, x, "subframe axis 'basis'") for x in row] for row in basis
        ]
    return Subframe(frame, bases)


def complex_to_json(cx):
    return {
        "ground": cx.ground_size,
        "facets": [sorted(f) for f in cx.facets()],
    }


def verdict_to_json(v):
    out = {"outcome": v.outcome}
    if v.reason is not None:
        out["reason"] = v.reason
    if v.outcome == "composable":
        out["A"] = v.A
        out["B"] = v.B
        out["witnesses"] = [
            {"e": list(e), "f": list(f)} for e, f in (v.witnesses or [])
        ]
    return out


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_file(path):
    """The decoded JSON of a file; a ValidationError naming the path if the
    file cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
