"""Command-line front end: JSON in, JSON out, schema "ttow/1".

Exit codes: 0 success, 2 validation error (bad input), 3 computational
error.  Errors are emitted as structured JSON on standard error.
"""

import argparse
import functools
import sys

from .annihilator import ann_operator
from .categories import (
    Homotopism,
    TensorCategory,
    compose_homotopisms,
    composability_verdict,
    verify_homotopism,
)
from .errors import ComputationError, TtowError, ValidationError
from .fields import QQ, PrimeField
from .fixtures import FIXTURE_NAMES, named_fixture
from .galois import densor, named_algebra, ten_closure
from .groebner import Ideal
from .jsonio import (
    SCHEMA,
    _parse_scalar,
    _require,
    _scalar_out,
    complex_to_json,
    dumps,
    ideal_to_json,
    load_file,
    operator_from_json,
    operator_to_json,
    poly_from_json,
    subframe_from_json,
    tensor_from_json,
    tensor_to_json,
    verdict_to_json,
)
from .polys import order_from_name, poly_from_string
from .singularity import (
    monomial_trait_probe,
    nabla_complex,
    sr_ideal_of_subframe,
    verify_singularity_theorem,
)
from .tensors import Frame


def _parse_field(text):
    if text in (None, "rational"):
        return QQ
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"--field {text}: the prime is not an integer") from None
        return PrimeField(p)
    raise ValidationError(f"unknown field spec: {text}")


def _parse_bounds(text):
    if text is None:
        return None
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"--degree-bound {text}: expected integers") from None


class _Parser(argparse.ArgumentParser):
    """Bad or missing flags are validation errors, reported as JSON like
    every other (subparsers inherit the class)."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser():
    ap = _Parser(prog="ttow")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fixture=True):
        p.add_argument("--field", default="rational")
        p.add_argument("--order", default="grevlex")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--degree-bound", dest="degree_bound", default=None)
        p.add_argument("--samples", type=int, default=40)
        if fixture:
            p.add_argument("--fixture", default=None)
        p.add_argument("--in", dest="infile", default=None)
        p.add_argument("--out", dest="outfile", default=None)
        return p

    common(sub.add_parser("ann"))
    gb = common(sub.add_parser("gb"), fixture=False)
    gb.add_argument("--poly", action="append", default=[])
    gb.add_argument("--nvars", type=int, default=None)
    for name in ("der", "centroid", "adjoint", "densor"):
        common(sub.add_parser(name))
    nuc = common(sub.add_parser("nucleus"))
    nuc.add_argument("--axes", nargs=2, type=int, required=True)
    common(sub.add_parser("closure"))
    common(sub.add_parser("nabla")).add_argument("--subframe", required=True)
    common(sub.add_parser("verify-singularity")).add_argument("--subframe", required=True)
    comp = common(sub.add_parser("composable"), fixture=False)
    comp.add_argument("--poly", action="append", default=[])
    comp.add_argument("--nvars", type=int, default=None)
    hom = common(sub.add_parser("homotopism"), fixture=False)
    hom.add_argument("mode", choices=["verify", "compose"])
    common(sub.add_parser("fixtures"))
    common(sub.add_parser("probe"))
    return ap


def _load_tensor_and_op(args, field):
    if args.fixture:
        return named_fixture(args.fixture, field)
    if args.infile:
        obj = load_file(args.infile)
        if "tensor" in obj:
            t = tensor_from_json(obj["tensor"], None)
            out = {"tensor": t}
            if "operator" in obj:
                out["operator"] = operator_from_json(obj["operator"], t.frame)
            return out
        t = tensor_from_json(obj, None)
        return {"tensor": t}
    raise ValidationError("need --fixture or --in")


def _parse_polys(args, field):
    polys = []
    nvars = args.nvars
    if nvars is None:
        top = 0
        for text in args.poly:
            probe = poly_from_string(text, 8, field)
            for e in probe.terms:
                nz = [a for a, k in enumerate(e) if k]
                if nz:
                    top = max(top, max(nz))
        nvars = top + 1
    for text in args.poly:
        polys.append(poly_from_string(text, nvars, field))
    if args.infile and not polys:
        obj = load_file(args.infile)
        polys = [poly_from_json(p, field, nvars=None) for p in _require(obj, "polys", args.infile)]
    if not polys:
        raise ValidationError("no polynomials given")
    return polys


def _dispatch(args):
    field = _parse_field(args.field)
    order = order_from_name(args.order)
    cmd = args.command
    if cmd == "ann":
        data = _load_tensor_and_op(args, field)
        if "operator" not in data:
            raise ValidationError("ann needs an operator with the tensor")
        I = ann_operator(
            data["tensor"], data["operator"], _parse_bounds(args.degree_bound), order
        )
        return {"ideal": ideal_to_json(I)}
    if cmd == "gb":
        polys = _parse_polys(args, field)
        return {"ideal": ideal_to_json(Ideal(polys, order))}
    if cmd in ("der", "centroid", "nucleus", "adjoint"):
        t = _load_tensor_and_op(args, field)["tensor"]
        kind = {"der": "derivations"}.get(cmd, cmd)
        axes = tuple(args.axes) if cmd == "nucleus" else None
        space = named_algebra([t], kind, axes=axes)
        out = {
            "dimension": space.dimension,
            "basis": [operator_to_json(b) for b in space.basis],
            "closure": {"closed": True},
        }
        if cmd in ("centroid", "nucleus"):
            out["closure"]["unital"] = True
        return out
    if cmd == "densor":
        t = _load_tensor_and_op(args, field)["tensor"]
        space = densor([t])
        return {
            "dimension": space.dimension,
            "basis": [tensor_to_json(b) for b in space.basis],
        }
    if cmd == "closure":
        obj = load_file(args.infile) if args.infile else None
        if obj is None:
            raise ValidationError("closure needs --in")
        frame = Frame(tuple(_require(obj, "dims", args.infile)), field)
        polys = [
            poly_from_json(p, field, len(frame.dims))
            for p in _require(obj, "polys", args.infile)
        ]
        ops = [operator_from_json(o, frame) for o in _require(obj, "operators", args.infile)]
        space = ten_closure(polys, ops, frame)
        return {
            "dimension": space.dimension,
            "basis": [tensor_to_json(b) for b in space.basis],
        }
    if cmd in ("nabla", "verify-singularity"):
        t = _load_tensor_and_op(args, field)["tensor"]
        U = subframe_from_json(load_file(args.subframe), t.frame)
        if cmd == "nabla":
            cx = nabla_complex([t], U)
            return {
                "complex": complex_to_json(cx),
                "sr_ideal": ideal_to_json(sr_ideal_of_subframe(t, U, order)),
            }
        report = verify_singularity_theorem(
            t,
            U,
            degree_bound=_parse_bounds(args.degree_bound),
            sample_count=args.samples,
            seed=args.seed,
            order=order,
        )
        return {
            "holds": report["holds"],
            "ideal": ideal_to_json(report["ideal"]),
            "sr_ideal": ideal_to_json(report["sr_ideal"]),
            "complex": complex_to_json(report["complex"]),
        }
    if cmd == "composable":
        polys = _parse_polys(args, field)
        return {"verdict": verdict_to_json(composability_verdict(polys, order))}
    if cmd == "homotopism":
        obj = load_file(args.infile) if args.infile else None
        if obj is None:
            raise ValidationError("homotopism needs --in")
        if args.mode == "verify":
            return {"holds": verify_homotopism(*_morphism_parts(obj, args.infile))}
        f = Homotopism(*_morphism_parts(_require(obj, "f", args.infile), "f"))
        g = Homotopism(*_morphism_parts(_require(obj, "g", args.infile), "g"))
        h = compose_homotopisms(f, g)
        return {
            "src": tensor_to_json(h.src),
            "dst": tensor_to_json(h.dst),
            "maps": _maps_to_json(h.maps, h.src.frame.field),
            "variance": list(h.cat.variance),
        }
    if cmd == "probe":
        data = _load_tensor_and_op(args, field)
        if "operator" not in data:
            raise ValidationError("probe needs an operator with the tensor")
        found = monomial_trait_probe(data["tensor"], data["operator"])
        if found is None:
            return {"monomial": None}
        e, cx = found
        return {"monomial": list(e), "complex": complex_to_json(cx)}
    if cmd == "fixtures":
        if not args.fixture:
            return {"available": FIXTURE_NAMES}
        data = named_fixture(args.fixture, field)
        out = {"name": args.fixture, "tensor": tensor_to_json(data["tensor"])}
        if "operator" in data:
            out["operator"] = operator_to_json(data["operator"])
        return out
    raise ValidationError(f"unknown command: {cmd}")


def _parse_maps(maps, field):
    return [
        None
        if m is None
        else [[_parse_scalar(field, x, "homotopism 'maps'") for x in row] for row in m]
        for m in maps
    ]


def _maps_to_json(maps, field):
    return [
        None if m is None else [[_scalar_out(field, x) for x in row] for row in m]
        for m in maps
    ]


def _morphism_parts(obj, what):
    """(src, dst, maps, category) of a homotopism object."""
    s = tensor_from_json(_require(obj, "src", what), None)
    t = tensor_from_json(_require(obj, "dst", what), None)
    cat = TensorCategory(s.frame.valence, obj.get("variance"))
    maps = _parse_maps(_require(obj, "maps", what), s.frame.field)
    return s, t, maps, cat


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = _dispatch(args)
    except ValidationError as exc:
        sys.stderr.write(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except ComputationError as exc:
        sys.stderr.write(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3
    except TtowError as exc:
        sys.stderr.write(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    payload = {"schema": SCHEMA, "command": args.command}
    payload.update(result)
    text = dumps(payload)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
