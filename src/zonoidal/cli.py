"""Command-line front end: JSON in, JSON out, reproducible seeds.

Every library operation is reachable from exactly one command (see
COMMAND_OPS); the exterior-algebra module and the callback-based
induced_map are in-process APIs with no command surface.

Exit codes: 0 success, 2 schema error, 3 precondition violation.
Errors print {"error": {"code": ..., "message": ...}} on standard
error.  Floats are serialized with 17 significant digits so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import algebra, jvolume, measures, randomdet
from .zonotope import (
    VirtualZonotope,
    Zonotope,
    canonicalize,
    hausdorff_estimate,
    length,
    linear_image,
    minkowski_sum,
    radius,
    radius_bounds,
    scale,
    support,
    support_many,
    virtual_add,
    virtual_length,
    virtual_negate,
    virtual_support,
    zonotope,
    zonotope_from_dict,
    zonotope_to_dict,
)

# Designated command surface of each library operation (coverage is
# tested: every op appears exactly once).
COMMAND_OPS = {
    "support": ["support", "support_many", "virtual_support"],
    "sum": ["minkowski_sum", "virtual_add", "canonicalize"],
    "scale": ["scale", "linear_image", "virtual_negate"],
    "length": ["length", "virtual_length"],
    "radius": ["radius", "radius_bounds"],
    "hausdorff": ["hausdorff_estimate"],
    "tensor": ["tensor_product", "virtual_tensor"],
    "wedge": ["wedge_product"],
    "power": ["wedge_power"],
    "hodge": ["hodge_star_zonoid"],
    "projbody": ["projection_body"],
    "mv": ["mixed_volume", "af_gap", "reverse_af_gap"],
    "vol": ["volume"],
    "intrinsic": ["intrinsic_volume"],
    "mvj": ["mixed_J_volume", "complex_wedge_zonoids", "disc_zonotope"],
    "jvol": [
        "j_volume_zonotope",
        "j_volume_polytope_mc",
        "normal_angle_mc",
        "zonotope_face_data",
    ],
    "kaza": ["kazarnovskii_zonotope", "kazarnovskii_polytope_mc"],
    "sigma-j": ["sigma_J"],
    "edet": [
        "expected_abs_det_exact",
        "expected_abs_det_mc",
        "vitale_zonotope",
        "empirical_zonotope",
    ],
    "edet-complex": [
        "expected_abs_det_complex_exact",
        "expected_abs_det_complex_mc",
    ],
    "edet-sq-complex": ["expected_sq_abs_det_complex"],
    "bm-probe": ["bm_concavity_probe", "bernoulli_mixture"],
    "measure": [
        "zonotope_to_measure",
        "measure_to_zonotope",
        "cosine_transform_eval",
        "signed_measure_to_virtual",
    ],
    "constants": [
        "tau",
        "multivariate_gamma",
        "expected_simple_wedge_norm",
        "gaussian_abs_det",
        "complex_gaussian_abs_det",
        "j_ball_volume",
    ],
}

SCHEMA_HELP = """\
JSON schemas:
  zonotope      {"ambient_dim": D, "grading": {"base_dim": m, "degree": k} | null,
                 "generators": [[..D numbers..], ...]}
                optional "cgrading": {"complex_dim": n, "degree": k} for
                realified complex zonoids; string entries are exact rationals
  virtual       {"plus": <zonotope>, "minus": <zonotope>}
  measure       {"atoms": [[..unit vector..], ...], "weights": [...]}
  face data     {"ambient_dim": 2n, "vertices": [[...]], "n_faces": [[idx, ...], ...]}
  distribution  {"atoms": [[...]], "probs": [...]}   (complex atoms: [re, im] pairs)
  block model   {"size": m, "complex": false,
                 "blocks": [{"width": w, "dist": <distribution>}
                            | {"width": w, "sampler": {"kind": "gaussian", "seed": 0}}]}
  subspace      {"ambient_dim": D, "basis": [[...]]}
  vectors       {"vectors": [[[re, im], ...], ...]}   (complex vectors)

Numeric results: {"value": ..., "stderr": ..., "interval": [lo, hi]}
(stderr/interval only where meaningful); structured results use the
schemas above.
"""


class SchemaError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


# ---------------------------------------------------------------------------
# JSON emission with deterministic float formatting


def _fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in output")
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Input parsing


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}") from e


def _load_body(path: str, exact: bool):
    """Zonotope or virtual zonotope from a file."""
    d = _load_json(path)
    try:
        if isinstance(d, dict) and "plus" in d:
            return VirtualZonotope(
                zonotope_from_dict(d["plus"], exact),
                zonotope_from_dict(d["minus"], exact),
            )
        return zonotope_from_dict(d, exact)
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"malformed zonotope in {path}: {e}") from e


def _load_zonotope(path: str, exact: bool) -> Zonotope:
    K = _load_body(path, exact)
    if isinstance(K, VirtualZonotope):
        raise SchemaError(f"{path}: expected a plain zonotope, got a virtual one")
    return K


def _parse_vector(text: str, exact: bool = False) -> np.ndarray:
    try:
        if text.strip().startswith("["):
            vals = json.loads(text)
        else:
            vals = [v for v in text.split(",") if v.strip()]
        if exact:
            out = np.empty(len(vals), dtype=object)
            out[:] = [Fraction(str(v)) for v in vals]
            return out
        return np.asarray([float(v) for v in vals], dtype=np.float64)
    except (ValueError, json.JSONDecodeError) as e:
        raise SchemaError(f"bad vector {text!r}: {e}") from e


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [r for r in text.split(";") if r.strip()]
        return np.asarray([[float(v) for v in r.split(",")] for r in rows])
    except ValueError as e:
        raise SchemaError(f"bad matrix {text!r}: {e}") from e


def _complex_vectors(d: dict) -> np.ndarray:
    try:
        vecs = d["vectors"]
        out = np.asarray(
            [[complex(p[0], p[1]) for p in vec] for vec in vecs], dtype=np.complex128
        )
        return out
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"malformed complex vectors: {e}") from e


def _body_dict(K) -> dict:
    if isinstance(K, VirtualZonotope):
        return {"plus": zonotope_to_dict(K.plus), "minus": zonotope_to_dict(K.minus)}
    return zonotope_to_dict(K)


def _as_virtual(K) -> VirtualZonotope:
    if isinstance(K, VirtualZonotope):
        return K
    return VirtualZonotope(K, zonotope([], ambient_dim=K.ambient_dim))


# ---------------------------------------------------------------------------
# Command handlers (each returns the payload to print)


def _cmd_support(args):
    K = _load_body(args.files[0], args.exact_rational)
    dirs = [_parse_vector(t, args.exact_rational and not isinstance(K, VirtualZonotope))
            for t in args.dir]
    if isinstance(K, VirtualZonotope):
        vals = [virtual_support(K, u) for u in dirs]
    elif len(dirs) > 1 and not K.exact:
        vals = list(support_many(K, np.asarray(dirs)))
    else:
        vals = [support(K, u) for u in dirs]
    return {"value": vals[0] if len(vals) == 1 else vals}


def _cmd_sum(args):
    bodies = [_load_body(f, args.exact_rational) for f in args.files]
    if any(isinstance(b, VirtualZonotope) for b in bodies):
        acc = _as_virtual(bodies[0])
        for b in bodies[1:]:
            acc = virtual_add(acc, _as_virtual(b))
        return _body_dict(acc)
    acc = canonicalize(bodies[0])
    for b in bodies[1:]:
        acc = minkowski_sum(acc, b)
    return _body_dict(acc)


def _cmd_scale(args):
    K = _load_body(args.files[0], args.exact_rational)
    if args.matrix is not None:
        M = _parse_matrix(args.matrix)
        if isinstance(K, VirtualZonotope):
            out = VirtualZonotope(
                linear_image(M, K.plus), linear_image(M, K.minus)
            )
        else:
            out = linear_image(M, K)
        return _body_dict(out)
    if args.factor is None:
        raise SchemaError("scale needs --factor or --matrix")
    lam = args.factor
    if isinstance(K, VirtualZonotope):
        if lam < 0:
            out = virtual_negate(
                VirtualZonotope(scale(K.plus, -lam), scale(K.minus, -lam))
            )
        else:
            out = VirtualZonotope(scale(K.plus, lam), scale(K.minus, lam))
        return _body_dict(out)
    return _body_dict(scale(K, lam))


def _cmd_length(args):
    K = _load_body(args.files[0], args.exact_rational)
    if isinstance(K, VirtualZonotope):
        return {"value": virtual_length(K)}
    return {"value": length(K)}


def _cmd_radius(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    if args.mode == "exact":
        return {"value": radius(K)}
    lo, hi = radius_bounds(K, net_count=args.samples, seed=args.seed)
    return {"value": 0.5 * (lo + hi), "interval": [lo, hi]}


def _cmd_hausdorff(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    L = _load_zonotope(args.files[1], args.exact_rational)
    lo, hi = hausdorff_estimate(K, L, delta=args.net, seed=args.seed)
    return {"value": 0.5 * (lo + hi), "interval": [lo, hi]}


def _cmd_tensor(args):
    A = _load_body(args.files[0], args.exact_rational)
    B = _load_body(args.files[1], args.exact_rational)
    if isinstance(A, VirtualZonotope) or isinstance(B, VirtualZonotope):
        return _body_dict(algebra.virtual_tensor(_as_virtual(A), _as_virtual(B)))
    return _body_dict(algebra.tensor_product(A, B))


def _cmd_wedge(args):
    A = _load_zonotope(args.files[0], args.exact_rational)
    B = _load_zonotope(args.files[1], args.exact_rational)
    return _body_dict(algebra.wedge_product(A, B))


def _cmd_power(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return _body_dict(algebra.wedge_power(K, args.degree))


def _cmd_hodge(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return _body_dict(algebra.hodge_star_zonoid(K))


def _cmd_projbody(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return _body_dict(algebra.projection_body(K))


def _cmd_mv(args):
    Ks = [_load_zonotope(f, args.exact_rational) for f in args.files]
    if args.af_gap:
        if len(Ks) < 2:
            raise SchemaError("--af-gap needs at least two zonotopes")
        return {"value": algebra.af_gap(Ks[0], Ks[1], companions=Ks[2:])}
    if args.reverse_af:
        if args.degrees is None:
            raise SchemaError("--reverse-af needs --degrees")
        degrees = [int(v) for v in args.degrees.split(",") if v.strip()]
        return {"value": algebra.reverse_af_gap(Ks, degrees)}
    return {"value": algebra.mixed_volume(Ks)}


def _cmd_vol(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return {"value": algebra.volume(K)}


def _cmd_intrinsic(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return {"value": algebra.intrinsic_volume(K, args.degree)}


def _require_cgrading_tag(K: Zonotope, path: str) -> Zonotope:
    if K.cgrading is None:
        if K.ambient_dim % 2:
            raise SchemaError(f"{path}: odd ambient dimension for a complex zonoid")
        from dataclasses import replace

        return replace(K, cgrading=(K.ambient_dim // 2, 1))
    return K


def _cmd_mvj(args):
    if args.discs:
        d = _load_json(args.files[0])
        Z = _complex_vectors(d)
        bodies = [jvolume.disc_zonotope(z, args.q) for z in Z]
    else:
        bodies = [
            _require_cgrading_tag(_load_zonotope(f, args.exact_rational), f)
            for f in args.files
        ]
    if args.wedge:
        return _body_dict(jvolume.complex_wedge_zonoids(*bodies))
    return {"value": jvolume.mixed_J_volume(*bodies)}


def _cmd_jvol(args):
    if args.faces is not None:
        P = jvolume.face_data_from_dict(_load_json(args.faces))
        if args.theta is not None:
            val, se = jvolume.normal_angle_mc(P, args.theta, args.samples, args.seed)
        else:
            val, se = jvolume.j_volume_polytope_mc(P, args.samples, args.seed)
        return {"value": val, "stderr": se}
    if args.files is None:
        raise SchemaError("jvol needs a zonotope file or --faces")
    K = _load_zonotope(args.files, args.exact_rational)
    if args.make_faces:
        return jvolume.face_data_to_dict(jvolume.zonotope_face_data(K))
    return {"value": jvolume.j_volume_zonotope(K)}


def _cmd_kaza(args):
    if args.faces is not None:
        P = jvolume.face_data_from_dict(_load_json(args.faces))
        val, se = jvolume.kazarnovskii_polytope_mc(P, args.samples, args.seed)
        return {"value": val, "stderr": se}
    if args.files is None:
        raise SchemaError("kaza needs a zonotope file or --faces")
    K = _load_zonotope(args.files, args.exact_rational)
    return {"value": jvolume.kazarnovskii_zonotope(K)}


def _cmd_sigma_j(args):
    d = _load_json(args.files[0])
    try:
        E = jvolume.Subspace(int(d["ambient_dim"]), np.asarray(d["basis"], dtype=np.float64))
    except (KeyError, TypeError) as e:
        raise SchemaError(f"malformed subspace: {e}") from e
    return {"value": jvolume.sigma_J(E)}


def _cmd_edet(args):
    if args.vitale:
        dist = randomdet.distribution_from_dict(_load_json(args.files[0]))
        return _body_dict(randomdet.vitale_zonotope(dist))
    if args.empirical:
        d = _load_json(args.files[0])
        try:
            dist = None
            if "dist" in d:
                dist = randomdet.distribution_from_dict(d["dist"])
            sampler = randomdet.SeededSampler(
                kind=d["kind"], dimension=int(d["dimension"]),
                seed=int(d.get("seed", args.seed)), dist=dist,
            )
        except (KeyError, TypeError) as e:
            raise SchemaError(f"malformed sampler: {e}") from e
        return _body_dict(randomdet.empirical_zonotope(sampler, args.samples))
    model = _load_model(args.files[0])
    if args.mode == "exact":
        return {"value": randomdet.expected_abs_det_exact(model)}
    val, se = randomdet.expected_abs_det_mc(model, args.samples, args.seed)
    return {"value": val, "stderr": se}


def _load_model(path: str):
    try:
        return randomdet.model_from_dict(_load_json(path))
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"malformed block model in {path}: {e}") from e


def _cmd_edet_complex(args):
    model = _load_model(args.files[0])
    if args.mode == "exact":
        return {"value": randomdet.expected_abs_det_complex_exact(model)}
    val, se = randomdet.expected_abs_det_complex_mc(model, args.samples, args.seed)
    return {"value": val, "stderr": se}


def _cmd_edet_sq_complex(args):
    model = _load_model(args.files[0])
    return {"value": randomdet.expected_sq_abs_det_complex(model)}


def _cmd_bm_probe(args):
    d1 = randomdet.distribution_from_dict(_load_json(args.files[0]))
    d2 = randomdet.distribution_from_dict(_load_json(args.files[1]))
    companions = None
    if args.companions is not None:
        cd = _load_json(args.companions)
        try:
            companions = np.asarray(cd["columns"], dtype=np.float64).T
        except (KeyError, TypeError) as e:
            raise SchemaError(f"malformed companions: {e}") from e
    t_grid = None
    if args.t_grid is not None:
        t_grid = [float(v) for v in args.t_grid.split(",") if v.strip()]
    curve = randomdet.bm_concavity_probe(
        d1, d2, args.d, companions=companions, t_grid=t_grid,
        n=args.samples if args.mc else 0, seed=args.seed,
    )
    return {"curve": [[t, v, se] for (t, v, se) in curve]}


def _cmd_measure(args):
    if args.to:
        K = _load_zonotope(args.files[0], args.exact_rational)
        return measures.measure_to_dict(measures.zonotope_to_measure(K))
    mu = measures.measure_from_dict(_load_json(args.files[0]), args.exact_rational)
    if args.eval_dir is not None:
        u = _parse_vector(args.eval_dir, args.exact_rational)
        return {"value": measures.cosine_transform_eval(mu, u)}
    if mu.is_nonnegative():
        return _body_dict(measures.measure_to_zonotope(mu))
    return _body_dict(measures.signed_measure_to_virtual(mu))


def _cmd_constants(args):
    name = args.name
    if name == "tau":
        return {"value": randomdet.tau(args.m)}
    if name == "gamma-k":
        return {"value": randomdet.multivariate_gamma(args.k, args.x)}
    if name == "wedge-norm":
        return {"value": randomdet.expected_simple_wedge_norm(args.k, args.m)}
    if name == "gaussian-edet":
        return {"value": randomdet.gaussian_abs_det(args.m)}
    if name == "complex-gaussian-edet":
        return {"value": randomdet.complex_gaussian_abs_det(args.n)}
    if name == "j-ball":
        return {"value": randomdet.j_ball_volume(args.n)}
    raise SchemaError(f"unknown constant {name!r}")


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    common.add_argument("--samples", type=int, default=100000,
                        help="Monte Carlo sample count / net size")
    common.add_argument("--net", type=float, default=1e-3,
                        help="angular resolution for direction nets")
    common.add_argument("--exact-rational", action="store_true",
                        help="read numeric entries as exact rationals")

    p = _Parser(
        prog="zonoid",
        description="Zonotope calculus: products, volumes, J-volumes, "
        "expected determinants.",
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, nargs, help_, extra=None):
        sp = sub.add_parser(name, parents=[common], help=help_,
                            epilog=SCHEMA_HELP,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        sp.add_argument("files", nargs=nargs, help="input JSON file(s)")
        if extra:
            extra(sp)
        sp.set_defaults(handler=handler)
        return sp

    add("support", _cmd_support, 1, "support function h_K(u)",
        lambda sp: sp.add_argument("--dir", action="append", required=True,
                                   help="direction, comma-separated or JSON"))
    add("sum", _cmd_sum, "+", "Minkowski sum (one file: canonical form)")
    add("scale", _cmd_scale, 1, "scale by a factor or apply a matrix",
        lambda sp: (sp.add_argument("--factor", type=float),
                    sp.add_argument("--matrix", help="rows ';'-separated")))
    add("length", _cmd_length, 1, "length (first intrinsic volume)")
    add("radius", _cmd_radius, 1, "radius: exact or certified bounds",
        lambda sp: sp.add_argument("--mode", choices=["exact", "bounds"],
                                   default="exact"))
    add("hausdorff", _cmd_hausdorff, 2, "Hausdorff distance interval")
    add("tensor", _cmd_tensor, 2, "tensor product of two zonotopes")
    add("wedge", _cmd_wedge, 2, "wedge product of graded zonotopes")
    add("power", _cmd_power, 1, "d-fold wedge power",
        lambda sp: sp.add_argument("--degree", type=int, required=True))
    add("hodge", _cmd_hodge, 1, "Hodge star, generator-wise")
    add("projbody", _cmd_projbody, 1, "projection body")
    add("mv", _cmd_mv, "+", "mixed volume; AF inequality probes",
        lambda sp: (sp.add_argument("--af-gap", action="store_true"),
                    sp.add_argument("--reverse-af", action="store_true"),
                    sp.add_argument("--degrees", help="comma-separated d_i")))
    add("vol", _cmd_vol, 1, "volume")
    add("intrinsic", _cmd_intrinsic, 1, "intrinsic volume V_d",
        lambda sp: sp.add_argument("--degree", type=int, required=True))
    add("mvj", _cmd_mvj, "+", "mixed J-volume of complex zonoids",
        lambda sp: (sp.add_argument("--discs", action="store_true",
                                    help="files hold complex vectors; use "
                                         "2q-gon disc models"),
                    sp.add_argument("--q", type=int, default=64),
                    sp.add_argument("--wedge", action="store_true",
                                    help="emit the complex wedge zonotope")))
    add("jvol", _cmd_jvol, "?", "J-volume: exact zonotope path or face MC",
        lambda sp: (sp.add_argument("--faces", help="face-data JSON file"),
                    sp.add_argument("--theta", type=int,
                                    help="normal angle of one face index"),
                    sp.add_argument("--make-faces", action="store_true",
                                    help="emit face data for a zonotope")))
    add("kaza", _cmd_kaza, "?", "Kazarnovskii pseudovolume",
        lambda sp: sp.add_argument("--faces", help="face-data JSON file"))
    add("sigma-j", _cmd_sigma_j, 1, "sigma^J of a subspace")
    add("edet", _cmd_edet, 1, "expected |det| of a block model",
        lambda sp: (sp.add_argument("--mode", choices=["exact", "mc"],
                                    default="exact"),
                    sp.add_argument("--vitale", action="store_true",
                                    help="file is a distribution; emit its zonoid"),
                    sp.add_argument("--empirical", action="store_true",
                                    help="file is a sampler; emit the "
                                         "empirical zonoid of --samples draws")))
    add("edet-complex", _cmd_edet_complex, 1, "complex expected |det|",
        lambda sp: sp.add_argument("--mode", choices=["exact", "mc"],
                                   default="exact"))
    add("edet-sq-complex", _cmd_edet_sq_complex, 1,
        "exact E|det|^2 for complex columns")
    add("bm-probe", _cmd_bm_probe, 2, "concavity probe of t -> E^(1/d)",
        lambda sp: (sp.add_argument("--d", type=int, required=True),
                    sp.add_argument("--companions", help="fixed-columns JSON"),
                    sp.add_argument("--t-grid", help="comma-separated t values"),
                    sp.add_argument("--mc", action="store_true",
                                    help="Monte Carlo instead of exact")))
    add("measure", _cmd_measure, 1, "zonotope <-> even measure dictionary",
        lambda sp: (sp.add_argument("--to", action="store_true",
                                    help="zonotope file -> measure"),
                    sp.add_argument("--eval-dir",
                                    help="evaluate the cosine transform here")))

    csp = sub.add_parser("constants", parents=[common],
                         help="closed-form constants",
                         epilog=SCHEMA_HELP,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    csp.add_argument("name", choices=["tau", "gamma-k", "wedge-norm",
                                      "gaussian-edet", "complex-gaussian-edet",
                                      "j-ball"])
    csp.add_argument("--m", type=int, default=2)
    csp.add_argument("--k", type=int, default=1)
    csp.add_argument("--x", type=float, default=1.0)
    csp.add_argument("--n", type=int, default=1)
    csp.set_defaults(handler=_cmd_constants)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
    except SchemaError as e:
        sys.stderr.write(dumps({"error": {"code": 2, "message": str(e)}}) + "\n")
        return 2
    except KeyError as e:
        sys.stderr.write(dumps({"error": {"code": 2, "message": str(e)}}) + "\n")
        return 2
    except ValueError as e:
        sys.stderr.write(dumps({"error": {"code": 3, "message": str(e)}}) + "\n")
        return 3
    sys.stdout.write(dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
