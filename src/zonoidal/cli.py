"""Command-line front end: JSON in, JSON out, reproducible seeds.

Each command is declared once, by ``@_command`` on its handler: its name,
input file count, help, the library operations it is the designated
command of, which of the shared flags in _SHARED it reads and its own
options.  build_parser builds one subparser per registered command, so a
command takes no flag it does not read; a handler refuses (``_refuse``)
a shared flag the command line gave to a mode that ignores it.  The
registry fills COMMAND_OPS: every library operation is reachable from
exactly one command.  The exterior-algebra module and the callback-based
induced_map are in-process APIs with no command surface.

Exit codes: 0 success, 2 schema error, 3 precondition violation.  Every
input file goes through _read, so a failure while a file becomes a library
object exits 2 and names the file; a failure while computing exits 3.
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
from .exterior import unrealify_rows
from .zonotope import (
    VirtualZonotope,
    Zonotope,
    _finite_floats,
    _integer,
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

SCHEMA_HELP = """\
JSON schemas:
  zonotope      {"ambient_dim": D, "grading": {"base_dim": m, "degree": k} | null,
                 "generators": [[..D numbers..], ...]}
                optional "cgrading": {"complex_dim": n, "degree": k} for
                realified complex zonoids; string entries are exact rationals
  virtual       {"plus": <zonotope>, "minus": <zonotope>}
  measure       {"ambient_dim"?: D, "atoms": [[..unit vector..], ...], "weights": [...]}
  face data     {"ambient_dim": 2n, "vertices": [[...]], "n_faces": [[idx, ...], ...]}
  distribution  {"atoms": [[...]], "probs": [...]}   (complex atoms: [re, im] pairs)
  block model   {"size": m, "complex": false,
                 "blocks": [{"width": w, "dist": <distribution>}
                            | {"width": w, "sampler": {"kind": "gaussian"}}]}
                (sampler blocks draw from the --seed stream)
  subspace      {"ambient_dim": D, "basis": [[...]]}
  vectors       {"vectors": [[[re, im], ...], ...]}   (complex vectors)
  sampler       {"kind": "gaussian" | "uniform_sphere" | "discrete",
                 "dimension": m, "seed"?: s, "dist"?: <distribution>}
                (edet --empirical; "discrete" draws from "dist")
  companions    {"columns": [[..m numbers..], ...]}    (bm-probe --companions)

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


def _read(path: str, what: str, parse):
    """parse(JSON of path), the one way a file becomes a library object:
    any failure on the way is a schema error naming the file.  The
    library's readers refuse null and non-finite numbers."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}") from e
    try:
        return parse(d)
    except (KeyError, TypeError, IndexError, AttributeError, ValueError,
            ArithmeticError) as e:
        # str() of a KeyError quotes its message or missing key
        detail = e.args[0] if isinstance(e, KeyError) and e.args else e
        raise SchemaError(f"malformed {what} in {path}: {detail}") from e


def _load_body(path: str, exact: bool):
    """Zonotope or virtual zonotope from a file."""

    def parse(d):
        if "plus" in d:
            return VirtualZonotope(zonotope_from_dict(d["plus"], exact),
                                   zonotope_from_dict(d["minus"], exact))
        return zonotope_from_dict(d, exact)

    return _read(path, "zonotope", parse)


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
        return _finite_floats([float(v) for v in vals])
    except (ValueError, TypeError, KeyError) as e:  # JSONDecodeError is a ValueError
        raise SchemaError(f"bad vector {text!r}: {e}") from e


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [r for r in text.split(";") if r.strip()]
        return _finite_floats([[float(v) for v in r.split(",")] for r in rows])
    except (ValueError, KeyError) as e:
        raise SchemaError(f"bad matrix {text!r}: {e}") from e


def _finite_float(text: str) -> float:
    """argparse type of a float option: NaN and infinities are schema errors."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _complex_vectors(d: dict) -> np.ndarray:
    """Complex rows from rows of [re, im] pairs, each pair the realify_rows
    layout of one entry."""
    pairs = _finite_floats(d["vectors"])
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"complex vectors must be [re, im] pairs, got {pairs.shape}")
    return unrealify_rows(pairs)[..., 0]


def _sampler(d: dict, seed: int) -> randomdet.SeededSampler:
    """Sampler file {"kind", "dimension", "seed"?, "dist"?}; seed if it has none."""
    dist = randomdet.distribution_from_dict(d["dist"]) if "dist" in d else None
    return randomdet.SeededSampler(kind=d["kind"], dimension=_integer(d["dimension"]),
                                   seed=_integer(d.get("seed", seed)), dist=dist)


def _companions(d: dict) -> np.ndarray:
    """Companion file {"columns": [[...], ...]} as a matrix of columns."""
    cols = _finite_floats(d["columns"])
    if cols.size and cols.ndim != 2:
        raise ValueError(f"columns must be a list of vectors, got shape {cols.shape}")
    return cols.T


def _body_dict(K) -> dict:
    if isinstance(K, VirtualZonotope):
        return {"plus": zonotope_to_dict(K.plus), "minus": zonotope_to_dict(K.minus)}
    return zonotope_to_dict(K)


def _as_virtual(K) -> VirtualZonotope:
    if isinstance(K, VirtualZonotope):
        return K
    return VirtualZonotope(K, zonotope([], ambient_dim=K.ambient_dim))


# ---------------------------------------------------------------------------
# Command registry

# command name -> (handler, file count, help, shared flags, own options)
_COMMANDS: dict[str, tuple] = {}
# command name -> the library operations it is the designated command of
COMMAND_OPS: dict[str, list[str]] = {}

# The flags several commands share; each command takes only those it reads.
# They parse to None when absent, and main records the ones given in
# args.given before it fills in these defaults.
_SHARED = {
    "--seed": dict(type=int, default=0, help="RNG seed (u64)"),
    "--samples": dict(type=int, default=100000, help="Monte Carlo sample count / net size"),
    "--net": dict(type=_finite_float, default=1e-3,
                  help="angular resolution for direction nets"),
    "--exact-rational": dict(action="store_true",
                             help="read numeric entries as exact rationals"),
}
_EXACT = ("--exact-rational",)
_MC = ("--samples", "--seed")


def _command(name, files, help_, ops, shared=(), extra=None):
    """Register the decorated handler as command ``name``.

    files is its input file count (an int, "?" or "+"), ops the library
    operations it is the designated command of, shared the _SHARED flags
    it reads and extra its own options, each mapped to its add_argument
    keywords.  The handler returns the payload to print.
    """
    def register(handler):
        _COMMANDS[name] = (handler, files, help_, shared, extra or {})
        COMMAND_OPS[name] = list(ops)
        return handler

    return register


def _mode(*choices) -> dict:
    return {"--mode": dict(choices=list(choices), default=choices[0])}


def _refuse(args, context: str, *flags) -> None:
    """Refuse the shared flags among flags that the command line gave:
    in context the command would ignore them."""
    for flag in flags:
        if flag in args.given:
            raise SchemaError(f"{context} takes no {flag}")


# ---------------------------------------------------------------------------
# Command handlers


@_command("support", 1, "support function h_K(u)",
          ["support", "support_many", "virtual_support"], _EXACT,
          {"--dir": dict(action="append", required=True,
                         help="direction, comma-separated or JSON")})
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


@_command("sum", "+", "Minkowski sum (one file: canonical form)",
          ["minkowski_sum", "virtual_add", "canonicalize"], _EXACT)
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


@_command("scale", 1, "scale by a factor or apply a matrix",
          ["scale", "linear_image", "virtual_negate"], _EXACT,
          {"--factor": dict(type=Fraction), "--matrix": dict(help="rows ';'-separated")})
def _cmd_scale(args):
    if args.factor is not None and args.matrix is not None:
        raise SchemaError("scale takes --factor or --matrix, not both")
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


@_command("length", 1, "length (first intrinsic volume)", ["length", "virtual_length"], _EXACT)
def _cmd_length(args):
    K = _load_body(args.files[0], args.exact_rational)
    if isinstance(K, VirtualZonotope):
        return {"value": virtual_length(K)}
    return {"value": length(K)}


@_command("radius", 1, "radius: exact or certified bounds", ["radius", "radius_bounds"],
          _EXACT + _MC, _mode("exact", "bounds"))
def _cmd_radius(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    if args.mode == "exact":
        _refuse(args, "radius --mode exact", *_MC)
        return {"value": radius(K)}
    lo, hi = radius_bounds(K, net_count=args.samples, seed=args.seed)
    return {"value": 0.5 * (lo + hi), "interval": [lo, hi]}


@_command("hausdorff", 2, "Hausdorff distance interval", ["hausdorff_estimate"],
          _EXACT + ("--seed", "--net"))
def _cmd_hausdorff(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    L = _load_zonotope(args.files[1], args.exact_rational)
    lo, hi = hausdorff_estimate(K, L, delta=args.net, seed=args.seed)
    return {"value": 0.5 * (lo + hi), "interval": [lo, hi]}


@_command("tensor", 2, "tensor product of two zonotopes",
          ["tensor_product", "virtual_tensor"], _EXACT)
def _cmd_tensor(args):
    A = _load_body(args.files[0], args.exact_rational)
    B = _load_body(args.files[1], args.exact_rational)
    if isinstance(A, VirtualZonotope) or isinstance(B, VirtualZonotope):
        return _body_dict(algebra.virtual_tensor(_as_virtual(A), _as_virtual(B)))
    return _body_dict(algebra.tensor_product(A, B))


@_command("wedge", 2, "wedge product of graded zonotopes", ["wedge_product"], _EXACT)
def _cmd_wedge(args):
    A = _load_zonotope(args.files[0], args.exact_rational)
    B = _load_zonotope(args.files[1], args.exact_rational)
    return _body_dict(algebra.wedge_product(A, B))


@_command("power", 1, "d-fold wedge power", ["wedge_power"], _EXACT,
          {"--degree": dict(type=int, required=True)})
def _cmd_power(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return _body_dict(algebra.wedge_power(K, args.degree))


@_command("hodge", 1, "Hodge star, generator-wise", ["hodge_star_zonoid"], _EXACT)
def _cmd_hodge(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return _body_dict(algebra.hodge_star_zonoid(K))


@_command("projbody", 1, "projection body", ["projection_body"], _EXACT)
def _cmd_projbody(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return _body_dict(algebra.projection_body(K))


@_command("mv", "+", "mixed volume; AF inequality probes",
          ["mixed_volume", "af_gap", "reverse_af_gap"], _EXACT,
          {"--af-gap": dict(action="store_true"), "--reverse-af": dict(action="store_true"),
           "--degrees": dict(help="comma-separated d_i")})
def _cmd_mv(args):
    Ks = [_load_zonotope(f, args.exact_rational) for f in args.files]
    if args.af_gap:
        if len(Ks) < 2:
            raise SchemaError("--af-gap needs at least two zonotopes")
        return {"value": algebra.af_gap(Ks[0], Ks[1], companions=Ks[2:])}
    if args.reverse_af:
        if args.degrees is None:
            raise SchemaError("--reverse-af needs --degrees")
        degrees = _parse_vector(args.degrees, exact=True)
        if any(v.denominator != 1 for v in degrees):
            raise SchemaError(f"bad degrees {args.degrees!r}: need integers")
        return {"value": algebra.reverse_af_gap(Ks, [int(v) for v in degrees])}
    return {"value": algebra.mixed_volume(Ks)}


@_command("vol", 1, "volume", ["volume"], _EXACT)
def _cmd_vol(args):
    K = _load_zonotope(args.files[0], args.exact_rational)
    return {"value": algebra.volume(K)}


@_command("intrinsic", 1, "intrinsic volume V_d", ["intrinsic_volume"], _EXACT,
          {"--degree": dict(type=int, required=True)})
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


@_command("mvj", "+", "mixed J-volume of complex zonoids",
          ["mixed_J_volume", "complex_wedge_zonoids", "disc_zonotope"], _EXACT,
          {"--discs": dict(action="store_true",
                           help="files hold complex vectors; use 2q-gon disc models"),
           "--q": dict(type=int, default=64),
           "--wedge": dict(action="store_true", help="emit the complex wedge zonotope")})
def _cmd_mvj(args):
    if args.discs:
        _refuse(args, "mvj --discs", *_EXACT)
        if len(args.files) != 1:
            raise SchemaError(f"mvj --discs takes exactly 1 file, got {len(args.files)}")
        Z = _read(args.files[0], "complex vectors", _complex_vectors)
        bodies = [jvolume.disc_zonotope(z, args.q) for z in Z]
    else:
        bodies = [
            _require_cgrading_tag(_load_zonotope(f, args.exact_rational), f)
            for f in args.files
        ]
    if args.wedge:
        return _body_dict(jvolume.complex_wedge_zonoids(*bodies))
    return {"value": jvolume.mixed_J_volume(*bodies)}


def _face_data(args) -> jvolume.PolytopeFaceData:
    """The --faces file of jvol or kaza, which then take no zonotope file."""
    if args.files:
        raise SchemaError(f"{args.command} --faces takes no zonotope file, got {args.files[0]}")
    _refuse(args, f"{args.command} --faces", *_EXACT)
    return _read(args.faces, "face data", jvolume.face_data_from_dict)


@_command("jvol", "?", "J-volume: exact zonotope path or face MC",
          ["j_volume_zonotope", "j_volume_polytope_mc", "normal_angle_mc",
           "zonotope_face_data"], _EXACT + _MC,
          {"--faces": dict(help="face-data JSON file"),
           "--theta": dict(type=int, help="normal angle of one face index"),
           "--make-faces": dict(action="store_true", help="emit face data for a zonotope")})
def _cmd_jvol(args):
    if args.faces is not None:
        if args.make_faces:
            raise SchemaError("jvol --faces takes no --make-faces")
        P = _face_data(args)
        if args.theta is not None:
            val, se = jvolume.normal_angle_mc(P, args.theta, args.samples, args.seed)
        else:
            val, se = jvolume.j_volume_polytope_mc(P, args.samples, args.seed)
        return {"value": val, "stderr": se}
    if not args.files:
        raise SchemaError("jvol needs a zonotope file or --faces")
    if args.theta is not None:
        raise SchemaError("jvol --theta needs --faces")
    _refuse(args, "jvol without --faces", *_MC)
    K = _load_zonotope(args.files[0], args.exact_rational)
    if args.make_faces:
        return jvolume.face_data_to_dict(jvolume.zonotope_face_data(K))
    return {"value": jvolume.j_volume_zonotope(K)}


@_command("kaza", "?", "Kazarnovskii pseudovolume",
          ["kazarnovskii_zonotope", "kazarnovskii_polytope_mc"], _EXACT + _MC,
          {"--faces": dict(help="face-data JSON file")})
def _cmd_kaza(args):
    if args.faces is not None:
        P = _face_data(args)
        val, se = jvolume.kazarnovskii_polytope_mc(P, args.samples, args.seed)
        return {"value": val, "stderr": se}
    if not args.files:
        raise SchemaError("kaza needs a zonotope file or --faces")
    _refuse(args, "kaza without --faces", *_MC)
    K = _load_zonotope(args.files[0], args.exact_rational)
    return {"value": jvolume.kazarnovskii_zonotope(K)}


@_command("sigma-j", 1, "sigma^J of a subspace", ["sigma_J"])
def _cmd_sigma_j(args):
    E = _read(args.files[0], "subspace", lambda d: jvolume.Subspace(
        _integer(d["ambient_dim"]), _finite_floats(d["basis"])))
    return {"value": jvolume.sigma_J(E)}


def _load_distribution(path: str):
    return _read(path, "distribution", randomdet.distribution_from_dict)


def _load_model(path: str):
    return _read(path, "block model", randomdet.model_from_dict)


def _edet_model(args):
    model = _load_model(args.files[0])
    if args.mode == "exact":
        _refuse(args, f"{args.command} --mode exact", *_MC)
        return {"value": randomdet.expected_abs_det_exact(model)}
    val, se = randomdet.expected_abs_det_mc(model, args.samples, args.seed)
    return {"value": val, "stderr": se}


@_command("edet", 1, "expected |det| of a block model",
          ["expected_abs_det_exact", "expected_abs_det_mc", "vitale_zonotope",
           "empirical_zonotope"], _MC,
          {**_mode("exact", "mc"),
           "--vitale": dict(action="store_true", help="file is a distribution; emit its zonoid"),
           "--empirical": dict(action="store_true", help="file is a sampler; emit the "
                                                         "empirical zonoid of --samples draws")})
def _cmd_edet(args):
    if args.vitale and args.empirical:
        raise SchemaError("edet takes --vitale or --empirical, not both")
    if args.vitale:
        _refuse(args, "edet --vitale", *_MC)
        return _body_dict(randomdet.vitale_zonotope(_load_distribution(args.files[0])))
    if args.empirical:
        sampler = _read(args.files[0], "sampler", lambda d: _sampler(d, args.seed))
        return _body_dict(randomdet.empirical_zonotope(sampler, args.samples))
    return _edet_model(args)


# the complex estimators are the real ones under other names
_command("edet-complex", 1, "complex expected |det|",
         ["expected_abs_det_complex_exact", "expected_abs_det_complex_mc"], _MC,
         _mode("exact", "mc"))(_edet_model)


@_command("edet-sq-complex", 1, "exact E|det|^2 for complex columns",
          ["expected_sq_abs_det_complex"])
def _cmd_edet_sq_complex(args):
    model = _load_model(args.files[0])
    return {"value": randomdet.expected_sq_abs_det_complex(model)}


@_command("bm-probe", 2, "concavity probe of t -> E^(1/d)",
          ["bm_concavity_probe", "bernoulli_mixture"], _MC,
          {"--d": dict(type=int, required=True),
           "--companions": dict(help="fixed-columns JSON"),
           "--t-grid": dict(help="comma-separated t values"),
           "--mc": dict(action="store_true", help="Monte Carlo instead of exact")})
def _cmd_bm_probe(args):
    if not args.mc:
        _refuse(args, "bm-probe without --mc", *_MC)
    d1, d2 = (_load_distribution(f) for f in args.files)
    companions = None
    if args.companions is not None:
        companions = _read(args.companions, "companions", _companions)
    t_grid = None
    if args.t_grid is not None:
        t_grid = _parse_vector(args.t_grid)
    curve = randomdet.bm_concavity_probe(
        d1, d2, args.d, companions=companions, t_grid=t_grid,
        n=args.samples if args.mc else 0, seed=args.seed,
    )
    return {"curve": [[t, v, se] for (t, v, se) in curve]}


@_command("measure", 1, "zonotope <-> even measure dictionary",
          ["zonotope_to_measure", "measure_to_zonotope", "cosine_transform_eval",
           "signed_measure_to_virtual"], _EXACT,
          {"--to": dict(action="store_true", help="zonotope file -> measure"),
           "--eval-dir": dict(help="evaluate the cosine transform here")})
def _cmd_measure(args):
    if args.to:
        K = _load_zonotope(args.files[0], args.exact_rational)
        return measures.measure_to_dict(measures.zonotope_to_measure(K))
    mu = _read(args.files[0], "measure",
               lambda d: measures.measure_from_dict(d, args.exact_rational))
    if args.eval_dir is not None:
        u = _parse_vector(args.eval_dir, args.exact_rational)
        return {"value": measures.cosine_transform_eval(mu, u)}
    if mu.is_nonnegative():
        return _body_dict(measures.measure_to_zonotope(mu))
    return _body_dict(measures.signed_measure_to_virtual(mu))


# constant -> (randomdet function name, its options in order); by name, so a
# traced run, which rebinds randomdet's functions, sees the call
_CONSTANTS = {
    "tau": ("tau", ("m",)),
    "gamma-k": ("multivariate_gamma", ("k", "x")),
    "wedge-norm": ("expected_simple_wedge_norm", ("k", "m")),
    "gaussian-edet": ("gaussian_abs_det", ("m",)),
    "complex-gaussian-edet": ("complex_gaussian_abs_det", ("n",)),
    "j-ball": ("j_ball_volume", ("n",)),
}


@_command("constants", 0, "closed-form constants", [fn for fn, _ in _CONSTANTS.values()],
          extra={"name": dict(choices=list(_CONSTANTS)), "--m": dict(type=int, default=2),
                 "--k": dict(type=int, default=1),
                 "--x": dict(type=_finite_float, default=1.0),
                 "--n": dict(type=int, default=1)})
def _cmd_constants(args):
    fn, params = _CONSTANTS[args.name]
    return {"value": getattr(randomdet, fn)(*(getattr(args, p) for p in params))}


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    p = _Parser(
        prog="zonoid",
        description="Zonotope calculus: products, volumes, J-volumes, "
        "expected determinants.",
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (handler, files, help_, shared, extra) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_, epilog=SCHEMA_HELP,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag in shared:
            sp.add_argument(flag, **{**_SHARED[flag], "default": None})
        if files:
            # any count parses; main checks it against the command's and names both
            sp.add_argument("files", nargs="*", help="input JSON file(s)")
        for flag, kwargs in extra.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler, file_count=files, shared=shared)
    return p


def _fill_shared(args) -> None:
    """Record the shared flags the command line gave in args.given, and
    give the others their _SHARED defaults."""
    args.given = set()
    for flag in args.shared:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, _SHARED[flag].get("default", False))
        else:
            args.given.add(flag)


def _check_file_count(args) -> None:
    """Raise unless the command got as many files as it takes."""
    want, got = args.file_count, len(getattr(args, "files", ()))
    if not {"?": got <= 1, "+": got >= 1}.get(want, got == want):
        takes = {"?": "at most 1 file", "+": "1 or more files", 1: "exactly 1 file"}
        raise SchemaError(f"{args.command} takes {takes.get(want, f'exactly {want} files')}, "
                          f"got {got}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _fill_shared(args)
        _check_file_count(args)
        text = dumps(args.handler(args))
    except SchemaError as e:
        sys.stderr.write(dumps({"error": {"code": 2, "message": str(e)}}) + "\n")
        return 2
    except (ValueError, ArithmeticError) as e:
        sys.stderr.write(dumps({"error": {"code": 3, "message": str(e)}}) + "\n")
        return 3
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
