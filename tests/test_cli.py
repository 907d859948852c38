"""End-to-end tests for the zonoid command line."""

import io
import json
import math
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zonoidal
from zonoidal import cli


EXPECTED_COMMANDS = {
    "support", "sum", "scale", "length", "radius", "hausdorff",
    "tensor", "wedge", "power", "hodge", "projbody",
    "mv", "vol", "intrinsic",
    "mvj", "jvol", "kaza", "sigma-j",
    "edet", "edet-complex", "edet-sq-complex", "bm-probe",
    "measure", "constants",
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def cube_file(tmp_path, m=2, name="cube.json"):
    return write(tmp_path, name,
                 {"ambient_dim": m, "generators": np.eye(m).tolist(), "grading": None})


def test_command_coverage():
    assert set(cli.COMMAND_OPS) == EXPECTED_COMMANDS
    flat = [op for ops in cli.COMMAND_OPS.values() for op in ops]
    assert len(flat) == len(set(flat))  # each op reachable from exactly one command
    for op in flat:
        assert callable(getattr(zonoidal, op)), op


def test_vol_and_intrinsic(tmp_path):
    f = cube_file(tmp_path)
    code, out, err = run(["vol", f])
    assert code == 0 and err == ""
    assert out == '{"value": 1.0}\n'
    code, out, _ = run(["intrinsic", f, "--degree", "1"])
    assert code == 0
    assert json.loads(out)["value"] == 2.0


def test_seventeen_digit_floats(tmp_path):
    f = write(tmp_path, "seg.json", {"ambient_dim": 2, "generators": [[0.1, 0.0]]})
    code, out, _ = run(["length", f])
    assert code == 0
    assert out == '{"value": 0.10000000000000001}\n'
    assert json.loads(out)["value"] == 0.1
    code, out, _ = run(["constants", "tau", "--m", "2"])
    # 17 significant digits: parsing the text recovers the exact double
    assert out == '{"value": %s}\n' % format(zonoidal.tau(2), ".17g")
    assert json.loads(out)["value"] == zonoidal.tau(2)
    assert math.isclose(json.loads(out)["value"], math.pi, rel_tol=1e-12)


def test_support_directions(tmp_path):
    f = cube_file(tmp_path)
    code, out, _ = run(["support", f, "--dir", "1,1"])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 1.0)
    code, out, _ = run(["support", f, "--dir", "1,0", "--dir", "[0, 1]"])
    assert json.loads(out)["value"] == [0.5, 0.5]


def test_byte_identical_reruns(tmp_path):
    f = write(tmp_path, "K.json",
              {"ambient_dim": 3,
               "generators": np.random.Generator(np.random.Philox(key=1))
               .standard_normal((5, 3)).tolist()})
    a = run(["radius", f, "--mode", "bounds", "--samples", "2048", "--seed", "7"])
    b = run(["radius", f, "--mode", "bounds", "--samples", "2048", "--seed", "7"])
    assert a == b and a[0] == 0
    model = write(tmp_path, "m.json",
                  {"size": 2, "blocks": [{"width": 2, "sampler": {"kind": "gaussian"}}]})
    a = run(["edet", model, "--mode", "mc", "--samples", "20000", "--seed", "3"])
    b = run(["edet", model, "--mode", "mc", "--samples", "20000", "--seed", "3"])
    assert a == b and a[0] == 0


def test_sum_of_three_files_merges_once(tmp_path, monkeypatch):
    rows = [[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [-2.0, 0.0]], [[1.0, 1.0], [0.3, -0.7]]]
    files = [write(tmp_path, f"{i}.json", {"ambient_dim": 2, "generators": r})
             for i, r in enumerate(rows)]
    zmod = sys.modules["zonoidal.zonotope"]
    real, calls = zmod.canonicalize, []
    monkeypatch.setattr(zmod, "canonicalize", lambda K: calls.append(K) or real(K))
    code, out, _ = run(["sum", *files])
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    got = zonoidal.zonotope_from_dict(json.loads(out))
    bodies = [zonoidal.zonotope(r) for r in rows]
    pairwise = zonoidal.minkowski_sum(zonoidal.minkowski_sum(bodies[0], bodies[1]), bodies[2])
    assert zonoidal.canonical_eq(got, pairwise)


def test_sum_output_feeds_back_in(tmp_path):
    f1 = write(tmp_path, "a.json", {"ambient_dim": 2, "generators": [[1.0, 0.0], [0.5, 0.5]]})
    f2 = write(tmp_path, "b.json", {"ambient_dim": 2, "generators": [[0.0, 1.0]]})
    code, out, _ = run(["sum", f1, f2])
    assert code == 0
    f3 = write(tmp_path, "s.json", json.loads(out))
    code, out, _ = run(["vol", f3])
    K = zonoidal.minkowski_sum(
        zonoidal.zonotope([[1.0, 0.0], [0.5, 0.5]]), zonoidal.zonotope([[0.0, 1.0]]))
    want = zonoidal.volume(zonoidal.zonotope(K.generators, grading=(2, 1)))
    assert math.isclose(json.loads(out)["value"], want, rel_tol=1e-12)


def test_scale_matrix_and_negative_factor(tmp_path):
    f = cube_file(tmp_path)
    code, out, _ = run(["scale", f, "--matrix", "1,1;0,1"])
    assert code == 0
    gens = json.loads(out)["generators"]
    assert sorted(gens) == [[1.0, 0.0], [1.0, 1.0]]
    code, _, err = run(["scale", f, "--factor", "-2"])
    assert code == 3
    env = json.loads(err)
    assert env["error"]["code"] == 3
    assert "nonnegative" in env["error"]["message"]


def test_exit_code_2_on_schema_problems(tmp_path):
    code, _, err = run(["vol", str(tmp_path / "missing.json")])
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["vol", str(bad)])
    assert code == 2
    malformed = write(tmp_path, "m.json", {"ambient_dim": 2})
    code, _, err = run(["vol", malformed])
    assert code == 2
    code, _, err = run(["vol"])
    assert code == 2
    # each command takes its own number of files, and the message says so
    f = cube_file(tmp_path)
    for argv, takes in ((["wedge", f], "exactly 2 files, got 1"),
                        (["tensor", f], "exactly 2 files, got 1"),
                        (["hausdorff", f], "exactly 2 files, got 1"),
                        (["bm-probe", f, "--d", "1"], "exactly 2 files, got 1"),
                        (["wedge", f, f, f], "exactly 2 files, got 3"),
                        (["vol", f, f], "exactly 1 file, got 2"),
                        (["vol"], "exactly 1 file, got 0"),
                        (["measure", f, f], "exactly 1 file, got 2"),
                        (["jvol", f, f], "at most 1 file, got 2"),
                        (["kaza", f, f], "at most 1 file, got 2"),
                        (["sum"], "1 or more files, got 0"),
                        (["mv"], "1 or more files, got 0")):
        code, _, err = run(argv)
        assert code == 2, argv
        error = json.loads(err)["error"]
        assert error["code"] == 2
        assert error["message"] == f"{argv[0]} takes {takes}"


def test_scale_factor_is_exact_on_exact_bodies(tmp_path):
    f = write(tmp_path, "e.json", {"ambient_dim": 2, "generators": [["3/5", "4/5"], ["1", "0"]]})
    code, out, _ = run(["scale", f, "--factor", "0.1"])
    assert code == 0
    assert json.loads(out)["generators"] == [["3/50", "2/25"], ["1/10", "0"]]


def test_scale_factor_on_float_bodies_is_the_float_factor(tmp_path):
    gens = [[0.6, 0.8], [1.0, 0.3], [0.1, 1e-5]]
    f = write(tmp_path, "k.json", {"ambient_dim": 2, "generators": gens})
    for factor in ("0.1", "2.5", "1e-3"):
        want = cli.dumps(zonoidal.zonotope_to_dict(
            zonoidal.scale(zonoidal.zonotope(gens), float(factor)))) + "\n"
        assert run(["scale", f, "--factor", factor]) == (0, want, "")


def test_negative_factor_scales_a_virtual_body(tmp_path):
    a = {"ambient_dim": 2, "generators": [[0.6, 0.8]]}
    b = {"ambient_dim": 2, "generators": [[1.0, 0.0]]}
    v = write(tmp_path, "v.json", {"plus": a, "minus": b})
    code, out, _ = run(["scale", v, "--factor", "-0.5"])
    assert code == 0
    got = json.loads(out)
    assert got["plus"]["generators"] == [[0.5, 0.0]]
    assert got["minus"]["generators"] == [[0.3, 0.4]]


def test_exact_measure_round_trips_without_the_flag(tmp_path):
    f = write(tmp_path, "k.json", {"ambient_dim": 2, "generators": [["3/5", "4/5"], ["1", "0"]]})
    code, out, _ = run(["measure", f, "--to"])
    assert code == 0
    assert json.loads(out)["weights"] == ["1/2", "1/2"]
    mu = write(tmp_path, "mu.json", json.loads(out))
    code, back, err = run(["measure", mu])
    assert code == 0, err
    assert back == run(["sum", f])[1]


def test_exit_code_3_on_domain_errors(tmp_path):
    f = cube_file(tmp_path)
    code, _, err = run(["intrinsic", f, "--degree", "5"])
    assert code == 3
    assert json.loads(err)["error"]["code"] == 3
    # a well-formed file whose computation fails exits 3 too
    fd = write(tmp_path, "fd.json", {"ambient_dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0]],
                                     "n_faces": [[0], [1]]})
    big = write(tmp_path, "big.json", {"ambient_dim": 2, "generators": [[1e308, 0.0], [0.0, 1e308]]})
    code, out, err = run(["jvol", "--faces", fd, "--theta", "2"])
    assert (code, out) == (3, "")
    assert "no face 2 among 2" in json.loads(err)["error"]["message"]
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, err = run(["length", big])
    assert (code, out) == (3, "")
    assert "non-finite value in output" in json.loads(err)["error"]["message"]


def test_help_enumerates_commands_and_schemas(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in EXPECTED_COMMANDS:
        assert name in text
    for token in ("ambient_dim", "generators", "atoms", "weights", "blocks", "vertices"):
        assert token in text


def test_exact_rational_mode(tmp_path):
    f = write(tmp_path, "e.json", {"ambient_dim": 1, "generators": [["1/3"], ["1/6"]]})
    code, out, _ = run(["length", f, "--exact-rational"])
    assert code == 0
    assert json.loads(out)["value"] == "1/2"
    code, out, _ = run(["support", f, "--dir", "1", "--exact-rational"])
    assert json.loads(out)["value"] == "1/4"


def test_exact_scale_reads_matrix_entries_as_rationals(tmp_path):
    f = write(tmp_path, "e.json", {"ambient_dim": 2, "generators": [["1/3", 1]]})
    # a body file with a string entry is exact without the flag too
    for flag in ([], ["--exact-rational"]):
        for option in (["--matrix", "0.1,0;0,1"], ["--factor", "0.1"]):
            code, out, _ = run(["scale", f, *flag, *option])
            assert code == 0 and json.loads(out)["generators"][0][0] == "1/30"
    # each part of a virtual body takes the matrix in its own field
    v = write(tmp_path, "v.json", {"plus": {"ambient_dim": 2, "generators": [["1/3", 1]]},
                                   "minus": {"ambient_dim": 2, "generators": [[0.5, 1.0]]}})
    code, out, _ = run(["scale", v, "--matrix", "0.1,0;0,1"])
    assert code == 0 and json.loads(out) == {
        "plus": {"ambient_dim": 2, "grading": None, "generators": [["1/30", "1"]]},
        "minus": {"ambient_dim": 2, "grading": None, "generators": [[0.05, 1.0]]}}
    code, out, _ = run(["scale", f, "--exact-rational", "--matrix", "1/3,0;0,1"])
    assert code == 0 and json.loads(out)["generators"] == [["1/9", "1"]]
    for argv, needle in ((["scale", f, "--matrix", "1,0;1"], "bad matrix '1,0;1'"),
                         (["scale", f, "--matrix", "1/0,0;0,1"], "bad matrix '1/0,0;0,1'"),
                         (["support", f, "--dir", "1/0,1"], "bad vector '1/0,1'")):
        code, out, err = run([*argv, "--exact-rational"])
        assert (code, out) == (2, ""), argv
        assert needle in json.loads(err)["error"]["message"]


def test_bm_probe_refuses_d_below_one(tmp_path):
    d = write(tmp_path, "d.json", _DIST)
    c = write(tmp_path, "c.json", {"columns": [[1.0, 0.0], [0.0, 1.0]]})
    code, out, err = run(["bm-probe", d, d, "--d", "0", "--companions", c])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {"code": 3, "message": "need d >= 1 mixture columns, got d = 0"}


@pytest.mark.parametrize("samples", ["0", "-5", "1"])
def test_bm_probe_mc_refuses_fewer_than_two_samples(tmp_path, samples):
    # --samples 0 and -5 once printed the exact curve with stderr 0.0
    d = write(tmp_path, "d.json", _DIST)
    code, out, err = run(["bm-probe", d, d, "--d", "2", "--mc", "--samples", samples])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {"code": 3, "message": "need at least two samples"}


def test_virtual_difference_flow(tmp_path):
    a = {"ambient_dim": 2, "generators": [[3.0, 1.0]]}
    b = {"ambient_dim": 2, "generators": [[3.0, 0.0]]}
    v = write(tmp_path, "v.json", {"plus": a, "minus": b})
    code, out, _ = run(["support", v, "--dir", "0,1"])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 0.5)
    code, out, _ = run(["tensor", v, v])
    assert code == 0
    P = json.loads(out)
    assert "plus" in P and "minus" in P
    f = write(tmp_path, "p.json", P)
    n = 3.0
    w = f"[1, {-n}, {-n}, 0]"
    seg_a = {"ambient_dim": 2, "generators": [[n, 1.0]]}
    seg_b = {"ambient_dim": 2, "generators": [[n, 0.0]]}
    v2 = write(tmp_path, "v2.json", {"plus": seg_a, "minus": seg_b})
    code, out, _ = run(["tensor", v2, v2])
    P2 = write(tmp_path, "p2.json", json.loads(out))
    code, out, _ = run(["support", P2, "--dir", w])
    got = json.loads(out)["value"]
    assert math.isclose(got, n * n, rel_tol=1e-12)


def test_hausdorff_interval(tmp_path):
    a = write(tmp_path, "a.json", {"ambient_dim": 2, "generators": [[10.0, 1.0]]})
    b = write(tmp_path, "b.json", {"ambient_dim": 2, "generators": [[10.0, 0.0]]})
    code, out, _ = run(["hausdorff", a, b, "--net", "1e-3"])
    assert code == 0
    d = json.loads(out)
    lo, hi = d["interval"]
    assert lo <= 0.5 <= hi


def test_wedge_power_hodge_projbody(tmp_path):
    f = cube_file(tmp_path, m=3)
    code, out, _ = run(["power", f, "--degree", "2"])
    assert code == 0
    w = json.loads(out)
    assert w["grading"] == {"base_dim": 3, "degree": 2}
    fw = write(tmp_path, "w.json", w)
    code, out, _ = run(["hodge", fw])
    assert code == 0
    starred = json.loads(out)["generators"]
    code, out, _ = run(["projbody", f])
    assert code == 0
    pk = json.loads(out)["generators"]
    assert np.allclose(sorted(starred), sorted(pk))
    assert np.allclose(sorted(pk), sorted((2.0 * np.eye(3)).tolist()))


def test_mv_af_flags(tmp_path):
    f = cube_file(tmp_path)
    d = write(tmp_path, "d.json", {"ambient_dim": 2, "generators": [[1.0, 1.0]]})
    code, out, _ = run(["mv", f, d])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 1.0)
    code, out, _ = run(["mv", f, d, "--af-gap"])
    assert code == 0
    assert json.loads(out)["value"] >= -1e-10
    code, out, _ = run(["mv", f, d, "--reverse-af", "--degrees", "1,1"])
    assert code == 0
    code, _, _ = run(["mv", f, d, "--reverse-af"])
    assert code == 2  # --degrees missing


def test_mvj_and_disc_models(tmp_path):
    z1 = [[1.0, 0.0], [0.0, 0.0]]   # (1+0i, 0)
    z2 = [[0.0, 0.0], [1.0, 0.0]]   # (0, 1+0i)
    f = write(tmp_path, "z.json", {"vectors": [z1, z2]})
    code, out, _ = run(["mvj", f, "--discs", "--q", "64"])
    assert code == 0
    got = json.loads(out)["value"]
    assert abs(got - math.pi ** 2 / 2) <= 1e-3 * math.pi ** 2 / 2
    code, out, _ = run(["mvj", f, "--discs", "--q", "8", "--wedge"])
    assert code == 0
    assert json.loads(out)["cgrading"] == {"complex_dim": 2, "degree": 2}


def test_jvol_flow(tmp_path):
    gens = np.random.Generator(np.random.Philox(key=9)).standard_normal((4, 4))
    f = write(tmp_path, "P.json", {"ambient_dim": 4, "generators": gens.tolist(),
                                   "cgrading": {"complex_dim": 2, "degree": 1}})
    code, out, _ = run(["jvol", f])
    assert code == 0
    exact = json.loads(out)["value"]
    code, out, _ = run(["jvol", f, "--make-faces"])
    assert code == 0
    fd = write(tmp_path, "fd.json", json.loads(out))
    code, out, _ = run(["jvol", "--faces", fd, "--samples", "20000", "--seed", "5"])
    assert code == 0
    d = json.loads(out)
    assert abs(d["value"] - exact) <= 3.0 * d["stderr"]
    code, out, _ = run(["jvol", "--faces", fd, "--theta", "0", "--samples", "5000"])
    assert code == 0
    th = json.loads(out)
    assert 0.0 <= th["value"] <= 1.0
    code, out, _ = run(["kaza", f])
    assert code == 0
    assert json.loads(out)["value"] <= exact * (1 + 1e-12)
    code, _, _ = run(["jvol"])
    assert code == 2  # neither file nor --faces


def test_sigma_j_command(tmp_path):
    f = write(tmp_path, "E.json",
              {"ambient_dim": 4, "basis": [[1, 0, 0, 0], [0, 0, 1, 0]]})
    code, out, _ = run(["sigma-j", f])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 1.0)


def test_edet_commands(tmp_path):
    dist = {"atoms": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}
    model = {"size": 2, "blocks": [{"width": 1, "dist": dist}, {"width": 1, "dist": dist}]}
    f = write(tmp_path, "model.json", model)
    code, out, _ = run(["edet", f])
    assert code == 0
    exact = json.loads(out)["value"]
    assert math.isclose(exact, 0.5)  # det != 0 with prob 1/2
    code, out, _ = run(["edet", f, "--mode", "mc", "--samples", "50000", "--seed", "2"])
    d = json.loads(out)
    assert abs(d["value"] - exact) <= 3.0 * d["stderr"]
    fd = write(tmp_path, "dist.json", dist)
    code, out, _ = run(["edet", fd, "--vitale"])
    assert code == 0
    assert json.loads(out)["ambient_dim"] == 2
    fs = write(tmp_path, "s.json", {"kind": "gaussian", "dimension": 2, "seed": 1})
    code, out, _ = run(["edet", fs, "--empirical", "--samples", "1000"])
    assert code == 0
    assert json.loads(out)["ambient_dim"] == 2


def test_edet_complex_commands(tmp_path):
    dist = {"atoms": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
            "probs": [0.5, 0.5]}
    model = {"size": 2, "complex": True,
             "blocks": [{"width": 1, "dist": dist}, {"width": 1, "dist": dist}]}
    f = write(tmp_path, "cm.json", model)
    code, out, _ = run(["edet-complex", f])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 0.5)
    code, out, _ = run(["edet-sq-complex", f])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 0.5)
    # a real model with one width-2 block: det^2 is 1 or 36, each with prob 1/2
    wide = {"atoms": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 3.0]]], "probs": [0.5, 0.5]}
    f = write(tmp_path, "wide.json", {"size": 2, "blocks": [{"width": 2, "dist": wide}]})
    code, out, _ = run(["edet-sq-complex", f])
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 18.5)


def test_bm_probe_command(tmp_path):
    d1 = {"atoms": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}
    d2 = {"atoms": [[1.0, 1.0], [1.0, -1.0]], "probs": [0.5, 0.5]}
    f1 = write(tmp_path, "d1.json", d1)
    f2 = write(tmp_path, "d2.json", d2)
    code, out, _ = run(["bm-probe", f1, f2, "--d", "2", "--t-grid", "0,0.5,1"])
    assert code == 0
    curve = json.loads(out)["curve"]
    assert len(curve) == 3
    ts, vals, ses = zip(*curve)
    assert ts == (0.0, 0.5, 1.0)
    assert all(s == 0.0 for s in ses)
    assert vals[1] >= (vals[0] + vals[2]) / 2 - 1e-12


def test_measure_commands(tmp_path):
    f = write(tmp_path, "K.json",
              {"ambient_dim": 2, "generators": [[2.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(["measure", f, "--to"])
    assert code == 0
    mu = json.loads(out)
    assert set(mu) >= {"atoms", "weights"}
    fm = write(tmp_path, "mu.json", mu)
    code, out, _ = run(["measure", fm])
    assert code == 0
    gens = sorted(json.loads(out)["generators"])
    assert np.allclose(gens, [[0.0, 1.0], [2.0, 0.0]])
    code, out, _ = run(["measure", fm, "--eval-dir", "1,0"])
    assert math.isclose(json.loads(out)["value"], 1.0)
    signed = write(tmp_path, "sg.json",
                   {"ambient_dim": 2, "atoms": [[1.0, 0.0], [0.0, 1.0]],
                    "weights": [1.0, -0.5]})
    code, out, _ = run(["measure", signed])
    assert code == 0
    assert "plus" in json.loads(out)


def test_constants_command():
    cases = [
        (["constants", "gamma-k", "--k", "1", "--x", "2.5"], math.gamma(2.5)),
        (["constants", "wedge-norm", "--k", "1", "--m", "3"], 4 / math.sqrt(2 * math.pi)),
        (["constants", "gaussian-edet", "--m", "2"], 1.0),
        (["constants", "complex-gaussian-edet", "--n", "2"], 3 * math.pi / 8),
        (["constants", "j-ball", "--n", "2"], 3 * math.pi ** 2 / 4),
    ]
    for argv, want in cases:
        code, out, _ = run(argv)
        assert code == 0
        assert math.isclose(json.loads(out)["value"], want, rel_tol=1e-12)


@pytest.mark.skipif(shutil.which("zonoid") is None,
                    reason="the zonoid console script is not on PATH "
                           "(package not installed)")
def test_console_script(tmp_path):
    exe = shutil.which("zonoid")
    assert exe, "console script should be installed"
    f = cube_file(tmp_path)
    proc = subprocess.run([exe, "length", f], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 2.0
    proc2 = subprocess.run([sys.executable, "-m", "zonoidal", "length", f],
                           capture_output=True, text=True)
    assert proc2.stdout == proc.stdout


def test_console_script_entry_point(tmp_path):
    # The part of test_console_script that needs no install: the declared
    # distribution name and version, and the entry point, called the way a
    # pip-generated wrapper calls it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "zonoidal"
    assert project["version"] == zonoidal.__version__
    scripts = project["scripts"]
    assert scripts["zonoid"] == "zonoidal.cli:main"
    module, attr = scripts["zonoid"].split(":")
    f = cube_file(tmp_path)
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "length", f],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 2.0
    proc2 = subprocess.run([sys.executable, "-m", "zonoidal", "length", f],
                           capture_output=True, text=True)
    assert proc2.stdout == proc.stdout
# Inputs and the exact stdout they print, pinned byte for byte: the measure
# maps and the JSON row and pair readers run on shared code for both fields,
# and no refactor of it may move an output.
PINNED_FILES = {
    'mu_f.json': {'ambient_dim': 2, 'atoms': [[0.6, 0.8], [1.0, 0.0], [-0.6, 0.8]], 'weights': [0.5, 1.25, 0.75]},
    'mu_f_signed.json': {'ambient_dim': 2, 'atoms': [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], 'weights': [1.0, -0.5, 0.25]},
    'mu_f_empty.json': {'ambient_dim': 3, 'atoms': [], 'weights': []},
    'mu_f_offunit.json': {'ambient_dim': 2, 'atoms': [[2.0, 0.0], [0.0, -3.0]], 'weights': [0.1, 0.2]},
    'mu_q.json': {'atoms': [['3/5', '4/5'], ['1', '0'], ['-5/13', '12/13']], 'weights': ['1/2', '5/4', '1/3']},
    'mu_q_signed.json': {'atoms': [['1', '0'], ['0', '1'], ['3/5', '4/5']], 'weights': ['1', '-1/2', '1/4']},
    'mu_q_empty.json': {'ambient_dim': 2, 'atoms': [], 'weights': []},
    'mu_q_weights_only.json': {'atoms': [[1, 0], [0, 1]], 'weights': ['1/3', 2]},
    'K_f.json': {'ambient_dim': 3, 'grading': None, 'generators': [[0.3, -1.2, 0.5], [2.0, 0.0, 0.0], [0.1, 0.1, 0.1]]},
    'K_q_rational.json': {'ambient_dim': 2, 'grading': None, 'generators': [['3', '4'], ['5/13', '-12/13'], ['0', '-2']]},
    'K_q_irrational.json': {'ambient_dim': 2, 'grading': None, 'generators': [['1', '1'], ['1', '0']]},
    'K_f_empty.json': {'ambient_dim': 2, 'grading': None, 'generators': []},
    'discs.json': {'vectors': [[[1.0, 0.5], [-0.25, 2.0]], [[0.0, -1.0], [1.5, 0.3]]]},
    'cmodel.json': {'size': 2, 'complex': True, 'blocks': [{'width': 1, 'dist': {'atoms': [[[1.0, 0.0], [0.0, 1.0]], [[0.5, -0.5], [2.0, 0.0]]], 'probs': [0.5, 0.5]}}, {'width': 1, 'dist': {'atoms': [[[0.0, 1.0], [1.0, 1.0]], [[-1.0, 0.25], [0.5, 0.5]], [[0.2, 0.0], [0.0, -0.7]]], 'probs': [0.25, 0.25, 0.5]}}]},
}
PINNED_STDOUT = [
    (['measure', 'mu_f.json'],
     '{"ambient_dim": 2, "grading": null, "generators": [[0.59999999999999998, 0.80000000000000004], [0.89999999999999991, -1.2000000000000002], [2.5, 0.0]]}\n'),
    (['measure', 'mu_f_signed.json'],
     '{"plus": {"ambient_dim": 2, "grading": null, "generators": [[0.29999999999999999, 0.40000000000000002], [2.0, 0.0]]}, "minus": {"ambient_dim": 2, "grading": null, "generators": [[0.0, 1.0]]}}\n'),
    (['measure', 'mu_f_empty.json'],
     '{"ambient_dim": 3, "grading": null, "generators": []}\n'),
    (['measure', 'mu_f_offunit.json'],
     '{"ambient_dim": 2, "grading": null, "generators": [[-0.0, 1.2000000000000002], [0.40000000000000002, 0.0]]}\n'),
    (['measure', 'mu_q.json'],
     '{"ambient_dim": 2, "grading": null, "generators": [["10/39", "-8/13"], ["3/5", "4/5"], ["5/2", "0"]]}\n'),
    (['measure', 'mu_q_signed.json'],
     '{"plus": {"ambient_dim": 2, "grading": null, "generators": [["3/10", "2/5"], ["2", "0"]]}, "minus": {"ambient_dim": 2, "grading": null, "generators": [["0", "1"]]}}\n'),
    (['measure', 'mu_q_empty.json', '--exact-rational'],
     '{"ambient_dim": 2, "grading": null, "generators": []}\n'),
    (['measure', 'mu_q_weights_only.json'],
     '{"ambient_dim": 2, "grading": null, "generators": [["0", "4"], ["2/3", "0"]]}\n'),
    (['measure', '--to', 'K_f.json'],
     '{"atoms": [[0.57735026918962573, 0.57735026918962573, 0.57735026918962573], [0.22485950669875843, -0.89943802679503371, 0.37476584449793077], [1.0, 0.0, 0.0]], "weights": [0.086602540378443879, 0.66708320320631664, 1.0]}\n'),
    (['measure', '--to', 'K_q_rational.json'],
     '{"atoms": [["0", "1"], ["5/13", "-12/13"], ["3/5", "4/5"]], "weights": ["1", "1/2", "5/2"]}\n'),
    (['measure', '--to', 'K_q_irrational.json'],
     '{"atoms": [[1.0, 0.0], [0.70710678118654746, 0.70710678118654746]], "weights": [0.5, 0.70710678118654757]}\n'),
    (['measure', '--to', 'K_f_empty.json'],
     '{"ambient_dim": 2, "atoms": [], "weights": []}\n'),
    (['measure', 'mu_f.json', '--eval-dir', '0.3,-0.7'],
     '{"value": 1.1199999999999999}\n'),
    (['measure', 'mu_f_signed.json', '--eval-dir', '1,2'],
     '{"value": 0.55000000000000004}\n'),
    (['measure', 'mu_q.json', '--eval-dir', '1/3,-2', '--exact-rational'],
     '{"value": "4153/2340"}\n'),
    (['measure', 'mu_q_signed.json', '--eval-dir', '2,1', '--exact-rational'],
     '{"value": "2"}\n'),
    (['measure', 'mu_q_empty.json', '--eval-dir', '1,1', '--exact-rational'],
     '{"value": "0"}\n'),
    (['mvj', '--discs', '--q', '8', 'discs.json'],
     '{"value": 5.0866776785940431}\n'),
    (['edet', 'cmodel.json'],
     '{"value": 1.5192489038306873}\n'),
    (['edet', '--mode', 'mc', '--samples', '5000', '--seed', '3', 'cmodel.json'],
     '{"value": 1.5122160290826476, "stderr": 0.0098348198261739659}\n'),
]


@pytest.mark.parametrize("argv, stdout", PINNED_STDOUT, ids=lambda v: " ".join(v)[:60])
def test_pinned_stdout(tmp_path, monkeypatch, argv, stdout):
    monkeypatch.chdir(tmp_path)
    for name, obj in PINNED_FILES.items():
        write(tmp_path, name, obj)
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out == stdout


@pytest.mark.parametrize("command, obj, needle", [
    (["measure"], {"atoms": [["1", "0"], ["2"]], "weights": ["1/2", "1"]}, "length 1"),
    (["measure"], {"atoms": [[1.0, 0.0], [2.0]], "weights": [0.5, 1.0]}, "length 1"),
    (["measure"], {"ambient_dim": 3, "atoms": [[1.0, 0.0]], "weights": [1.0]}, "length 2"),
    (["measure"], {"atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [1.0]}, "one weight per atom"),
    (["sum"], {"ambient_dim": 2, "generators": [[1.0, 0.0], [2.0]]}, "length 1"),
    (["sum"], {"ambient_dim": 2, "generators": [["1", "0"], ["2", "0", "1"]]}, "length 3"),
    (["mvj", "--discs"], {"vectors": [[[1, 0, 5], [0, 1]], [[1, 1], [0, 2]]]}, "malformed"),
    (["mvj", "--discs"], {"vectors": [[[1, 0, 5], [0, 1, 0]], [[1, 1, 0], [0, 2, 0]]]},
     "[re, im] pairs"),
    (["edet"], {"size": 1, "complex": True, "blocks": [
        {"width": 1, "dist": {"atoms": [[[1, 0, 5]]], "probs": [1.0]}}]}, "[re, im] pairs"),
    (["edet"], {"size": 1, "complex": True, "blocks": [
        {"width": 1, "dist": {"atoms": [[[1, 0]], [[1, 0, 5]]], "probs": [0.5, 0.5]}}]},
     "regular array"),
    (["sum"], {"ambient_dim": 2, "generators": [["1/0", "0"]]}, "Fraction(1, 0)"),
    # block models and samplers the estimators cannot compute, refused on reading
    (["edet", "--mode", "mc"], {"size": 0, "blocks": []}, "size must be at least 1"),
    (["edet"], {"size": 1, "blocks": [{"width": w, "dist": {"atoms": [[1.0]], "probs": [1.0]}}
                                      for w in (0, 1)]}, "width must be at least 1"),
    (["edet"], {"size": 1, "blocks": [{"width": w, "dist": {"atoms": [[1.0]], "probs": [1.0]}}
                                      for w in (-1, 2)]}, "width must be at least 1"),
    (["edet", "--mode", "mc"], {"size": 2, "blocks": [{"width": 2, "sampler": {"kind": "cauchy"}}]},
     "unknown sampler kind: cauchy"),
    (["edet", "--empirical"], {"kind": "cauchy", "dimension": 2}, "unknown sampler kind: cauchy"),
    (["edet", "--empirical"], {"kind": "gaussian", "dimension": -2}, "dimension must be at least 1"),
    (["edet", "--empirical"], {"kind": "gaussian", "dimension": 0}, "dimension must be at least 1"),
    (["edet", "--empirical"], {"kind": "complex_gaussian", "dimension": 2},
     "expects a real sampler"),
    # a face's normal cone is read off the vertices outside it
    (["jvol", "--faces"], {"ambient_dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                           "n_faces": [[0, 1]]}, "two vertex rows are equal"),
])
def test_malformed_rows_and_pairs_exit_2(tmp_path, command, obj, needle):
    code, out, err = run([*command, write(tmp_path, "in.json", obj)])
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert needle in message and "in.json" in message


def test_complex_distribution_round_trips_through_pairs():
    atoms = np.array([[1 + 2j, -0.5j], [3.0 + 0j, 0.25 - 1j]])
    dist = zonoidal.DiscreteDistribution(atoms, np.array([0.5, 0.5]))
    d = zonoidal.distribution_to_dict(dist)
    assert d["atoms"][0] == [[1.0, 2.0], [0.0, -0.5]]
    back = zonoidal.distribution_from_dict(json.loads(json.dumps(d)), complex_field=True)
    assert np.array_equal(back.atoms, atoms)
    # width-2 blocks carry one more axis; the pairs stay on the last one
    wide = zonoidal.DiscreteDistribution(atoms[:, :, None] * [1, 1j], np.array([0.5, 0.5]))
    back = zonoidal.distribution_from_dict(zonoidal.distribution_to_dict(wide), True)
    assert np.array_equal(back.atoms, wide.atoms)


def test_empty_measure_keeps_its_dimension(tmp_path):
    empty = write(tmp_path, "K.json", {"ambient_dim": 2, "generators": []})
    code, out, _ = run(["measure", "--to", empty])
    assert code == 0
    back = run(["measure", write(tmp_path, "mu.json", json.loads(out))])
    assert back == run(["sum", empty]) == (0, '{"ambient_dim": 2, "grading": null, '
                                              '"generators": []}\n', "")


# One command per file kind, the bad file written as "BAD" among good ones.
# Each gets four bad inputs: a JSON list, a field of the wrong type, a
# non-numeric entry and a null among the numbers (numpy would read it as NaN).
_CUBE = {"ambient_dim": 2, "generators": [[1.0, 0.0], [0.0, 1.0]]}
_DIST = {"atoms": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}
_FACES = {"ambient_dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0]], "n_faces": [[0], [1]]}
FILE_KINDS = [
    ("zonotope", ["vol", "BAD"],
     {**_CUBE, "generators": 5}, {**_CUBE, "generators": [["x", "0"]]},
     {**_CUBE, "grading": None, "generators": [[None, 0.0], [0.0, 1.0]]}),
    ("zonotope", ["support", "BAD", "--dir", "1,0"],  # a virtual one
     {"plus": _CUBE, "minus": 5}, {"plus": _CUBE, "minus": {**_CUBE, "generators": [[0, "x"]]}},
     {"plus": _CUBE, "minus": {**_CUBE, "generators": [[0.0, None]]}}),
    ("complex vectors", ["mvj", "--discs", "BAD"],
     {"vectors": {"re": 1}}, {"vectors": [[["x", 0.0]]]},
     {"vectors": [[[1.0, None], [0.0, 1.0]]]}),
    ("face data", ["jvol", "--faces", "BAD"],
     {**_FACES, "n_faces": 5}, {**_FACES, "vertices": [["x", 0.0], [1.0, 0.0]]},
     {**_FACES, "vertices": [[None, 0.0], [1.0, 0.0]]}),
    ("face data", ["kaza", "--faces", "BAD"],
     {**_FACES, "ambient_dim": [2]}, {**_FACES, "n_faces": [["x"]]},
     {**_FACES, "vertices": [[0.0, 0.0], [1.0, None]]}),
    ("subspace", ["sigma-j", "BAD"],
     {"ambient_dim": [2], "basis": [[1.0, 0.0]]}, {"ambient_dim": 2, "basis": [["x", 0.0]]},
     {"ambient_dim": 2, "basis": [[1.0, None]]}),
    ("block model", ["edet", "BAD"],
     {"size": 2, "blocks": [5]},
     {"size": 1, "blocks": [{"width": 1, "dist": {"atoms": [[1.0]], "probs": ["x"]}}]},
     {"size": 1, "blocks": [{"width": 1, "dist": {"atoms": [[None], [1.0]],
                                                  "probs": [0.5, 0.5]}}]}),
    ("distribution", ["edet", "--vitale", "BAD"],
     {**_DIST, "probs": 5}, {**_DIST, "probs": ["x", 0.5]}, {**_DIST, "probs": [0.5, None]}),
    ("distribution", ["bm-probe", "BAD", "GOOD", "--d", "2"],
     {**_DIST, "atoms": 5}, {**_DIST, "atoms": [["x", 0.0], [0.0, 1.0]]},
     {**_DIST, "atoms": [[None, 0.0], [0.0, 1.0]]}),
    ("sampler", ["edet", "--empirical", "BAD"],
     {"kind": "gaussian", "dimension": [2]}, {"kind": "gaussian", "dimension": "x"},
     {"kind": "discrete", "dimension": 2, "dist": {**_DIST, "atoms": [[1.0, None], [0.0, 1.0]]}}),
    ("companions", ["bm-probe", "GOOD", "GOOD", "--d", "1", "--companions", "BAD"],
     {"columns": 5}, {"columns": [["x", 0.0]]}, {"columns": [[None, 1.0]]}),
    ("measure", ["measure", "BAD"],
     {"atoms": 5, "weights": [1]}, {"atoms": [[1.0, 0.0]], "weights": ["x"]},
     {"atoms": [[1.0, 0.0]], "weights": [None]}),
]


@pytest.mark.parametrize("what, argv, case, obj", [
    pytest.param(what, argv, case, obj, id=f"{argv[0]} {what}: {case}")
    for what, argv, wrong_type, non_numeric, null in FILE_KINDS
    for case, obj in (("list", [1, 2]), ("wrong type", wrong_type), ("non-numeric", non_numeric),
                      ("null", null))
])
def test_every_malformed_file_exits_2(tmp_path, what, argv, case, obj):
    bad = write(tmp_path, "bad.json", obj)
    good = write(tmp_path, "good.json", _DIST)
    code, out, err = run([{"BAD": bad, "GOOD": good}.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 2
    assert error["message"].startswith(f"malformed {what} in {bad}: ")
    if case == "null":
        assert error["message"].endswith("null where a number belongs")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("what, argv, text", [
    pytest.param("zonotope", ["vol", "BAD"],
                 '{"ambient_dim": 2, "generators": [[%s, 0.0], [0.0, 1.0]]}', id="vol"),
    pytest.param("zonotope", ["sum", "BAD", "BAD"],
                 '{"ambient_dim": 2, "generators": [[1.0, 0.0], [0.0, %s]]}', id="sum"),
    pytest.param("distribution", ["edet", "--vitale", "BAD"],
                 '{"atoms": [[%s, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}', id="edet --vitale"),
])
def test_non_finite_json_literals_exit_2(tmp_path, what, argv, text, literal):
    # Python's json reads these literals, which JSON itself lacks
    bad = tmp_path / "bad.json"
    bad.write_text(text % literal)
    code, out, err = run([str(bad) if a == "BAD" else a for a in argv])
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"malformed {what} in {bad}: ")
    assert message.endswith("non-finite entry or null where a number belongs")


@pytest.mark.parametrize("argv, message", [
    (["gamma-k", "--k", "1", "--x", "1000"], "math range error"),
    (["j-ball", "--n", "400"], "int too large to convert to float"),
    (["gaussian-edet", "--m", "400"], "math range error"),
])
def test_constants_overflow_exits_3(argv, message):
    code, out, err = run(["constants", *argv])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {"code": 3, "message": message}


def test_non_finite_numbers_in_options_exit_2(tmp_path):
    f = cube_file(tmp_path)
    for argv, needle in ((["scale", f, "--matrix", "nan,0;0,1"], "bad matrix 'nan,0;0,1'"),
                         (["scale", f, "--matrix", "1,0;0,-inf"], "bad matrix '1,0;0,-inf'"),
                         (["support", f, "--dir", "inf,0"], "bad vector 'inf,0'"),
                         (["support", f, "--dir", "[NaN, 0]"], "bad vector '[NaN, 0]'")):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert needle in json.loads(err)["error"]["message"]


def test_malformed_numbers_in_options_exit_2(tmp_path):
    f, d = cube_file(tmp_path), write(tmp_path, "d.json", _DIST)
    for argv, needle in ((["mv", f, f, "--reverse-af", "--degrees", "1,x"], "bad vector '1,x'"),
                         (["mv", f, f, "--reverse-af", "--degrees", "1.5,0.5"], "need integers"),
                         (["bm-probe", d, d, "--d", "2", "--t-grid", "a"], "bad vector 'a'"),
                         (["support", f, "--dir", "[1, null]"], "bad vector '[1, null]'")):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert needle in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_options_exit_2(tmp_path, value):
    f = cube_file(tmp_path)
    for argv in (["constants", "gamma-k", f"--x={value}"], ["hausdorff", f, f, f"--net={value}"]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert "not a finite number" in json.loads(err)["error"]["message"]


# Handler paths that no test above runs in-process: each prints dumps of the
# library call it stands for.
_PLAIN = {"ambient_dim": 2, "grading": None, "generators": [[1.0, 0.5], [0.0, 2.0], [-0.7, 0.3]]}
_OTHER = {"ambient_dim": 3, "grading": None, "generators": [[0.2, 1.0, -1.0], [1.5, 0.0, 0.25]]}
_VIRTUAL = {"plus": _PLAIN, "minus": {"ambient_dim": 2, "generators": [[0.4, 0.1]]}}
_C2 = [{"ambient_dim": 4, "generators": G.tolist()}
       for G in np.random.Generator(np.random.Philox(key=21)).standard_normal((2, 3, 4))]


def _with(obj, path, change):
    """A deep copy of the JSON object obj whose entry x at path is change(x)."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    inner = obj
    for key in parents:
        inner = inner[key]
    inner[last] = change(inner[last])
    return obj


def printed(payload):
    return (0, cli.dumps(payload) + "\n", "")


def virtual_dict(W):
    return {"plus": zonoidal.zonotope_to_dict(W.plus), "minus": zonoidal.zonotope_to_dict(W.minus)}


def test_wedge_command(tmp_path):
    graded = [{**_OTHER, "grading": {"base_dim": 3, "degree": 1}, "generators": G}
              for G in (_OTHER["generators"], [[1.0, 0.5, 0.0], [0.0, 1.0, -2.0], [0.3, 0.0, 1.0]])]
    a, b = (write(tmp_path, f"g{i}.json", g) for i, g in enumerate(graded))
    A, B = (zonoidal.zonotope_from_dict(g) for g in graded)
    assert run(["wedge", a, b]) == printed(
        zonoidal.zonotope_to_dict(zonoidal.wedge_product(A, B)))


def test_radius_exact_mode(tmp_path):
    f = write(tmp_path, "K.json", _PLAIN)
    want = printed({"value": zonoidal.radius(zonoidal.zonotope_from_dict(_PLAIN))})
    assert run(["radius", f, "--mode", "exact"]) == want


def test_tensor_of_two_plain_bodies(tmp_path):
    a, b = write(tmp_path, "a.json", _PLAIN), write(tmp_path, "b.json", _OTHER)
    A, B = zonoidal.zonotope_from_dict(_PLAIN), zonoidal.zonotope_from_dict(_OTHER)
    assert run(["tensor", a, b]) == printed(
        zonoidal.zonotope_to_dict(zonoidal.tensor_product(A, B)))


def test_kaza_faces(tmp_path):
    P = zonoidal.zonotope_from_dict(_C2[0])
    faces = zonoidal.face_data_to_dict(zonoidal.zonotope_face_data(P))
    fd = write(tmp_path, "fd.json", faces)
    val, se = zonoidal.kazarnovskii_polytope_mc(zonoidal.face_data_from_dict(faces), 3000, 4)
    assert run(["kaza", "--faces", fd, "--samples", "3000", "--seed", "4"]) == printed(
        {"value": val, "stderr": se})


def test_edet_complex_mc_mode(tmp_path):
    dist = {"atoms": [[[1.0, 0.0], [0.5, 0.5]], [[0.0, -1.0], [2.0, 0.0]]], "probs": [0.3, 0.7]}
    model = {"size": 2, "complex": True, "blocks": [{"width": 1, "dist": dist}] * 2}
    f = write(tmp_path, "cm.json", model)
    val, se = zonoidal.expected_abs_det_complex_mc(zonoidal.model_from_dict(model), 3000, 5)
    assert run(["edet-complex", f, "--mode", "mc", "--samples", "3000", "--seed", "5"]) == printed(
        {"value": val, "stderr": se})


def test_sum_length_and_scale_of_a_virtual_body(tmp_path):
    v = write(tmp_path, "v.json", _VIRTUAL)
    W = zonoidal.VirtualZonotope(zonoidal.zonotope_from_dict(_VIRTUAL["plus"]),
                                 zonoidal.zonotope_from_dict(_VIRTUAL["minus"]))
    assert run(["sum", v, v]) == printed(virtual_dict(zonoidal.virtual_add(W, W)))
    assert run(["length", v]) == printed({"value": zonoidal.virtual_length(W)})
    assert run(["scale", v, "--factor", "1.5"]) == printed(virtual_dict(zonoidal.VirtualZonotope(
        zonoidal.scale(W.plus, 1.5), zonoidal.scale(W.minus, 1.5))))


def test_mvj_tags_an_untagged_body_as_degree_one(tmp_path):
    files = [write(tmp_path, f"K{i}.json", K) for i, K in enumerate(_C2)]
    tagged = [zonoidal.zonotope_from_dict({**K, "cgrading": {"complex_dim": 2, "degree": 1}})
              for K in _C2]
    assert run(["mvj", *files]) == printed({"value": zonoidal.mixed_J_volume(*tagged)})


@pytest.mark.parametrize("argv, message", [
    (["scale", "K"], "scale needs --factor or --matrix"),
    (["kaza"], "kaza needs a zonotope file or --faces"),
    (["mv", "K", "--af-gap"], "--af-gap needs at least two zonotopes"),
    (["mvj", "ODD"], "ODD: odd ambient dimension for a complex zonoid"),
])
def test_handler_schema_errors_exit_2(tmp_path, argv, message):
    files = {"K": write(tmp_path, "K.json", _PLAIN), "ODD": write(tmp_path, "ODD.json", _OTHER)}
    code, out, err = run([files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": 2, "message": message.replace(
        "ODD", files["ODD"])}


@pytest.mark.parametrize("argv, message", [
    (["jvol", "--faces", "F", "K"], "jvol --faces takes no zonotope file, got K"),
    (["kaza", "--faces", "F", "K"], "kaza --faces takes no zonotope file, got K"),
    (["mvj", "--discs", "--q", "8", "D", "K"], "mvj --discs takes exactly 1 file, got 2"),
    (["scale", "K", "--factor", "2", "--matrix", "1,0;0,1"],
     "scale takes --factor or --matrix, not both"),
    # an option the command would ignore in the mode it was given in
    (["edet", "--vitale", "--samples", "5", "P"], "edet --vitale takes no --samples"),
    (["edet", "--vitale", "--seed", "3", "P"], "edet --vitale takes no --seed"),
    (["edet", "--vitale", "--empirical", "P"], "edet takes --vitale or --empirical, not both"),
    (["radius", "--mode", "exact", "--samples", "5", "K"],
     "radius --mode exact takes no --samples"),
    (["radius", "--mode", "exact", "--seed", "9", "K"], "radius --mode exact takes no --seed"),
    (["jvol", "K", "--theta", "3"], "jvol --theta needs --faces"),
    (["jvol", "--faces", "F", "--make-faces"], "jvol --faces takes no --make-faces"),
    (["jvol", "K", "--samples", "5"], "jvol without --faces takes no --samples"),
    (["kaza", "K", "--seed", "0"], "kaza without --faces takes no --seed"),
    (["jvol", "--faces", "F", "--exact-rational"], "jvol --faces takes no --exact-rational"),
    (["kaza", "--faces", "F", "--exact-rational"], "kaza --faces takes no --exact-rational"),
    (["mvj", "--discs", "--exact-rational", "D"], "mvj --discs takes no --exact-rational"),
    (["edet", "--mode", "exact", "--seed", "3", "M"], "edet --mode exact takes no --seed"),
    (["edet-complex", "--samples", "5", "M"], "edet-complex --mode exact takes no --samples"),
    (["bm-probe", "--d", "1", "--seed", "3", "P", "P"], "bm-probe without --mc takes no --seed"),
])
def test_conflicting_inputs_exit_2(tmp_path, argv, message):
    files = {"K": write(tmp_path, "K.json", _PLAIN), "F": write(tmp_path, "F.json", _FACES),
             "D": write(tmp_path, "D.json", {"vectors": [[[1.0, 0.0], [0.0, 1.0]]]}),
             "P": write(tmp_path, "P.json", _DIST), "M": write(tmp_path, "M.json", _MODEL)}
    code, out, err = run([files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": 2, "message": message.replace("K", files["K"])}


_MODEL = {"size": 1, "blocks": [{"width": 1, "dist": {"atoms": [[1.0]], "probs": [1.0]}}]}
_SAMPLER = {"kind": "gaussian", "dimension": 2, "seed": 3}


# (file kind, command, a good file, the path of an integer field in it)
INTEGER_FIELDS = [
    ("zonotope", ["vol"], _CUBE, ("ambient_dim",)),
    ("zonotope", ["vol"], {**_CUBE, "grading": {"base_dim": 2, "degree": 1}},
     ("grading", "base_dim")),
    ("zonotope", ["vol"], {**_CUBE, "grading": {"base_dim": 2, "degree": 1}},
     ("grading", "degree")),
    ("zonotope", ["vol"], {**_CUBE, "cgrading": {"complex_dim": 1, "degree": 1}},
     ("cgrading", "complex_dim")),
    ("zonotope", ["vol"], {**_CUBE, "cgrading": {"complex_dim": 1, "degree": 1}},
     ("cgrading", "degree")),
    ("measure", ["measure"], {"ambient_dim": 2, "atoms": [[1.0, 0.0]], "weights": [1.0]},
     ("ambient_dim",)),
    ("face data", ["jvol", "--faces"], _FACES, ("ambient_dim",)),
    ("face data", ["jvol", "--faces"], _FACES, ("n_faces", 1, 0)),
    ("block model", ["edet"], _MODEL, ("size",)),
    ("block model", ["edet"], _MODEL, ("blocks", 0, "width")),
    ("sampler", ["edet", "--empirical", "--samples", "3"], _SAMPLER, ("dimension",)),
    ("sampler", ["edet", "--empirical", "--samples", "3"], _SAMPLER, ("seed",)),
    ("subspace", ["sigma-j"], {"ambient_dim": 2, "basis": [[1.0, 0.0]]}, ("ambient_dim",)),
]


@pytest.mark.parametrize("value", [2.5, 0.7, "2", True])
@pytest.mark.parametrize("what, argv, base, path", INTEGER_FIELDS,
                         ids=[f"{f[1][0]} {'.'.join(map(str, f[3]))}" for f in INTEGER_FIELDS])
def test_integer_fields_take_only_integers(tmp_path, what, argv, base, path, value):
    # an integral float reads as its integer; anything else is a schema error
    want = run([*argv, write(tmp_path, "good.json", base)])
    assert want[0] == 0
    assert run([*argv, write(tmp_path, "float.json", _with(base, path, float))]) == want
    bad = write(tmp_path, "bad.json", _with(base, path, lambda _: value))
    code, out, err = run([*argv, bad])
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert message == f"malformed {what} in {bad}: not an integer: {value!r}"


def test_sampler_blocks_draw_from_the_seed_option(tmp_path):
    def model(name, **sampler):
        return write(tmp_path, name, {"size": 3, "blocks": [
            {"width": 2, "sampler": {"kind": "gaussian", **sampler}},
            {"width": 1, "sampler": {"kind": "uniform_sphere", **sampler}}]})

    argv = ["edet", "--mode", "mc", "--samples", "4000"]
    keyed, plain = model("keyed.json", seed=123), model("plain.json")
    out = run([*argv, "--seed", "7", keyed])
    assert out[0] == 0
    assert run([*argv, "--seed", "7", plain]) == out
    assert run([*argv, "--seed", "8", plain])[1] != out[1]


# The shared flags each command reads; a command takes no other.
SHARED_FLAGS = {"--seed", "--samples", "--net", "--exact-rational"}
READS_EXACT = {"support", "sum", "scale", "length", "radius", "hausdorff", "tensor", "wedge",
               "power", "hodge", "projbody", "mv", "vol", "intrinsic", "mvj", "jvol", "kaza",
               "measure"}
READS_SAMPLES = {"radius", "jvol", "kaza", "edet", "edet-complex", "bm-probe"}


def test_commands_take_only_the_shared_flags_they_read(tmp_path, capsys):
    for command in EXPECTED_COMMANDS:
        want = {"--exact-rational"} if command in READS_EXACT else set()
        if command in READS_SAMPLES:
            want |= {"--samples", "--seed"}
        if command == "hausdorff":
            want |= {"--seed", "--net"}
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", usage)) & SHARED_FLAGS == want, command
    K = cube_file(tmp_path)
    M = write(tmp_path, "M.json", {"size": 1, "blocks": [{"width": 1, "dist": _DIST}]})
    for argv in (["vol", K, "--seed", "3"], ["edet", M, "--exact-rational"]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in json.loads(err)["error"]["message"]


def _mv_bodies(tmp_path):
    g = np.random.Generator(np.random.Philox(key=31))
    return [write(tmp_path, f"{name}.json", {"ambient_dim": 3, "generators": rows})
            for name, rows in zip("KLM", [(g.integers(-6, 7, size=(4, 3)) / 4).tolist(),
                                         g.standard_normal((5, 3)).tolist(),
                                         g.standard_normal((4, 3)).tolist()])]


def test_mv_with_a_repeated_path_matches_the_library(tmp_path):
    K, L, M = _mv_bodies(tmp_path)
    for flags in ([], ["--exact-rational"]):
        exact = bool(flags)
        Kb, Lb = (zonoidal.zonotope_from_dict(json.loads(Path(f).read_text()), exact)
                  for f in (K, L))
        want = zonoidal.mixed_volume([Kb, Kb, Lb])
        code, out, _ = run(["mv", K, K, L] + flags)
        assert code == 0 and out == cli.dumps({"value": want}) + "\n"
        assert isinstance(want, Fraction) == exact
    # three distinct files: the pairwise chain, stdout as before
    code, out, _ = run(["mv", K, L, M])
    assert code == 0 and out == '{"value": 15.458455154903609}\n'


def test_mvj_with_a_repeated_path_matches_the_library(tmp_path):
    g = np.random.Generator(np.random.Philox(key=32))
    P = write(tmp_path, "P.json",
              {"ambient_dim": 4, "generators": g.standard_normal((6, 4)).tolist()})
    body = cli._require_cgrading_tag(cli._load_zonotope(P, False), P)
    code, out, _ = run(["mvj", P, P])
    assert code == 0 and json.loads(out)["value"] == zonoidal.mixed_J_volume(body, body)
    code, out, _ = run(["mvj", P, P, "--wedge"])
    assert code == 0 and len(json.loads(out)["generators"]) == math.comb(6, 2)


_K3 = {"ambient_dim": 3, "grading": None,
       "generators": [[0.5, -6.3, 8.4], [-1.8, -3.7, 6.2], [-6.8, 4.2, -5.6], [-1.9, -4.8, 6.1],
                      [-2.0, 8.5, 2.3], [3.5, 0.4, -3.4], [-1.9, 7.9, -5.4], [8.8, 4.6, -2.5]]}


def test_support_of_a_direction_does_not_depend_on_the_other_directions(tmp_path):
    f = write(tmp_path, "K.json", _K3)
    u, v = "[2.5,-2.1,-2.1]", "[0.1,-8.7,-0.1]"
    one = json.loads(run(["support", f, "--dir", u])[1])["value"]
    code, out, _ = run(["support", f, "--dir", u, "--dir", v])
    assert code == 0 and json.loads(out)["value"] == [one, json.loads(run(
        ["support", f, "--dir", v])[1])["value"]]
    K = zonoidal.zonotope_from_dict(_K3)
    assert one == zonoidal.support(K, np.array([2.5, -2.1, -2.1]))


def test_exact_rational_reads_directions_exactly_for_virtual_bodies(tmp_path):
    v = write(tmp_path, "v.json", {"plus": {"ambient_dim": 2, "generators": [[1, 2], [3, "1/3"]]},
                                   "minus": {"ambient_dim": 2, "generators": [[0.5, 1]]}})
    assert run(["support", v, "--exact-rational", "--dir", "1,0"]) == (0, '{"value": "7/4"}\n', "")
    assert run(["support", v, "--exact-rational", "--dir", "1,0", "--dir", "0,1/3"]) == printed(
        {"value": [Fraction(7, 4), Fraction(2, 9)]})
    assert run(["support", v, "--dir", "1,0"]) == (0, '{"value": 1.75}\n', "")


def test_a_virtual_body_where_a_plain_one_is_needed_exits_2(tmp_path):
    v = write(tmp_path, "v.json", _VIRTUAL)
    for argv in (["vol", v], ["radius", v], ["wedge", v, v]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == f"{v}: expected a plain zonotope, got a virtual one"


def test_sum_and_tensor_of_a_virtual_and_a_plain_body(tmp_path):
    v, k = write(tmp_path, "v.json", _VIRTUAL), write(tmp_path, "k.json", _PLAIN)
    W = zonoidal.VirtualZonotope(zonoidal.zonotope_from_dict(_VIRTUAL["plus"]),
                                 zonoidal.zonotope_from_dict(_VIRTUAL["minus"]))
    K = zonoidal.zonotope_from_dict(_PLAIN)
    as_virtual = zonoidal.VirtualZonotope(K, zonoidal.zonotope([], ambient_dim=2))
    assert run(["sum", k, v]) == printed(virtual_dict(zonoidal.virtual_add(as_virtual, W)))
    assert run(["tensor", v, k]) == printed(virtual_dict(zonoidal.virtual_tensor(W, as_virtual)))


def test_mvj_keeps_the_cgrading_a_body_carries(tmp_path):
    tagged = [{**K, "cgrading": {"complex_dim": 2, "degree": 1}} for K in _C2]
    files = [write(tmp_path, f"K{i}.json", K) for i, K in enumerate(tagged)]
    bodies = [zonoidal.zonotope_from_dict(K) for K in tagged]
    assert run(["mvj", *files]) == printed({"value": zonoidal.mixed_J_volume(*bodies)})


def test_make_faces_of_generators_apart_in_scale(tmp_path):
    G = np.vstack([np.eye(4), 1e-20 * np.array([1.0, 2.0, 3.0, 5.0])])
    f = write(tmp_path, "P.json", {"ambient_dim": 4, "generators": G.tolist()})
    faces = zonoidal.face_data_to_dict(zonoidal.zonotope_face_data(zonoidal.zonotope(G)))
    assert run(["jvol", f, "--make-faces"]) == printed(faces)
    assert len(faces["vertices"]) == 16
