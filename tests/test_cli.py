"""End-to-end tests for the zonoid command line."""

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
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
    # each command takes its own number of files
    f = cube_file(tmp_path)
    for argv in (["wedge", f], ["tensor", f], ["hausdorff", f], ["bm-probe", f, "--d", "1"],
                 ["wedge", f, f, f], ["vol", f, f], ["measure", f, f], ["jvol", f, f],
                 ["kaza", f, f], ["sum"], ["mv"]):
        code, _, err = run(argv)
        assert code == 2, argv
        assert json.loads(err)["error"]["code"] == 2


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
    # entry point, called the way a pip-generated wrapper calls it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
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
