import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalenets
from scalenets.cli import main
from scalenets.geometry import read_points


def run(args):
    return main(args)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_data_affine(tmp_path):
    out = tmp_path / "pts.txt"
    assert run(
        ["gen-data", "--kind", "affine", "--k", "2", "--d", "16", "--n", "500",
         "--seed", "1", "--output", str(out)]
    ) == 0
    cloud = read_points(out)
    assert cloud.n == 500 and cloud.dim == 16
    assert len(out.read_text().splitlines()) == 501


def run_process(args):
    """The CLI in a child process, which must import the same package as this
    one; pytest's own `pythonpath` setting does not reach it."""
    src = str(Path(scalenets.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "scalenets", *args], capture_output=True, text=True, env=env
    )


def test_gen_data_missing_seed_is_usage_error(tmp_path):
    proc = run_process(["gen-data", "--kind", "uniform", "--n", "10", "--d", "2",
                        "--output", str(tmp_path / "x.txt")])
    assert proc.returncode == 2, proc.stderr


def test_gen_data_curve_replay(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen-data", "--kind", "curve", "--spacing", "0.01", "--n", "60",
            "--d", "3", "--seed", "9"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert sha(a) == sha(b)
    pts = read_points(a).points
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.allclose(steps, 0.01)


def test_build_forest_verify_and_single_root(tmp_path):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "60", "--d", "3",
         "--seed", "2", "--output", str(pts)])
    forest = tmp_path / "forest.txt"
    assert run(
        ["build-forest", "--input", str(pts), "--output", str(forest),
         "--t", "0.4", "--seed", "3", "--exact-nn", "--verify"]
    ) == 0
    # t larger than the diameter: one root
    big = tmp_path / "big.txt"
    assert run(
        ["build-forest", "--input", str(pts), "--output", str(big),
         "--t", "100", "--seed", "3", "--exact-nn"]
    ) == 0
    first = big.read_text().splitlines()[1]
    assert first.startswith("node 0 parent=-")
    assert sum(1 for line in big.read_text().splitlines() if "parent=-" in line) == 1


def test_build_forest_bad_input(tmp_path):
    assert run(
        ["build-forest", "--input", str(tmp_path / "missing.txt"),
         "--output", str(tmp_path / "f.txt"), "--t", "1", "--seed", "1"]
    ) == 1


def test_exact_nn_repeatable_topology(tmp_path):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "clustered", "--n", "80", "--d", "3",
         "--seed", "5", "--output", str(pts)])
    outs = []
    for name in ("f1.txt", "f2.txt"):
        out = tmp_path / name
        assert run(
            ["build-forest", "--input", str(pts), "--output", str(out),
             "--t", "1.0", "--seed", "7", "--exact-nn"]
        ) == 0
        outs.append(sha(out))
    assert outs[0] == outs[1]


def test_wspd_pipeline_with_verify(tmp_path):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "clustered", "--n", "300", "--d", "3",
         "--seed", "4", "--output", str(pts)])
    out = tmp_path / "out.wspd"
    assert run(
        ["wspd", "--input", str(pts), "--output", str(out), "--t", "2",
         "--epsilon", "0.5", "--seed", "6", "--exact-nn", "--verify"]
    ) == 0
    assert out.read_text().startswith("wspd v1 ")


def test_wssd_pipeline_with_verify(tmp_path):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "40", "--d", "3",
         "--seed", "8", "--output", str(pts)])
    out = tmp_path / "out.wssd"
    assert run(
        ["wssd", "--input", str(pts), "--output", str(out), "--t", "0.25",
         "--epsilon", "0.5", "--k", "2", "--seed", "6", "--exact-nn", "--verify"]
    ) == 0
    assert out.read_text().startswith("wssd v1 ")


def test_cech_pipeline_with_verify(tmp_path):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "20", "--d", "3",
         "--seed", "3", "--output", str(pts)])
    out = tmp_path / "out.cech"
    assert run(
        ["cech", "--input", str(pts), "--output", str(out), "--t", "0.5",
         "--epsilon", "0.5", "--k", "2", "--seed", "6", "--exact-nn",
         "--verify", "--grid", "0.15,0.3,0.5"]
    ) == 0
    assert out.read_text().startswith("cechapprox v1 ")


def test_forest_scale_mismatch_rejected(tmp_path):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "30", "--d", "2",
         "--seed", "2", "--output", str(pts)])
    forest = tmp_path / "forest.txt"
    run(["build-forest", "--input", str(pts), "--output", str(forest),
         "--t", "0.5", "--seed", "3", "--exact-nn"])
    for t in ("0.3", "inf", "nan"):
        assert run(
            ["wspd", "--input", str(pts), "--forest", str(forest),
             "--output", str(tmp_path / "o.wspd"), "--t", t,
             "--epsilon", "0.5", "--seed", "3"]
        ) == 1


def test_forest_scale_within_tolerance_accepted(tmp_path):
    # a --t within the 1e-9 file tolerance of the forest's scale runs, and
    # the pairs carry the forest's own scale
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "30", "--d", "2",
         "--seed", "2", "--output", str(pts)])
    forest = tmp_path / "forest.txt"
    run(["build-forest", "--input", str(pts), "--output", str(forest),
         "--t", "0.3", "--seed", "3", "--exact-nn"])
    out = tmp_path / "o.wspd"
    assert run(
        ["wspd", "--input", str(pts), "--forest", str(forest), "--output", str(out),
         "--t", "0.30000000003", "--epsilon", "0.5", "--seed", "3"]
    ) == 0
    assert out.read_text().startswith("wspd v1 epsilon=0.5 t=%.17g\n" % 0.3)
    # the same forest serves a wssd at half its scale
    out = tmp_path / "o.wssd"
    assert run(
        ["wssd", "--input", str(pts), "--forest", str(forest), "--output", str(out),
         "--t", "0.15000000001", "--epsilon", "0.5", "--k", "1", "--seed", "3"]
    ) == 0
    assert out.read_text().startswith("wssd v1 epsilon=0.5 k=1 t=%.17g\n" % 0.15)


@pytest.mark.parametrize(
    "args",
    [
        ["dim-estimate", "--t", "-1"],
        ["wspd", "--t", "0.5", "--epsilon", "2"],
        ["wssd", "--t", "0.5", "--epsilon", "0.5", "--k", "0"],
        ["wspd", "--t", "0", "--epsilon", "0.5"],
        ["build-forest", "--t", "0.5", "--rho", "1.5"],
        ["build-forest", "--t", "inf", "--exact-nn"],
        ["wspd", "--t", "inf", "--epsilon", "0.5"],
    ],
    ids=" ".join,
)
def test_rejected_parameter_is_an_error_line(tmp_path, args):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "20", "--d", "2",
         "--seed", "2", "--output", str(pts)])
    proc = run_process(args + ["--input", str(pts), "--output", str(tmp_path / "o.txt"),
                               "--seed", "1"])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, n, extra", [
    ("wspd", 501, []),
    ("wssd", 63, ["--k", "2"]),
    ("cech", 41, []),
])
def test_verify_size_gate_is_an_error_line(tmp_path, monkeypatch, capsys, command, n, extra):
    # one past the size the command's oracle accepts; the gate comes before
    # any forest is built or read
    pts, out = tmp_path / "pts.txt", tmp_path / "o.txt"
    run(["gen-data", "--kind", "uniform", "--n", str(n), "--d", "2",
         "--seed", "2", "--output", str(pts)])

    def no_forest(*args, **kwargs):
        raise AssertionError("a forest was built or read")

    for module, name in [(scalenets.forest, "build_forest"), (scalenets.forest, "read_forest"),
                         (scalenets.cech, "build_forest")]:
        monkeypatch.setattr(module, name, no_forest)
    if command != "cech":
        extra = [*extra, "--forest", str(tmp_path / "forest.txt")]
    assert run([command, "--input", str(pts), "--output", str(out), "--t", "0.1",
                "--epsilon", "0.5", *extra, "--seed", "1", "--exact-nn", "--verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"oracle for n <= {n - 1}" in err
    assert not out.exists()


def test_gen_data_noise_reaches_the_generator(tmp_path):
    args = ["gen-data", "--kind", "affine", "--k", "2", "--d", "4", "--n", "50", "--seed", "1"]
    plain, noisy = tmp_path / "plain.txt", tmp_path / "noisy.txt"
    assert run(args + ["--output", str(plain)]) == 0
    assert run(args + ["--noise", "0.5", "--output", str(noisy)]) == 0
    assert sha(plain) != sha(noisy)
    negative = tmp_path / "negative.txt"
    assert run(args + ["--noise", "-0.5", "--output", str(negative)]) == 1
    assert not negative.exists()


def test_gen_data_noise_without_a_noise_parameter_is_an_error(tmp_path, capsys):
    out = tmp_path / "pts.txt"
    assert run(["gen-data", "--kind", "uniform", "--n", "10", "--d", "2", "--noise", "0.5",
                "--seed", "1", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid parameters for generator")
    assert not out.exists()


def test_dim_estimate_output(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "40", "--d", "2",
         "--seed", "2", "--output", str(pts)])
    forest = tmp_path / "forest.txt"
    run(["build-forest", "--input", str(pts), "--output", str(forest),
         "--t", "0.3", "--seed", "3", "--exact-nn"])
    assert run(["dim-estimate", "--forest", str(forest)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("dim-estimate t=") and " x=" in line and " log2x=" in line
    # from the points, with the arguments build-forest took: the same line
    built = ["dim-estimate", "--input", str(pts), "--t", "0.3", "--seed", "3", "--exact-nn"]
    assert run(built) == 0
    assert capsys.readouterr().out.strip() == line
    for missing in ("--t", "--seed"):
        at = built.index(missing)
        with pytest.raises(SystemExit) as exc:
            run(built[:at] + built[at + 2 :])
        assert exc.value.code == 2


def dim_estimate_files(tmp_path):
    """A 40-point file, a 41-point file, and the forest of the first at t=0.3."""
    pts, other = tmp_path / "pts.txt", tmp_path / "other.txt"
    for path, n in ((pts, 40), (other, 41)):
        run(["gen-data", "--kind", "uniform", "--n", str(n), "--d", "2",
             "--seed", "2", "--output", str(path)])
    forest = tmp_path / "forest.txt"
    run(["build-forest", "--input", str(pts), "--output", str(forest),
         "--t", "0.3", "--seed", "3", "--exact-nn"])
    return pts, other, forest


def test_dim_estimate_accepts_a_matching_t_and_input(tmp_path, capsys):
    pts, _, forest = dim_estimate_files(tmp_path)
    assert run(["dim-estimate", "--forest", str(forest)]) == 0
    line = capsys.readouterr().out
    assert run(["dim-estimate", "--forest", str(forest), "--t", "0.3", "--input", str(pts)]) == 0
    assert capsys.readouterr().out == line


@pytest.mark.parametrize("mismatch, message", [
    ("t", "forest file built at t=0.3, this command needs t=99.0"),
    ("input", "forest and point file disagree on n"),
], ids=["t", "input"])
def test_dim_estimate_rejects_a_forest_that_does_not_match(tmp_path, capsys, mismatch, message):
    _, other, forest = dim_estimate_files(tmp_path)
    extra = {"t": ["--t", "99", "--seed", "4"], "input": ["--input", str(other)]}[mismatch]
    assert run(["dim-estimate", "--forest", str(forest), *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["wspd", "dim-estimate"])
def test_unreadable_forest_file_is_an_error(tmp_path, capsys, command):
    pts = tmp_path / "pts.txt"
    run(["gen-data", "--kind", "uniform", "--n", "20", "--d", "2",
         "--seed", "2", "--output", str(pts)])
    rejected = tmp_path / "rejected.txt"
    rejected.write_text("not a forest\n")
    for forest in (tmp_path / "missing.txt", rejected):
        args = {
            "wspd": ["wspd", "--input", str(pts), "--output", str(tmp_path / "o.wspd"),
                     "--t", "0.5", "--epsilon", "0.5", "--seed", "3"],
            "dim-estimate": ["dim-estimate"],
        }[command]
        assert run(args + ["--forest", str(forest)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read forest from {forest}")
