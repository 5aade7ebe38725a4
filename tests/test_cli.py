import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import rows_orthogonal

from cayleyltc import cli, f2core
from cayleyltc.cli import main


@pytest.fixture(scope="module")
def z5_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("z5")
    rc = main(["build", "--group", "cyclic:5", "--gens", "1,4",
               "--base", "rep:2", "--out", str(out)])
    assert rc == 0
    return out


def test_build_writes_artifacts(z5_dir):
    manifest = json.loads((z5_dir / "manifest.json").read_text())
    assert manifest["format"] == "instance v1"
    assert manifest["derived"]["n_squares"] == 5
    assert (z5_dir / "complex.cay2.npz").exists()
    assert (z5_dir / "code.f2mat").exists()


def test_build_rejects_length_mismatch(tmp_path, capsys):
    rc = main(["build", "--group", "cyclic:5", "--gens", "1,4",
               "--base", "bch:3,3", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "base length 7" in err


def test_build_refuses_a_disconnected_cayley_graph(tmp_path, capsys):
    # <3, 9> has index 3 in Z_12: refused before any artifact is written
    out = tmp_path / "x"
    rc = main(["build", "--group", "cyclic:12", "--gens", "3,9",
               "--base", "rep:2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == json.dumps(
        {"error": "graph is disconnected: second eigenvalue is trivially 1"}) + "\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("group, gens, error", [
    ("psl2:13", "5000,5001", "generator index 5000 lies outside [0, 1092)"),
    ("cyclic:5", "1,4,5", "generator index 5 lies outside [0, 5)")])
def test_build_refuses_a_generator_index_outside_the_group(tmp_path, capsys,
                                                           group, gens, error):
    out = tmp_path / "x"
    rc = main(["build", "--group", group, "--gens", gens, "--base", "rep:2",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == json.dumps({"error": error}) + "\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("group, flags, error", [
    ("cyclic:5", ["--gens", "1,4", "--subset", "1"], "--subset needs --lps"),
    ("psl2:29", ["--lps", "5", "--gens", "1,2"],
     "--gens and --gens-b cannot be given with --lps"),
    ("psl2:29", ["--lps", "5", "--gens-b", "1,2"],
     "--gens and --gens-b cannot be given with --lps")])
def test_build_refuses_generator_flags_it_would_ignore(tmp_path, capsys, group,
                                                       flags, error):
    out = tmp_path / "x"
    rc = main(["build", "--group", group, *flags, "--base", "rep:2",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == json.dumps({"error": error}) + "\n"
    assert captured.out == "" and not out.exists()


def test_build_refuses_generator_sets_of_unequal_size(tmp_path, capsys):
    out = tmp_path / "D"
    rc = main(["build", "--group", "cyclic:12", "--gens", "1,11", "--gens-b", "1,11,6",
               "--base", "rep:2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == json.dumps({"error": "|A| = 2 != |B| = 3"}) + "\n"
    assert captured.out == "" and not out.exists()


def test_build_rejects_bad_group(tmp_path):
    assert main(["build", "--group", "dihedral:5", "--gens", "1",
                 "--base", "rep:2", "--out", str(tmp_path / "x")]) == 2


def test_analyze_rate_and_sigma(z5_dir, capsys):
    assert main(["analyze", str(z5_dir / "manifest.json"), "--which", "rate"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "pass" and rep["k"] == 1
    assert main(["analyze", str(z5_dir / "manifest.json"), "--which", "sigma"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["sigma"] == [1, 1]


def test_analyze_distance(z5_dir, capsys):
    assert main(["analyze", str(z5_dir / "manifest.json"),
                 "--which", "distance"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "pass"
    assert rep["distance"] == 5


def test_analyze_smooth(z5_dir, capsys):
    from cayleyltc import __version__

    manifest = z5_dir / "manifest.json"
    rc = main(["analyze", str(manifest), "--which", "smooth",
               "--alpha", "1/4", "--beta", "2/3", "--delta", "1", "--dldpc", "2"])
    assert rc == 0
    expected = {
        "instance": "cyclic:5", "base": "rep:2", "which": "smooth",
        "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        "tool_version": __version__, "n_witnesses": 1, "verdict": "pass",
        "us": {"certified": True,
               "params": {"alpha": "1/4", "beta": "2/3", "d": 2, "delta": "1"}},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def r8_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("r8")
    assert main(["build", "--group", "cyclic:17", "--gens", "1,2,3,4,13,14,15,16",
                 "--base", "rep:8", "--out", str(out)]) == 0
    return out


def _us_params(alpha, beta, d, delta):
    return {"alpha": alpha, "beta": beta, "d": d, "delta": delta}


# reports of the verify_us route that built a punctured code per (I, J)
@pytest.mark.parametrize("argv, rc, n_witnesses, us", [
    ([], 0, 37, {"certified": True, "params": _us_params("1/4", "2/3", 2, "1")}),
    (["--alpha", "1/2", "--beta", "1/2", "--delta", "1/3", "--dldpc", "8"], 0, 163,
     {"certified": True, "params": _us_params("1/2", "1/2", 8, "1/3")}),
    (["--alpha", "3/8", "--beta", "3/4", "--delta", "3/4", "--dldpc", "4"], 0, 93,
     {"certified": True, "params": _us_params("3/8", "3/4", 4, "3/4")}),
    (["--delta", "2"], 1, 0,
     {"certified": False, "counterexample_I": [],
      "reason": "no admissible J reaches the distance target"}),
    (["--dldpc", "1"], 1, 0, {"certified": False, "reason": "not a 1-LDPC code"}),
])
def test_analyze_smooth_rep8(r8_dir, capsys, argv, rc, n_witnesses, us):
    from cayleyltc import __version__

    manifest = r8_dir / "manifest.json"
    capsys.readouterr()
    assert main(["analyze", str(manifest), "--which", "smooth", *argv]) == rc
    expected = {
        "instance": "cyclic:17", "base": "rep:8", "which": "smooth",
        "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        "tool_version": __version__, "n_witnesses": n_witnesses,
        "verdict": "pass" if rc == 0 else "fail", "us": us,
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_analyze_spectral_non_lps_is_na(z5_dir, capsys):
    rc = main(["analyze", str(z5_dir / "manifest.json"), "--which", "spectral"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["lambda"] == pytest.approx(0.309017, abs=1e-6)
    assert rep["verdict"] == "na"
    assert rc == 2


def test_analyze_detects_corruption(z5_dir, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(z5_dir, broken)
    blob = (broken / "complex.cay2.npz").read_bytes()
    (broken / "complex.cay2.npz").write_bytes(blob + b"tampered")
    # spectral never deserialises the complex, but still checks its hash
    for which in ("rate", "spectral"):
        rc = main(["analyze", str(broken / "manifest.json"), "--which", which])
        assert rc == 2
        assert "hash mismatch" in capsys.readouterr().err


def test_experiment_kappa_deterministic_across_workers(z5_dir, tmp_path):
    args = ["experiment", str(z5_dir / "manifest.json"), "--kind", "kappa",
            "--trials", "40", "--seed", "99", "--weights", "1,2"]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--workers", "8", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_experiment_decode_contracts(z5_dir, tmp_path, capsys):
    rc = main(["experiment", str(z5_dir / "manifest.json"), "--kind", "decode",
               "--trials", "30", "--seed", "5", "--weights", "1,2",
               "--out", str(tmp_path / "dec"), "--format", "json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_contracts_ok"] is True
    lines = (tmp_path / "dec.csv").read_text().splitlines()
    assert len(lines) == 31


def test_experiment_zero_trials(z5_dir, tmp_path):
    rc = main(["experiment", str(z5_dir / "manifest.json"), "--kind", "decode",
               "--trials", "0", "--seed", "1", "--weights", "1,1",
               "--out", str(tmp_path / "empty")])
    assert rc == 0
    lines = (tmp_path / "empty.csv").read_text().splitlines()
    assert lines == ["trial,weight,D,outcome,iterations,delta_initial,"
                     "dist_to_output,dist_bound,contract_ok"]


def test_experiment_csv_stdout(z5_dir, tmp_path, capsys):
    rc = main(["experiment", str(z5_dir / "manifest.json"), "--kind", "kappa",
               "--trials", "3", "--seed", "2", "--weights", "1,1",
               "--out", str(tmp_path / "k"), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("trial,weight,D,kappa_hat,certified,in_code")


@pytest.mark.parametrize("weights", ["3,2", "0,1", "1,20"])
def test_experiment_weight_range_is_checked_for_both_kinds(z5_dir, tmp_path, capsys,
                                                           weights):
    # z5 has 5 squares; 3 trials cycle through weights 1..3 of "1,20" only
    errors = []
    for kind in ("kappa", "decode"):
        rc = main(["experiment", str(z5_dir / "manifest.json"), "--kind", kind,
                   "--trials", "3", "--seed", "1", "--weights", weights,
                   "--out", str(tmp_path / "runs" / kind)])
        assert rc == 2
        assert not (tmp_path / "runs").exists()
        errors.append(capsys.readouterr().err)
    lo, hi = weights.split(",")
    assert errors == [json.dumps({"error": f"weight range ({lo}, {hi}) invalid "
                                           "for length 5"}) + "\n"] * 2


@pytest.mark.parametrize("weights", ["1,2,3", "1,x", ""])
def test_experiment_weights_are_parsed_before_any_artifact_is_read(tmp_path, capsys,
                                                                   weights):
    # the manifest does not exist: --weights is refused before it is opened
    rc = main(["experiment", str(tmp_path / "missing.json"), "--kind", "kappa",
               "--trials", "1", "--weights", weights, "--out", str(tmp_path / "runs" / "e")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"--weights {weights!r} is not w or lo,hi"}
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--trials", "-3", "--trials -3 is negative"),
    ("--workers", "0", "--workers 0 is less than 1"),
    ("--workers", "-2", "--workers -2 is less than 1")])
def test_experiment_trials_and_workers_are_checked_before_any_artifact_is_read(
        tmp_path, capsys, flag, value, error):
    # the manifest does not exist: the count is refused before it is opened
    counts = {"--trials": "1", "--workers": "1", flag: value}
    rc = main(["experiment", str(tmp_path / "missing.json"), "--kind", "decode",
               "--trials", counts["--trials"], "--workers", counts["--workers"],
               "--out", str(tmp_path / "runs" / "e")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": error}
    assert not (tmp_path / "runs").exists()


# sha256 of code.f2mat and code.json: a change to the square code's G, H
# or sidecar must be deliberate
GOLDEN_CODES = {
    "z5": (["cyclic:5", "--gens", "1,4", "--base", "rep:2"],
           "63c85a5b2b0a77d2f80dc6a6bc3552ed273c8cdf8bf5f9b69111697e0291735d",
           "be4c3f676bef44973fc8824976c69afe2f88fa697c1bba33fd3fc78f3f9a9b78"),
    "z10": (["cyclic:10", "--gens", "1,3,5,7,9", "--base", "parity:5"],
            "641c8d970b469ce21d28db05007c4030c399f3cda2f9500fb43b8ff16b4c8195",
            "669e41223f263c4cfff69adfe216d0a74181ee0204f397d3e0fa0cd7b196f687"),
    "z12": (["cyclic:12", "--gens", "1,11", "--gens-b", "5,7", "--base", "rep:2"],
            "3b330ad38bcb3d1eb6b08befbd6c4e99d9555b0dc714c9e9d1ea4aa9b6fe7572",
            "5ad943a4b92dbd4232c06a39c5eaf7cc21ea1f1a8fca9535dc5808fe487d3684"),
    "z13": (["cyclic:13", "--gens", "1,12,5,8", "--base", "rep:4"],
            "3578fdf48a42e1b00d6e82799807f01323947fc950561517f5f121e088469d4a",
            "c6f195074ca72112a030d57d9e7448e6aa6d291c7b279a88e5310d79f8d21e2c"),
    "z16": (["cyclic:16", "--gens", "1,15,2,14,3,13,8", "--base", "bch:3,3"],
            "f6c89c3843d200954509012c5f53d0e63a4235b58ebf4e765b2790b07f7f9d17",
            "a453e1db1350f9d8bd880ce5308af3da9b961144972ae6f766847f3ef2ac59a8"),
    "z32": (["cyclic:32", "--gens", "1,31,2,30,3,29,4,28,5,27,6,26,7,25,16",
             "--base", "bch:4,3"],
            "7bc0b585ccb258cf3a1b1024d4c42ef42ab42611beb33103032d7e286aeff10f",
            "aacb64c4087f0e55d941a06761d92159755dec96700165e50b6041d161d8dc93"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CODES))
def test_build_writes_the_golden_square_code(tmp_path, capsys, name):
    args, f2mat, sidecar = GOLDEN_CODES[name]
    assert main(["build", "--group", *args, "--out", str(tmp_path)]) == 0
    digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("code.f2mat", "code.json")}
    assert digest == {"code.f2mat": f2mat, "code.json": sidecar}


def test_inspect_artifacts(z5_dir, capsys):
    assert main(["inspect", str(z5_dir / "manifest.json")]) == 0
    capsys.readouterr()
    assert main(["inspect", str(z5_dir / "code.f2mat")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["format"] == "f2mat v1"
    assert rep["rank"] == 4
    assert main(["inspect", str(z5_dir / "complex.cay2.npz")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["counts"]["squares"] == 5


def test_inspect_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"\x00\x01\x02")
    assert main(["inspect", str(bad)]) == 2
    # inspect reads the formats build writes, and no others
    for text in ("f2word v1 8\n81\n", "graph v1 2 1\n0 1\n", "f2mat v1 1 8\r\nff\r\n"):
        bad.write_text(text)
        assert main(["inspect", str(bad)]) == 2


def test_build_with_separate_b_generators(tmp_path, capsys):
    rc = main(["build", "--group", "cyclic:12", "--gens", "1,11",
               "--gens-b", "5,7", "--base", "rep:2", "--out", str(tmp_path / "z12")])
    assert rc == 0
    manifest = json.loads((tmp_path / "z12" / "manifest.json").read_text())
    assert manifest["derived"]["tnc"] is True
    assert manifest["derived"]["n_squares"] == 12


def test_decode_experiment_z12_all_codewords(tmp_path, capsys):
    # at corruption weights 1..2 the TNC toy decodes every trial
    out = tmp_path / "z12"
    assert main(["build", "--group", "cyclic:12", "--gens", "1,11",
                 "--gens-b", "5,7", "--base", "rep:2", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["experiment", str(out / "manifest.json"), "--kind", "decode",
               "--trials", "1000", "--seed", "31", "--weights", "1,2",
               "--out", str(tmp_path / "d")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_far"] == 0
    assert rep["all_contracts_ok"] is True


@pytest.fixture(scope="module")
def x41_dir(tmp_path_factory):
    # full LPS instance: the square code over budget is skipped, the manifest
    # still carries the derived parameters and the spectrum
    out = tmp_path_factory.mktemp("lps")
    assert main(["build", "--group", "psl2:41", "--lps", "5", "--base", "parity:6",
                 "--out", str(out)]) == 0
    return out


def test_lps_end_to_end_build_and_ramanujan_verdict(x41_dir, capsys):
    # spectral analysis passes the Ramanujan bound 2*sqrt(5)/6
    manifest = json.loads((x41_dir / "manifest.json").read_text())
    assert manifest["derived"]["n_edges"] == 206640
    assert manifest["derived"]["n_squares"] == 309960
    assert manifest["derived"]["delta1"] == [1, 3]
    assert manifest["derived"]["sigma1"] is None       # r*k1 = 30 over budget
    assert "skipped" in manifest["square_code"]
    rc = main(["analyze", str(x41_dir / "manifest.json"), "--which", "spectral"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["verdict"] == "pass"
    assert rep["lambda"] <= rep["ramanujan_bound"]


def test_analyze_spectral_solves_nothing(x41_dir, capsys, monkeypatch):
    # the verdict is on the spectrum build recorded; analyze never re-solves it
    from cayleyltc import spectral

    manifest = str(x41_dir / "manifest.json")
    assert main(["analyze", manifest, "--which", "spectral"]) == 0
    unpatched = capsys.readouterr().out

    def no_solve(*args, **kwargs):
        raise AssertionError("analyze solved an eigenproblem")

    monkeypatch.setattr(spectral, "second_eigenvalue", no_solve)
    assert main(["analyze", manifest, "--which", "spectral"]) == 0
    out = capsys.readouterr().out
    assert out == unpatched
    assert json.loads(out)["verdict"] == "pass"


def test_analyze_loads_no_complex_where_the_verdict_reads_none(x41_dir, z5_dir, capsys,
                                                              monkeypatch):
    cases = [(x41_dir, "spectral"), (z5_dir, "sigma"), (z5_dir, "smooth")]
    unpatched = []
    for path, which in cases:
        rc = main(["analyze", str(path / "manifest.json"), "--which", which])
        unpatched.append((rc, capsys.readouterr().out))

    def no_load(blob):
        raise AssertionError("analyze deserialised the complex")

    monkeypatch.setattr(cli, "deserialize_complex", no_load)
    for (path, which), expected in zip(cases, unpatched):
        rc = main(["analyze", str(path / "manifest.json"), "--which", which])
        assert (rc, capsys.readouterr().out) == expected
    assert [json.loads(out)["verdict"] for _, out in unpatched] == ["pass"] * 3


def manifest_copy(instance_dir, tmp_path, alter):
    """Path of a copy of an instance's manifest, changed by alter(manifest)."""
    manifest = json.loads((instance_dir / "manifest.json").read_text())
    for record in manifest["files"].values():
        record["path"] = str(instance_dir / record["path"])
    alter(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_ramanujan_verdict_counts_the_residual(z5_dir, tmp_path, capsys):
    # an LPS(5, q) manifest over the z5 artifacts, its recorded spectrum faked
    # so that lambda alone passes 2*sqrt(5)/6 = 0.7454 but lambda + residual
    # fails; then the largest double within the bound, 6 lambda <= 2 sqrt(5)
    # exactly, and the next double up
    top, over = 0.7453559924999299, 0.74535599249993
    assert math.nextafter(top, 1) == over
    assert (6 * Fraction(top)) ** 2 <= 20 < (6 * Fraction(over)) ** 2
    for lam, residual, verdict, rc in ((0.74, 0.0, "pass", 0), (0.74, 0.01, "fail", 1),
                                       (top, 0.0, "pass", 0), (over, 0.0, "fail", 1)):
        side = {"lambda": lam, "residual": residual, "method": "iterative"}

        def fake(m):
            m["generators"]["lps"] = 5
            m["spectral"] = {"lambda": lam, "cayley": {"left": side, "right": side}}
            m["derived"]["lambda"] = lam

        path = manifest_copy(z5_dir, tmp_path, fake)
        assert main(["analyze", str(path), "--which", "spectral"]) == rc
        rep = json.loads(capsys.readouterr().out)
        assert rep["ramanujan_bound"] == 2 * math.sqrt(5) / 6
        assert rep["verdict"] == verdict


def _halve_lambda(m):
    m["spectral"]["lambda"] = m["derived"]["lambda"] = 0.5 * m["derived"]["lambda"]


@pytest.mark.parametrize("alter, field", [
    (lambda m: m.pop("spectral"), "'spectral' is missing"),
    (lambda m: m["spectral"]["cayley"].pop("right"), "'spectral.cayley.right' is missing"),
    (lambda m: m["spectral"]["cayley"]["left"].pop("residual"),
     "'spectral.cayley.left.residual' is missing"),
    (lambda m: m["derived"].update({"lambda": 0.5}),
     "'spectral.lambda' differs from 'derived.lambda'"),
    (_halve_lambda, "'spectral.lambda' differs from the larger side lambda"),
])
def test_analyze_spectral_refuses_an_inconsistent_record(z5_dir, tmp_path, capsys,
                                                         alter, field):
    path = manifest_copy(z5_dir, tmp_path, alter)
    assert main(["analyze", str(path), "--which", "spectral"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"manifest field {field}"}


@pytest.mark.parametrize("field, argv", [
    ("files", ["analyze", "--which", "rate"]),
    ("base_spec", ["analyze", "--which", "rate"]),
    ("group_spec", ["analyze", "--which", "sigma"]),
    ("derived", ["analyze", "--which", "distance"]),
    ("generators", ["analyze", "--which", "spectral"]),
    ("files", ["experiment", "--kind", "decode", "--trials", "1"]),
    ("base_spec", ["experiment", "--kind", "decode", "--trials", "1"]),
    ("derived", ["experiment", "--kind", "kappa", "--trials", "1"]),
])
def test_a_missing_manifest_field_is_refused_by_name(z5_dir, tmp_path, capsys,
                                                    field, argv):
    path = manifest_copy(z5_dir, tmp_path, lambda m: m.pop(field))
    if argv[0] == "experiment":
        argv = [*argv, "--out", str(tmp_path / "runs" / "e")]
    assert main([argv[0], str(path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"manifest field {field!r} is missing"}
    assert not (tmp_path / "runs").exists()


def test_analyze_rate_reads_no_derived_field(z5_dir, tmp_path, capsys):
    path = manifest_copy(z5_dir, tmp_path, lambda m: m.pop("derived"))
    assert main(["analyze", str(path), "--which", "rate"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_solver_flags_are_not_options(z5_dir, tmp_path):
    # build has one solver policy; analyze solves nothing
    with pytest.raises(SystemExit) as exc:
        main(["build", "--group", "cyclic:5", "--gens", "1,4", "--base", "rep:2",
              "--method", "dense", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(z5_dir / "manifest.json"), "--which", "spectral",
              "--tol", "1e-12"])
    assert exc.value.code == 2


def test_internal_error_has_its_own_exit_code(z5_dir, capsys, monkeypatch):
    from cayleyltc import analysis
    from cayleyltc.cli import EXIT_BOUND, EXIT_INTERNAL

    def broken(C1):
        raise AssertionError("d_rc = 0 with f != g: implementation bug")

    monkeypatch.setattr(analysis, "sigma_exact", broken)
    rc = main(["analyze", str(z5_dir / "manifest.json"), "--which", "sigma"])
    assert rc == EXIT_INTERNAL != EXIT_BOUND
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "d_rc = 0 with f != g: implementation bug",
                   "type": "AssertionError"}


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    # r = 18: past the sigma budget (r*k1 = 18 > 12) and the US cap (r <= 16)
    out = tmp_path_factory.mktemp("wide")
    gens = ",".join(str(x) for x in [*range(1, 10), *range(28, 37)])
    assert main(["build", "--group", "cyclic:37", "--gens", gens,
                 "--base", "rep:18", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("which, reason", [
    ("rate", "square code on 2997 coordinates exceeds budget 100"),
    ("distance", "square code on 2997 coordinates exceeds budget 100"),
    ("sigma", "r*k1 = 18 exceeds the sigma budget 12"),
    ("smooth", "exhaustive US verification capped at r <= 16"),
])
def test_analyze_budget_refusal_is_an_na_report(wide_dir, tmp_path, capsys,
                                                monkeypatch, which, reason):
    from cayleyltc import __version__, codes
    from cayleyltc.cli import EXIT_PRECONDITION

    monkeypatch.setattr(codes, "SQUARE_CODE_COORD_BUDGET", 100)
    manifest = wide_dir / "manifest.json"
    out = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["analyze", str(manifest), "--which", which, "--out", str(out)])
    assert rc == EXIT_PRECONDITION == 2
    expected = {
        "instance": "cyclic:37", "base": "rep:18", "which": which,
        "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        "tool_version": __version__, "verdict": "na", "reason": reason,
    }
    text = json.dumps(expected, indent=2, sort_keys=True)
    assert capsys.readouterr().out == text + "\n"
    assert out.read_text() == text + "\n"


X41_REFUSAL = "square code on 309960 coordinates exceeds budget 20000"


def _forbid_rebuild(monkeypatch):
    from cayleyltc import codes, complexes

    def rebuilt(*args, **kwargs):
        raise AssertionError("the complex or the square code was rebuilt")

    monkeypatch.setattr(cli, "deserialize_complex", rebuilt)
    monkeypatch.setattr(complexes, "build_complex", rebuilt)
    monkeypatch.setattr(codes, "square_code", rebuilt)


@pytest.mark.parametrize("which", ["rate", "distance"])
def test_over_budget_analysis_is_refused_before_the_rebuild(x41_dir, capsys,
                                                            monkeypatch, which):
    from cayleyltc import __version__

    manifest = x41_dir / "manifest.json"
    _forbid_rebuild(monkeypatch)
    assert main(["analyze", str(manifest), "--which", which]) == 2
    expected = {
        "instance": "psl2:41", "base": "parity:6", "which": which,
        "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
        "tool_version": __version__, "verdict": "na", "reason": X41_REFUSAL,
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_over_budget_experiment_is_refused_before_the_rebuild(x41_dir, tmp_path,
                                                              capsys, monkeypatch):
    _forbid_rebuild(monkeypatch)
    rc = main(["experiment", str(x41_dir / "manifest.json"), "--kind", "decode",
               "--trials", "2", "--out", str(tmp_path / "runs" / "d")])
    assert rc == 2
    assert capsys.readouterr().out == json.dumps(
        {"verdict": "na", "reason": X41_REFUSAL}) + "\n"
    assert not (tmp_path / "runs").exists()


def test_refusal_keeps_the_hash_check_and_the_distance_na_first(x41_dir, tmp_path,
                                                                capsys, monkeypatch):
    _forbid_rebuild(monkeypatch)
    bad_hash = manifest_copy(
        x41_dir, tmp_path, lambda m: m["files"]["complex"].update(sha256="0" * 64))
    for argv in (["analyze", str(bad_hash), "--which", "rate"],
                 ["analyze", str(bad_hash), "--which", "distance"],
                 ["experiment", str(bad_hash), "--kind", "decode", "--trials", "2",
                  "--out", str(tmp_path / "d")]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "complex file hash mismatch: artifacts corrupted"}
    no_delta = manifest_copy(x41_dir, tmp_path,
                             lambda m: m["derived"].update(delta1=None))
    assert main(["analyze", str(no_delta), "--which", "distance"]) == 2
    assert json.loads(capsys.readouterr().out)["reason"] == "base code has no distance"


def test_z5_square_code_outputs_are_unchanged(z5_dir, tmp_path, capsys):
    # the budget check reads the complex file's square count; under budget,
    # the reports and trial rows are those of the rebuilt complex's code
    from cayleyltc import __version__

    manifest = z5_dir / "manifest.json"
    common = {"instance": "cyclic:5", "base": "rep:2", "tool_version": __version__,
              "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest()}
    expected = {
        "rate": {"which": "rate", "k": 1, "n": 5, "bound": -5.0, "verdict": "pass"},
        "distance": {"which": "distance", "bound": 0.8637287570313157, "delta0": 1.0,
                     "distance": 5, "hypothesis_holds": True,
                     "lambda": 0.30901699437494745, "verdict": "pass"},
    }
    for which, fields in expected.items():
        assert main(["analyze", str(manifest), "--which", which]) == 0
        assert capsys.readouterr().out == json.dumps(
            {**common, **fields}, indent=2, sort_keys=True) + "\n"
    rows = {
        "decode": ["trial,weight,D,outcome,iterations,delta_initial,dist_to_output,"
                   "dist_bound,contract_ok", "0,1,0.6,codeword,0,0,0.2,12,1",
                   "1,2,1,codeword,1,4,0.4,20,1", "2,3,0.8,far,0,4,nan,16,1",
                   "3,4,0.6,codeword,0,0,0.2,12,1"],
        "kappa": ["trial,weight,D,kappa_hat,certified,in_code", "0,1,0.6,3,1,0",
                  "1,2,1,2.5,1,0", "2,3,0.8,1.33333333333,0,0", "3,4,0.6,0.75,0,0"],
    }
    for kind, lines in rows.items():
        assert main(["experiment", str(manifest), "--kind", kind, "--trials", "4",
                     "--seed", "3", "--weights", "1,4", "--format", "csv",
                     "--out", str(tmp_path / kind)]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def z12_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("z12")
    assert main(["build", "--group", "cyclic:12", "--gens", "1,11", "--gens-b", "5,7",
                 "--base", "rep:2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def p13_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("p13")
    assert main(["build", "--group", "psl2:13", "--gens", "79,90,91,234",
                 "--base", "parity:4", "--out", str(out)]) == 0
    return out


def test_experiment_starts_no_thread(z12_dir, tmp_path, monkeypatch):
    import threading

    def refused(self):
        raise AssertionError("experiment started a thread")

    monkeypatch.setattr(threading.Thread, "start", refused)
    rows = {}
    for workers in (1, 8):
        prefix = tmp_path / f"w{workers}"
        assert main(["experiment", str(z12_dir / "manifest.json"), "--kind", "decode",
                     "--trials", "12", "--seed", "6", "--weights", "1,3",
                     "--workers", str(workers), "--out", str(prefix)]) == 0
        rows[workers] = [Path(f"{prefix}.{ext}").read_bytes() for ext in ("csv", "jsonl")]
    assert rows[8] == rows[1]


#: sha256 of code.f2mat and manifest.json of the TNC-true PSL2(F_13) builds
#: below.  The manifests were re-pinned when the dense solve moved onto
#: character blocks, which moved lambda in its last bits
P13_TNC_SHA256 = {
    "code.f2mat": "664d9695e1e81e18d078b9ae3d4c8ba2a54cff7acb99fdd310d9027574fc4cb9",
    "manifest.json": "164cb523f3ac06af438e5e1870cd4ab0c9de3ff26a5d0545b7e02035228e7f9e"}
P13_TNC_PARITY6_SHA256 = {
    "code.f2mat": "7409ea72f848dfd7d2e9fc724dafe087552c66a9889d1a036caa45a9ba307d5d",
    "manifest.json": "c8c52e6d965902f9d20ddd4ac69de3b073be060b4d70bbe3cca805ffe5140ae8"}
P13_TNC_PARITY6 = ["--group", "psl2:13", "--gens", "562,1069,1059,890,509,843",
                   "--gens-b", "883,131,1001,325,899,284", "--base", "parity:6"]
P13_BUILD = ["--group", "psl2:13", "--gens", "79,90,91,234", "--base", "parity:4"]
X41_BUILD = ["--group", "psl2:41", "--lps", "5", "--base", "parity:6"]
#: sha256 of manifest.json of the p13 (A = B, dense) and X41 (Lanczos)
#: builds on one BLAS thread
P13_MANIFEST_SHA256 = "39314028aeab68d5a104b3f1d2a1a310c8309fc9618eb47878a34979cc7d0d85"
X41_MANIFEST_SHA256 = "b32b568ce675e9cf14a8cbcd379f9e96f1079dd78e6972bbbfed86e774747171"


def _build_in_a_subprocess(out, argv, blas_threads="1"):
    """The bytes of manifest.json of the build argv, group flags included,
    run by a fresh interpreter on blas_threads BLAS threads."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
               MKL_NUM_THREADS=blas_threads)
    subprocess.run([sys.executable, "-m", "cayleyltc.cli", "build", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    return (out / "manifest.json").read_bytes()


def _build_golden(out, argv, golden):
    """The manifest of the build argv in a subprocess, its files checked
    against their golden sha256."""
    _build_in_a_subprocess(out, argv)
    for name, digest in golden.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    return json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("argv", [P13_BUILD, P13_TNC_PARITY6], ids=["p13", "p13_tnc6"])
def test_dense_builds_are_byte_identical_across_blas_threads(tmp_path, argv):
    # each character block is assembled by bincount and solved alone, so
    # lambda's bits do not follow the BLAS thread count
    assert (_build_in_a_subprocess(tmp_path / "t1", argv, "1")
            == _build_in_a_subprocess(tmp_path / "t2", argv, "2"))


@pytest.mark.parametrize("argv, digest", [(P13_BUILD, P13_MANIFEST_SHA256),
                                          (X41_BUILD, X41_MANIFEST_SHA256)],
                         ids=["p13_dense", "x41_lanczos"])
def test_build_manifests_match_their_golden_sha256(tmp_path, argv, digest):
    # Lanczos reductions follow the BLAS thread count, so both pins hold on one
    assert hashlib.sha256(_build_in_a_subprocess(tmp_path, argv)).hexdigest() == digest


#: sha256 of the kappa and decode CSV rows on Z_23 with ten generators and
#: rep:10: r = 10, so every line code spans two syndrome bytes
R10_BUILD = ["--group", "cyclic:23", "--gens", "1,22,2,21,3,20,4,19,5,18", "--base", "rep:10"]
R10_CSV_SHA256 = {
    "kappa": "ca77adb4384792d994caa4635258b6c848c8e594256c1b910ebbb6e4f97ebc42",
    "decode": "47a901718f9b5a9fac247414e627c0f0345a1a5622cac9bf42f9d7967490c61e"}


def test_two_byte_line_codes_give_the_golden_rows(tmp_path):
    out = tmp_path / "r10"
    assert main(["build", *R10_BUILD, "--out", str(out)]) == 0
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    assert (derived["r"], derived["n_squares"]) == (10, 575)
    for kind, digest in R10_CSV_SHA256.items():
        prefix = tmp_path / kind
        assert main(["experiment", str(out / "manifest.json"), "--kind", kind,
                     "--trials", "24", "--seed", "10", "--weights", "240,287",
                     "--format", "csv", "--out", str(prefix)]) == 0
        assert hashlib.sha256(Path(f"{prefix}.csv").read_bytes()).hexdigest() == digest, kind


def _assert_the_tnc_facts(out, manifest, r):
    """The facts the acceptance suite and the paper state under TNC, on the
    PSL2(F_13) build in out with |A| = |B| = r: TNC and N2C hold, |E| =
    |G| r and |S| = |G| r^2 / 4, and every view iota_g is injective."""
    derived = manifest["derived"]
    assert derived["tnc"] is True and derived["n2c"] is True
    assert derived["n_edges"] == 1092 * r
    assert derived["n_squares"] == 1092 * r * r // 4
    X = cli.deserialize_complex((out / "complex.cay2.npz").read_bytes())
    views = np.sort(X.square_id.transpose(1, 0, 2).reshape(X.n_vertices, -1), axis=1)
    assert (np.diff(views, axis=1) > 0).all()


def test_a_tnc_true_psl2_instance_builds_and_decodes(tmp_path, capsys):
    # B differs from A: an A = B build fails TNC at g = e, this one has it
    out = tmp_path / "p13t"
    manifest = _build_golden(out, ["--group", "psl2:13", "--gens", "79,90,91,234",
                                   "--gens-b", "517,328,559,728", "--base", "parity:4"],
                             P13_TNC_SHA256)
    _assert_the_tnc_facts(out, manifest, 4)
    assert manifest["square_code"] == {"n": 4368, "k": 1096}
    capsys.readouterr()
    assert main(["analyze", str(out / "manifest.json"), "--which", "rate"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert main(["experiment", str(out / "manifest.json"), "--kind", "decode",
                 "--trials", "50", "--seed", "1", "--weights", "1,20",
                 "--out", str(tmp_path / "runs" / "d")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_contracts_ok"] is True and report["n_far"] == 0


def test_a_tnc_true_psl2_instance_passes_a_non_vacuous_rate_bound(tmp_path, capsys):
    # parity:6 on random symmetric 6-sets with TNC: k = 4,374 against the
    # bound (4 k1 / r - 3) n = 3,276, inside the paper's hypotheses
    out = tmp_path / "p13t6"
    manifest = _build_golden(out, P13_TNC_PARITY6, P13_TNC_PARITY6_SHA256)
    _assert_the_tnc_facts(out, manifest, 6)
    assert manifest["square_code"] == {"n": 9828, "k": 4374}
    capsys.readouterr()
    assert main(["analyze", str(out / "manifest.json"), "--which", "rate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["k"], report["verdict"]) == (4374, "pass")
    assert report["bound"] == pytest.approx(3276)
    assert main(["experiment", str(out / "manifest.json"), "--kind", "kappa",
                 "--trials", "30", "--seed", "1", "--weights", "1,20",
                 "--out", str(tmp_path / "runs" / "k")]) == 0
    capsys.readouterr()
    # the decoder's local search is refused: k1^2 = 25 exceeds its budget 20
    assert main(["experiment", str(out / "manifest.json"), "--kind", "decode",
                 "--trials", "1", "--out", str(tmp_path / "runs" / "d")]) == 2
    assert "k1^2 = 25" in json.loads(capsys.readouterr().err)["error"]


def _rebuilt_code_report(instance_dir, which):
    """The exit code and report of analyze --which rate|distance by the
    reference route: the square code rebuilt from the complex file, the rate
    judged on it and the distance bound decided in floats with 1e-9 slack."""
    from cayleyltc import __version__, codes

    manifest_path = instance_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    C1 = cli._parse_base(manifest["base_spec"])
    code = codes.square_code(
        cli.deserialize_complex((instance_dir / "complex.cay2.npz").read_bytes()), C1)
    r, k1 = code.params["r"], code.params["k1"]
    if which == "rate":
        holds = code.k * r >= (4 * k1 - 3 * r) * code.n
        rec = {"k": code.k, "n": code.n, "bound": (4 * (k1 / r) - 3) * code.n,
               "verdict": "pass" if holds else "fail"}
    else:
        d1, lam = manifest["derived"]["delta1"], manifest["derived"]["lambda"]
        delta0, lam_eff = d1[0] / d1[1], max(lam, 0.0)
        rec = {"lambda": lam, "delta0": delta0, "hypothesis_holds": delta0 > lam_eff,
               "bound": 0.25 * delta0 * delta0 * (delta0 - lam_eff) * code.n}
        if not rec["hypothesis_holds"]:
            rec.update(verdict="na", reason="delta0 <= lambda: proposition hypothesis fails")
        else:
            try:
                d = code.distance_exact()
            except ValueError as exc:
                rec.update(verdict="na", reason=f"exact distance unavailable: {exc}")
            else:
                rec.update(distance=d,
                           verdict="pass" if d >= rec["bound"] - 1e-9 else "fail")
    report = {"instance": manifest["group_spec"], "base": manifest["base_spec"],
              "which": which, "tool_version": __version__,
              "manifest_sha256": hashlib.sha256(manifest_path.read_bytes()).hexdigest(),
              **rec}
    rc = {"pass": 0, "fail": 1, "na": 2}[rec["verdict"]]
    return rc, json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
def test_recorded_code_reports_equal_the_rebuilt_code_reports(request, capsys, name):
    instance_dir = request.getfixturevalue(f"{name}_dir")
    capsys.readouterr()
    for which in ("rate", "distance"):
        rc = main(["analyze", str(instance_dir / "manifest.json"), "--which", which])
        assert (rc, capsys.readouterr().out) == _rebuilt_code_report(instance_dir, which)


def test_rate_and_a_vacuous_distance_rebuild_nothing(z5_dir, p13_dir, capsys,
                                                     monkeypatch):
    _forbid_rebuild(monkeypatch)
    for instance_dir, which, rc, verdict in ((z5_dir, "rate", 0, "pass"),
                                             (p13_dir, "rate", 0, "pass"),
                                             (p13_dir, "distance", 2, "na")):
        assert main(["analyze", str(instance_dir / "manifest.json"),
                     "--which", which]) == rc
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict


def test_a_distance_that_decides_the_verdict_reads_the_recorded_code(z5_dir, capsys,
                                                                    monkeypatch):
    _forbid_rebuild(monkeypatch)
    assert main(["analyze", str(z5_dir / "manifest.json"), "--which", "distance"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 5


def _rebuilt_code_route(monkeypatch):
    """Send every command that reads the recorded square code through the
    reference route instead: the code rebuilt from the complex file."""
    from cayleyltc import codes

    recorded = cli._recorded_square_code

    def rebuilt(manifest, manifest_path, blob):
        n, k, _ = recorded(manifest, manifest_path, blob)
        C1 = cli._parse_base(manifest["base_spec"])
        return n, k, lambda: codes.square_code(cli.deserialize_complex(blob), C1)

    monkeypatch.setattr(cli, "_recorded_square_code", rebuilt)


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
@pytest.mark.parametrize("kind", ["kappa", "decode"])
def test_experiment_on_the_recorded_code_equals_the_rebuilt_code(request, tmp_path,
                                                                 monkeypatch, kind, name):
    from cayleyltc import codes

    instance_dir = request.getfixturevalue(f"{name}_dir")
    argv = ["experiment", str(instance_dir / "manifest.json"), "--kind", kind,
            "--trials", "24", "--seed", "7", "--weights", "1,4"]

    def outputs(route, workers):
        prefix = tmp_path / f"{route}{workers}"
        rc = main([*argv, "--workers", str(workers), "--out", str(prefix)])
        return rc, [Path(f"{prefix}.{ext}").read_bytes() for ext in ("csv", "jsonl", "json")]

    def no_square_code(*args, **kwargs):
        raise AssertionError("experiment rebuilt the square code")

    with monkeypatch.context() as patched:
        patched.setattr(codes, "square_code", no_square_code)
        recorded = {workers: outputs("recorded", workers) for workers in (1, 4)}
    _rebuilt_code_route(monkeypatch)
    for workers in (1, 4):
        assert outputs("rebuilt", workers) == recorded[workers] == recorded[1]
    assert recorded[1][0] == 0


def _code_file(text):
    """An alteration pointing files.code at a new file holding text."""
    def alter(m, tmp_path):
        path = tmp_path / "other.f2mat"
        path.write_text(text)
        m["files"]["code"] = {"path": str(path),
                              "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return alter


def _code_reader(which, path, tmp_path):
    """argv of analyze --which rate|distance or of experiment --kind
    kappa|decode on the manifest at path, experiment writing under
    tmp_path / "runs"."""
    if which in ("rate", "distance"):
        return ["analyze", str(path), "--which", which]
    return ["experiment", str(path), "--kind", which, "--trials", "1",
            "--out", str(tmp_path / "runs" / "e")]


@pytest.mark.parametrize("which", ["rate", "distance", "kappa", "decode"])
@pytest.mark.parametrize("alter, error", [
    (lambda m, _: m["files"].pop("code"), "manifest field 'files.code' is missing"),
    (lambda m, _: m["square_code"].pop("k"), "manifest field 'square_code.k' is missing"),
    (lambda m, _: m["files"]["code"].update(sha256="0" * 64),
     "manifest field 'files.code.sha256' differs from the code file's sha256"),
    (lambda m, _: m["square_code"].update(k=2),
     "manifest field 'square_code.k' differs from n - rows = 1 of the code file"),
    (_code_file("f2mat v1 4 6\n88\n48\n28\n18\n"),
     "manifest field 'square_code.n' differs from the code file's 6 columns"),
    (_code_file("f2word v1 8\n81\n"),
     "manifest field 'files.code.path' names no f2mat v1 file"),
])
def test_an_inconsistent_code_record_is_refused_by_name(z5_dir, tmp_path, capsys,
                                                        monkeypatch, which, alter,
                                                        error):
    _forbid_rebuild(monkeypatch)
    path = manifest_copy(z5_dir, tmp_path, lambda m: alter(m, tmp_path))
    assert main(_code_reader(which, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": error}
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("which", ["rate", "decode"])
@pytest.mark.parametrize("missing", ["manifest", "complex", "code"])
def test_a_missing_input_file_is_refused_by_path(z5_dir, tmp_path, capsys, which,
                                                 missing):
    gone = str(tmp_path / "gone")
    path = gone if missing == "manifest" else manifest_copy(
        z5_dir, tmp_path, lambda m: m["files"][missing].update(path=gone))
    assert main(_code_reader(which, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"no such file: {gone}"}
    assert not (tmp_path / "runs").exists()


def test_inspect_refuses_a_missing_file_by_path(tmp_path, capsys):
    gone = str(tmp_path / "gone.f2mat")
    assert main(["inspect", gone]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": f"no such file: {gone}"}


@pytest.mark.parametrize("which", ["rate", "decode"])
@pytest.mark.parametrize("folder", ["manifest", "complex", "code"])
def test_an_input_path_that_is_a_directory_is_refused_by_path(z5_dir, tmp_path, capsys,
                                                              which, folder):
    # a directory used to reach read_bytes and exit 3 with IsADirectoryError
    where = tmp_path / "folder"
    where.mkdir()
    path = where if folder == "manifest" else manifest_copy(
        z5_dir, tmp_path, lambda m: m["files"][folder].update(path=str(where)))
    assert main(_code_reader(which, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"not a regular file: {where}"}
    assert not (tmp_path / "runs").exists()


def test_inspect_refuses_a_directory_by_path(z5_dir, capsys):
    assert main(["inspect", str(z5_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"not a regular file: {z5_dir}"}


def test_analyze_out_creates_its_directory(z5_dir, tmp_path, capsys):
    # the report's parent directories are made, as experiment makes its --out's
    report = tmp_path / "reports" / "rate" / "z5.json"
    assert main(["analyze", str(z5_dir / "manifest.json"), "--which", "rate",
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert report.read_text() == out
    assert json.loads(out)["verdict"] == "pass"


OUT_OF_ECHELON = "manifest field 'files.code.path' names a code file out of echelon form"


@pytest.mark.parametrize("which", ["rate", "distance", "kappa", "decode"])
def test_a_rank_deficient_code_file_is_refused_by_name(z5_dir, tmp_path, capsys,
                                                       monkeypatch, which):
    # the recorded shape, 4 rows of 5 columns, with a repeated row: rank 3, so
    # no row can lead right of the row above it
    _forbid_rebuild(monkeypatch)
    path = manifest_copy(z5_dir, tmp_path, lambda m: _code_file(
        "f2mat v1 4 5\n88\n48\n28\n28\n")(m, tmp_path))
    assert main(_code_reader(which, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": OUT_OF_ECHELON}
    assert not (tmp_path / "runs").exists()


def test_rate_certifies_the_rank_by_the_leading_digits(z5_dir, tmp_path, capsys,
                                                       monkeypatch):
    # build writes code.f2mat in echelon form, so rate reads each row's
    # leading digit and never loads the matrix
    _forbid_rebuild(monkeypatch)
    data = (z5_dir / "code.f2mat").read_bytes()
    assert f2core.f2mat_echelon(data)

    def loaded(*args):
        raise AssertionError("the code file was loaded")

    monkeypatch.setattr(f2core, "load_matrix", loaded)
    path = manifest_copy(z5_dir, tmp_path, lambda m: None)
    assert main(["analyze", str(path), "--which", "rate"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


@pytest.mark.parametrize("which", ["rate", "distance", "kappa", "decode"])
def test_a_full_rank_code_file_out_of_echelon_form_is_refused_by_name(
        z5_dir, tmp_path, capsys, monkeypatch, which):
    # the rows of the z5 code file in reverse order: rank 4, but build writes
    # only reduced echelon rows, so the file is refused before it is loaded
    _forbid_rebuild(monkeypatch)

    def loaded(*args):
        raise AssertionError("the code file was loaded")

    monkeypatch.setattr(f2core, "load_matrix", loaded)
    path = manifest_copy(z5_dir, tmp_path, lambda m: _code_file(
        "f2mat v1 4 5\n18\n28\n48\n88\n")(m, tmp_path))
    assert main(_code_reader(which, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": OUT_OF_ECHELON}
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("which", ["distance", "kappa", "decode"])
def test_an_echelon_code_file_that_is_not_reduced_is_refused_by_name(
        z5_dir, tmp_path, capsys, monkeypatch, which):
    # row 0 of the z5 code file plus row 1: the leads still increase and the
    # rank is 4, but row 0 meets pivot column 1, so its kernel is not read off
    _forbid_rebuild(monkeypatch)
    path = manifest_copy(z5_dir, tmp_path, lambda m: _code_file(
        "f2mat v1 4 5\nc0\n48\n28\n18\n")(m, tmp_path))
    assert main(_code_reader(which, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "manifest field 'files.code.path' names a code file in echelon "
                 "form that is not reduced"}
    assert not (tmp_path / "runs").exists()
    assert main(["analyze", str(path), "--which", "rate"]) == 0


@pytest.mark.parametrize("name", ["z5", "p13"])
def test_the_recorded_code_load_certifies_its_rows_reduced_once(request, monkeypatch, name):
    # the leading digits certify the rank; the constructor alone certifies
    # the rows reduced, and nothing checks them again
    instance_dir = request.getfixturevalue(f"{name}_dir")
    manifest = json.loads((instance_dir / "manifest.json").read_text())
    blob = (instance_dir / "complex.cay2.npz").read_bytes()
    load = cli._recorded_square_code(manifest, str(instance_dir / "manifest.json"), blob)[2]
    real, calls = f2core.reduced_echelon, []
    monkeypatch.setattr(f2core, "reduced_echelon", lambda M: calls.append(M.rows) or real(M))
    code = load()
    assert calls == [code.n - code.k]


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
def test_the_recorded_code_is_read_off_its_reduced_rows(request, monkeypatch, name):
    # the reference eliminates the file's rows again; the load certifies
    # them reduced and reads its kernel off them with no elimination
    from cayleyltc import codes

    instance_dir = request.getfixturevalue(f"{name}_dir")
    manifest = json.loads((instance_dir / "manifest.json").read_text())
    blob = (instance_dir / "complex.cay2.npz").read_bytes()
    H = f2core.load_matrix((instance_dir / "code.f2mat").read_bytes())
    ref = codes.LinearCode.from_parity_checks(H, provenance="square")
    load = cli._recorded_square_code(manifest, str(instance_dir / "manifest.json"), blob)[2]

    def called(*args):
        raise AssertionError("the recorded code was eliminated")

    for fn in ("row_basis", "_echelon_words"):
        monkeypatch.setattr(f2core, fn, called)
    code = load()
    assert np.array_equal(code.generator.words, ref.generator.words)
    assert code.parity == ref.parity == H and code.k == ref.k == manifest["square_code"]["k"]
    assert np.array_equal(code.information_set, ref.information_set)


#: sha256 of the packed uint64 words of p13's square-code generator, as
#: f2core.reduced_kernel_basis reads it off the recorded RREF
P13_GENERATOR_SHA256 = "f9c27a5cc9fa4369d8ca774e99f632315b6d70d19ece67271104ff06c2c88d38"


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
def test_the_recorded_generator_is_the_square_code_generator(request, name):
    # experiment rows cannot tell one generator basis from another, so the
    # basis the load derives is pinned here: equal to the rebuilt code's,
    # orthogonal to the recorded checks, and on p13 equal to a golden hash
    from cayleyltc import codes

    instance_dir = request.getfixturevalue(f"{name}_dir")
    manifest = json.loads((instance_dir / "manifest.json").read_text())
    blob = (instance_dir / "complex.cay2.npz").read_bytes()
    code = cli._recorded_square_code(manifest, str(instance_dir / "manifest.json"), blob)[2]()
    ref = codes.square_code(cli.deserialize_complex(blob), cli._parse_base(manifest["base_spec"]))
    assert code.generator == ref.generator and code.parity == ref.parity
    assert rows_orthogonal(code.generator, code.parity)
    if name == "p13":
        digest = hashlib.sha256(code.generator.words.tobytes()).hexdigest()
        assert digest == P13_GENERATOR_SHA256


def test_build_derives_no_square_code_generator(p13_dir, tmp_path, monkeypatch):
    # build writes H and reads k off it: the kernel is never read off the
    # square code's 4,368 columns, and the artifacts keep their bytes
    derive = f2core.reduced_kernel_basis

    def guarded(R):
        if R.cols == 4368:
            raise AssertionError("build derived the square code's generator")
        return derive(R)

    monkeypatch.setattr(f2core, "reduced_kernel_basis", guarded)
    assert main(["build", "--group", "psl2:13", "--gens", "79,90,91,234",
                 "--base", "parity:4", "--out", str(tmp_path)]) == 0
    for name in ("manifest.json", "code.f2mat", "code.json", "complex.cay2.npz"):
        assert (tmp_path / name).read_bytes() == (p13_dir / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["kappa", "decode"])
def test_each_experiment_derives_the_generator_once(p13_dir, tmp_path, monkeypatch, kind):
    derive, calls = f2core.reduced_kernel_basis, []

    def counted(R):
        if R.cols == 4368:
            calls.append(R.rows)
        return derive(R)

    monkeypatch.setattr(f2core, "reduced_kernel_basis", counted)
    outputs = {}
    for workers in (1, 2):
        prefix = tmp_path / f"w{workers}"
        assert main(["experiment", str(p13_dir / "manifest.json"), "--kind", kind,
                     "--trials", "8", "--seed", "4", "--weights", "1,4",
                     "--workers", str(workers), "--out", str(prefix)]) == 0
        outputs[workers] = [Path(f"{prefix}.{ext}").read_bytes()
                            for ext in ("csv", "jsonl", "json")]
    assert outputs[2] == outputs[1]
    assert calls == [3272, 3272]


def test_a_code_header_is_the_line_build_writes(z5_dir, tmp_path, capsys, monkeypatch):
    # n = 5 written as 05 would give the recorded shape, but build never
    # writes it
    _forbid_rebuild(monkeypatch)
    path = manifest_copy(z5_dir, tmp_path, lambda m: _code_file(
        "f2mat v1 4 05\n88\n48\n28\n18\n")(m, tmp_path))
    assert main(["analyze", str(path), "--which", "rate"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "manifest field 'files.code.path' names no f2mat v1 file"}


def test_build_artifacts_are_byte_identical_across_processes(tmp_path):
    # analyze and experiment reports hash manifest.json, which holds the
    # artifact's sha256, so both files must be a function of the inputs
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for out in ("a", "b"):
        subprocess.run([sys.executable, "-m", "cayleyltc.cli", "build",
                        "--group", "cyclic:5", "--gens", "1,4", "--base", "rep:2",
                        "--out", str(tmp_path / out)],
                       env=env, check=True, capture_output=True, timeout=120)
    for name in ("complex.cay2.npz", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
