"""Command-line front end.

Subcommands: build (construct a complex + square code and write artifacts),
analyze (measured value vs. proved bound, verdict pass/fail/na), experiment
(seeded kappa/decode trials with CSV + JSON reports), inspect (summarize a
JSON manifest, an f2mat matrix or a cay2 complex, the files build writes).
build measures the spectrum once (dense eigvalsh up to DENSE_MAX_DIM vertices,
Lanczos at tol 1e-10 above) and analyze --which spectral judges its record.
Only build constructs the square code.  analyze --which rate|distance and
experiment read code.f2mat, checked against its sha256, the recorded n and k
and each row's leading digit, an echelon rank certificate: a file out of
echelon form is refused.  rate loads nothing more, and distance loads the
code only when its exact distance decides the verdict.
Exit codes: 0 = pass, 1 = bound violation, 2 = precondition or budget
refusal, 3 = internal error (any other exception, reported as
{"error", "type"} JSON on stderr).

Every command is deterministic given its inputs and --seed: experiment
runs its trials serially, each from its own RNG stream (seed, trial index).
--workers is accepted, and refused below 1, but changes neither rows nor speed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import __version__, analysis, codes, complexes, f2core, ltc, spectral
from .complexes import build_complex, deserialize_complex, serialize_complex
from .f2core import DimensionBudgetError
from .groups import (
    FiniteGroup,
    GeneratorSet,
    cyclic_group,
    lps_generators,
    psl2,
    symmetric_subset,
)

EXIT_PASS, EXIT_BOUND, EXIT_PRECONDITION, EXIT_INTERNAL = 0, 1, 2, 3


class PreconditionError(ValueError):
    pass


def _parse_group(spec: str) -> FiniteGroup:
    kind, _, arg = spec.partition(":")
    if kind == "cyclic":
        return cyclic_group(int(arg))
    if kind == "psl2":
        return psl2(int(arg))
    raise PreconditionError(f"unknown group spec {spec!r} (want cyclic:N or psl2:Q)")


def _parse_base(spec: str) -> codes.LinearCode:
    kind, _, arg = spec.partition(":")
    if kind == "rep":
        return codes.repetition_code(int(arg))
    if kind == "parity":
        return codes.parity_code(int(arg))
    if kind == "full":
        return codes.full_code(int(arg))
    if kind == "bch":
        m, b = (int(x) for x in arg.split(","))
        return codes.bch_code(m, b)
    raise PreconditionError(
        f"unknown base code spec {spec!r} (want rep:N, parity:N, full:N or bch:M,B)")


def _generators(group, args) -> tuple[GeneratorSet, GeneratorSet, dict]:
    if args.lps is not None:
        if args.gens is not None or args.gens_b is not None:
            raise PreconditionError("--gens and --gens-b cannot be given with --lps")
        if group.kind != "psl2":
            raise PreconditionError("--lps requires a psl2 group")
        S = lps_generators(group, args.lps)
        if args.subset is not None:
            S = symmetric_subset(S, args.subset)
        gen_spec = {"lps": args.lps, "subset": args.subset}
        A = GeneratorSet(group, S.indices, side="left")
        B = GeneratorSet(group, S.indices, side="right")
        return A, B, gen_spec
    if args.subset is not None:
        raise PreconditionError("--subset needs --lps")
    if args.gens is None:
        raise PreconditionError("need --gens or --lps")
    a_idx = tuple(int(x) for x in args.gens.split(","))
    b_idx = tuple(int(x) for x in args.gens_b.split(",")) if args.gens_b else a_idx
    A = GeneratorSet(group, a_idx, side="left")
    B = GeneratorSet(group, b_idx, side="right")
    return A, B, {"gens": list(a_idx), "gens_b": list(b_idx)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _derived_parameters(X, C1, lam: float, cay2: dict) -> dict:
    """The manifest's derived block; tnc and n2c are copied from cay2, the
    manifest of the complex file, so the conditions are checked once."""
    delta1 = Fraction(C1.distance_exact(), C1.n) if C1.k else None
    sigma1 = None
    if C1.k and C1.n * C1.k <= analysis.SIGMA_MAX_RK:
        sigma1 = analysis.sigma_exact(C1).value
    derived = {
        "r": X.nA,
        "n_vertices": X.n_vertices,
        "n_edges": X.n_edges,
        "n_squares": X.n_squares,
        "lambda": lam,
        "delta1": None if delta1 is None else [delta1.numerator, delta1.denominator],
        "sigma1": None if sigma1 is None else [sigma1.numerator, sigma1.denominator],
        "query_count": X.nA * X.nA,
    }
    derived["tnc"] = cay2["tnc"]
    derived["n2c"] = cay2["n2c"]
    params = None
    if delta1 is not None and sigma1 is not None:
        params = ltc.TesterParams(r=X.nA, delta1=delta1, sigma1=sigma1, lam=lam)
    for key in ("kappa_proof", "kappa_statement", "hypotheses_hold"):
        derived[key] = None if params is None else getattr(params, key)
    return derived


def cmd_build(args) -> int:
    group = _parse_group(args.group)
    A, B, gen_spec = _generators(group, args)
    C1 = _parse_base(args.base)
    if C1.n != len(A):
        raise PreconditionError(
            f"base length {C1.n} != r {len(A)}: local code must match the degree")
    if len(A) != len(B):
        raise PreconditionError(f"|A| = {len(A)} != |B| = {len(B)}")
    X = build_complex(group, A, B)
    lam_rec = spectral.complex_spectrum(X)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    blob = serialize_complex(X)
    (out / "complex.cay2.npz").write_bytes(blob)
    files = {"complex": {"path": "complex.cay2.npz", "sha256": _sha256(blob)}}

    code_info = None
    try:
        code = codes.square_code(X, C1)
        data = f2core.dump_matrix(code.parity)
        (out / "code.f2mat").write_bytes(data)
        (out / "code.json").write_text(code.sidecar_json() + "\n")
        files["code"] = {"path": "code.f2mat", "sha256": _sha256(data)}
        code_info = {"n": code.n, "k": code.k}
    except DimensionBudgetError as exc:
        code_info = {"skipped": str(exc)}

    manifest = {
        "format": "instance v1",
        "tool_version": __version__,
        "group_spec": args.group,
        "base_spec": args.base,
        "generators": {"A": list(A.indices), "B": list(B.indices), **gen_spec},
        "base_code": json.loads(C1.sidecar_json()),
        "derived": _derived_parameters(X, C1, lam_rec["lambda"],
                                       complexes.complex_manifest(blob)),
        "spectral": lam_rec,
        "square_code": code_info,
        "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                       + "\n")
    print(json.dumps({"written": str(out / "manifest.json"),
                      "n_squares": X.n_squares}, sort_keys=True))
    return EXIT_PASS


def _field(manifest: dict, field: str):
    """The value of a dotted manifest field, refused with the first absent
    field on its path named."""
    node, path = manifest, []
    for key in field.split("."):
        path.append(key)
        if not isinstance(node, dict) or key not in node:
            raise PreconditionError(f"manifest field {'.'.join(path)!r} is missing")
        node = node[key]
    return node


def _read(path: Path) -> bytes:
    """The bytes of the regular file at path; anything else is refused by path."""
    if not path.is_file():
        raise PreconditionError(
            f"{'not a regular file' if path.exists() else 'no such file'}: {path}")
    return path.read_bytes()


def _load_instance(manifest_path: str):
    """The manifest, its sha256, the complex file's checked bytes, the base code."""
    mpath = Path(manifest_path)
    data = _read(mpath)
    manifest = json.loads(data)
    if manifest.get("format") != "instance v1":
        raise PreconditionError(f"{manifest_path} is not an instance manifest")
    blob = _read(mpath.parent / _field(manifest, "files.complex.path"))
    if _sha256(blob) != _field(manifest, "files.complex.sha256"):
        raise PreconditionError("complex file hash mismatch: artifacts corrupted")
    return manifest, _sha256(data), blob, _parse_base(_field(manifest, "base_spec"))


def _recorded_square_code(manifest: dict, manifest_path: str, blob: bytes):
    """n, k and a loader of the square code build recorded, refused by the
    budget first, then with the field named unless the code file has its
    sha256, n columns and n - k rows in echelon form, a rank certificate;
    the loader refuses rows that are not reduced."""
    codes.check_square_code_budget(complexes.complex_manifest(blob)["counts"]["squares"])
    n, k = (_field(manifest, f"square_code.{key}") for key in ("n", "k"))
    data = _read(Path(manifest_path).parent / _field(manifest, "files.code.path"))
    if _sha256(data) != _field(manifest, "files.code.sha256"):
        raise PreconditionError(
            "manifest field 'files.code.sha256' differs from the code file's sha256")
    try:
        rows, cols = f2core.f2mat_shape(data)
    except ValueError:
        raise PreconditionError(
            "manifest field 'files.code.path' names no f2mat v1 file") from None
    if cols != n:
        raise PreconditionError(
            f"manifest field 'square_code.n' differs from the code file's {cols} columns")
    if rows != n - k:
        raise PreconditionError(
            f"manifest field 'square_code.k' differs from n - rows = {n - rows} "
            "of the code file")
    if not f2core.f2mat_echelon(data):
        raise PreconditionError(
            "manifest field 'files.code.path' names a code file out of echelon form")
    def load() -> codes.LinearCode:
        H = f2core.load_matrix(data)
        try:                          # the constructor certifies H reduced
            return codes.LinearCode(H, "square", None)
        except ValueError:
            raise PreconditionError("manifest field 'files.code.path' names a code file "
                                    "in echelon form that is not reduced") from None
    return n, k, load


def _emit_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    print(text)


def _verdict_exit(verdict: str) -> int:
    return {"pass": EXIT_PASS, "na": EXIT_PRECONDITION}.get(verdict, EXIT_BOUND)


def _recorded_spectrum(manifest: dict) -> dict:
    """The spectrum build recorded, refused with the field named unless it
    is whole and agrees with itself, as one complex_spectrum call leaves it."""
    sides = [f"spectral.cayley.{side}" for side in ("left", "right")]
    for field in ["spectral", *sides, *(f"{side}.{key}" for side in sides
                                        for key in ("lambda", "residual"))]:
        if _field(manifest, field) is None:
            raise PreconditionError(f"manifest field {field!r} is missing")
    rec = manifest["spectral"]
    for other, lam in (("'derived.lambda'", _field(manifest, "derived.lambda")),
                       ("the larger side lambda",
                        max(side["lambda"] for side in rec["cayley"].values()))):
        if rec.get("lambda") != lam:
            raise PreconditionError(
                f"manifest field 'spectral.lambda' differs from {other}")
    return rec


def cmd_analyze(args) -> int:
    manifest, digest, blob, C1 = _load_instance(args.manifest)
    which = args.which
    report = {"instance": _field(manifest, "group_spec"),
              "base": _field(manifest, "base_spec"), "which": which,
              "manifest_sha256": digest, "tool_version": __version__}

    # a budget refusal of any analysis is an na report, exit 2
    try:
        if which == "spectral":
            rec = _recorded_spectrum(manifest)
            report.update(rec)
            gens = _field(manifest, "generators")
            if gens.get("lps") and not gens.get("subset"):
                p = gens["lps"]
                bound = 2 * math.sqrt(p) / (p + 1)
                report["ramanujan_bound"] = bound
                # the residual is the error bar of each side's lambda (0 when
                # dense); x = (p + 1)(lambda + residual) <= 2 sqrt(p), decided exactly
                xs = [(p + 1) * (Fraction(side["lambda"]) + Fraction(side["residual"]))
                      for side in rec["cayley"].values()]
                ok = all(x <= 0 or x * x <= 4 * p for x in xs)
                report["verdict"] = "pass" if ok else "fail"
            else:
                report["verdict"] = "na"
                report["reason"] = "Ramanujan bound applies to full LPS generator sets"
        elif which == "rate":
            n, k, _ = _recorded_square_code(manifest, args.manifest, blob)
            report.update(codes.check_rate_bound(k, n, C1.n, C1.k))
        elif which == "distance":
            lam = _field(manifest, "derived.lambda")
            d1 = _field(manifest, "derived.delta1")
            if d1 is None:
                report.update(verdict="na", reason="base code has no distance")
            else:
                n, k, load = _recorded_square_code(manifest, args.manifest, blob)
                # the code is loaded only if its distance decides the verdict
                recorded = SimpleNamespace(
                    n=n, k=k, distance_exact=lambda: load().distance_exact())
                report.update(codes.check_square_distance_bound(
                    recorded, delta1=Fraction(*d1), lam=Fraction(lam)))
        elif which == "sigma":
            res = analysis.sigma_exact(C1)
            report["sigma"] = [res.value.numerator, res.value.denominator]
            report["minimizer"] = {"f": res.f.astype(int).tolist(),
                                   "g": res.g.astype(int).tolist()}
            report["verdict"] = "pass" if res.value <= 2 else "fail"
        else:                                   # smooth; argparse checks choices
            rec = analysis.verify_us(C1, Fraction(args.alpha), Fraction(args.beta),
                                     Fraction(args.delta), args.dldpc)
            report["us"] = {k: v for k, v in rec.items() if k != "witnesses"}
            report["n_witnesses"] = len(rec.get("witnesses", []))
            report["verdict"] = "pass" if rec["certified"] else "fail"
    except DimensionBudgetError as exc:
        report.update(verdict="na", reason=str(exc))

    _emit_report(report, args.out)
    return _verdict_exit(report["verdict"])


_KAPPA_FIELDS = ["trial", "weight", "D", "kappa_hat", "certified", "in_code"]
_DECODE_FIELDS = ["trial", "weight", "D", "outcome", "iterations",
                  "delta_initial", "dist_to_output", "dist_bound", "contract_ok"]


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_rows(path: Path, fields: list[str], rows: list[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_cell(row[f]) for f in fields])
    data = buf.getvalue().encode()
    path.write_bytes(data)
    return data


def _parse_weights(spec: str) -> tuple[int, int]:
    """--weights w or lo,hi as (lo, hi); w stands for w,w."""
    try:
        lo, hi = (int(x) for x in (spec if "," in spec else f"{spec},{spec}").split(","))
    except ValueError:
        raise PreconditionError(f"--weights {spec!r} is not w or lo,hi") from None
    return lo, hi


def cmd_experiment(args) -> int:
    weights = _parse_weights(args.weights)
    if args.trials < 0:
        raise PreconditionError(f"--trials {args.trials} is negative")
    if args.workers < 1:
        raise PreconditionError(f"--workers {args.workers} is less than 1")
    manifest, digest, blob, C1 = _load_instance(args.manifest)
    if args.kind == "kappa":        # every field is read before anything is built
        d1, s1 = (_field(manifest, f"derived.{key}") for key in ("delta1", "sigma1"))
        params = ltc.TesterParams(
            r=C1.n, delta1=Fraction(*d1) if d1 else Fraction(0),
            sigma1=Fraction(*s1) if s1 else Fraction(0),
            lam=_field(manifest, "derived.lambda"))
    try:
        load = _recorded_square_code(manifest, args.manifest, blob)[2]
    except DimensionBudgetError as exc:
        print(json.dumps({"verdict": "na", "reason": str(exc)}))
        return EXIT_PRECONDITION
    code = load()
    tester = ltc.SquareCodeTester(deserialize_complex(blob), C1, code)

    if args.kind == "kappa":
        report = ltc.kappa_experiment(tester, code, params, trials=args.trials,
                                      weights=weights, seed=args.seed)
        fields = _KAPPA_FIELDS
    else:                                       # decode; argparse checks choices
        report = ltc.decode_experiment(tester, code, trials=args.trials,
                                       weights=weights, seed=args.seed)
        fields = _DECODE_FIELDS
    rows = report.pop("rows")

    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    report["manifest_sha256"] = digest
    report["tool_version"] = __version__
    csv_bytes = _write_rows(Path(str(out_prefix) + ".csv"), fields, rows)
    with open(str(out_prefix) + ".jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps({f: row[f] for f in fields}, sort_keys=True) + "\n")
    Path(str(out_prefix) + ".json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.format == "csv":
        sys.stdout.write(csv_bytes.decode())
    else:
        print(json.dumps(report, sort_keys=True))
    bad = args.kind == "decode" and not report.get("all_contracts_ok", True)
    return EXIT_BOUND if bad else EXIT_PASS


def cmd_inspect(args) -> int:
    path = Path(args.path)
    data = _read(path)
    if path.suffix == ".json":
        doc = json.loads(data.decode())
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_PASS
    if data.startswith(b"f2mat"):
        M = f2core.load_matrix(data)
        print(json.dumps({"format": "f2mat v1", "rows": M.rows, "cols": M.cols,
                          "rank": f2core.rank(M)}))
        return EXIT_PASS
    try:
        X = deserialize_complex(data)
    except Exception as exc:
        raise PreconditionError(f"unrecognized artifact {path}: {exc}") from exc
    print(json.dumps(X.manifest(), indent=2, sort_keys=True))
    return EXIT_PASS


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cayleyltc",
                                description="square-complex LTC toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct an instance and write artifacts")
    b.add_argument("--group", required=True, help="cyclic:N or psl2:Q")
    b.add_argument("--gens", help="comma-separated generator element indices for A")
    b.add_argument("--gens-b", dest="gens_b", help="generators for B (default: A)")
    b.add_argument("--lps", type=int, help="use LPS generators S_{p,q} (p here)")
    b.add_argument("--subset", type=int, help="inverse-closed LPS subset size")
    b.add_argument("--base", required=True, help="rep:N, parity:N, full:N, bch:M,B")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    a = sub.add_parser("analyze", help="measured values vs proved bounds")
    a.add_argument("manifest")
    a.add_argument("--which", required=True,
                   choices=["spectral", "rate", "distance", "sigma", "smooth"])
    a.add_argument("--alpha", default="1/4", help="US parameter (fraction)")
    a.add_argument("--beta", default="2/3", help="US parameter (fraction)")
    a.add_argument("--delta", default="1", help="US distance target (fraction)")
    a.add_argument("--dldpc", type=int, default=2, help="US constraint weight")
    a.add_argument("--out")
    a.set_defaults(fn=cmd_analyze)

    e = sub.add_parser("experiment", help="seeded kappa/decode trials")
    e.add_argument("manifest")
    e.add_argument("--kind", required=True, choices=["kappa", "decode"])
    e.add_argument("--trials", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--weights", default="1,2", help="corruption weight range lo,hi")
    e.add_argument("--workers", type=int, default=1,
                   help="accepted, at least 1; trials run serially, and the "
                        "count changes neither rows nor speed")
    e.add_argument("--format", default="json", choices=["json", "csv"])
    e.add_argument("--out", required=True, help="output path prefix")
    e.set_defaults(fn=cmd_experiment)

    i = sub.add_parser("inspect", help="summarize an artifact file")
    i.add_argument("path")
    i.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PreconditionError, DimensionBudgetError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
