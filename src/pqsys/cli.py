"""Command-line front end.

Subcommands wire the library end to end on JSON files: classification,
transfer/characteristic/resolvent evaluation, realization from measure
data, tridiagonal realization, conservative dilation, and unitary
similarity.  Every run can emit a machine-readable report with named
checks and residuals.

Exit codes: 0 success, 1 a mathematical check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import _json, opcore, qfunc, realize, sysmodel, transfer
from .errors import DimensionMismatch, InvalidMeasure, NotScalar, PqsysError
from .opcore import DEFAULT_TOL, Tolerances, operator_norm

# np.linalg.LinAlgError is a ValueError too, but a numerical failure: main
# catches it first and exits 1
_INPUT_ERRORS = (ValueError, KeyError, OSError, json.JSONDecodeError, NotScalar, DimensionMismatch,
                 InvalidMeasure)


class CheckFailure(Exception):
    """A named check failed; the report still gets written."""


def _parse_tol(pairs) -> Tolerances:
    overrides = {}
    names = {f.name for f in dataclasses.fields(Tolerances)}
    for item in pairs or []:
        name, _, value = item.partition("=")
        if name not in names or not value:
            raise ValueError(f"unknown tolerance override {item!r}")
        overrides[name] = float(value)
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _parse_lambda(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    try:
        return complex(float(re_s), float(im_s or "0"))
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}; expected re,im") from None


def _grid_points(spec: str, seed: int):
    kind, _, count_s = spec.partition(":")
    count = int(count_s or "16")
    if count < 1:
        raise ValueError("grid size must be positive")
    if kind == "circle":
        return [complex(np.exp(2j * np.pi * (k + 0.5) / count)) for k in range(count)]
    if kind == "disk":
        rng = np.random.default_rng(seed)
        radii = 0.15 + 0.75 * rng.random(count)
        return [complex(r * np.exp(2j * np.pi * (k + 0.31) / count)) for k, r in zip(range(count), radii)]
    raise ValueError(f"unknown grid kind {kind!r}; expected circle:N or disk:N")


class Reporter:
    def __init__(self, args, inputs):
        self.report = {
            "command": args.command,
            "seed": args.seed,
            "inputs_digest": _json.digest_files(inputs),
            "checks": [],
            "outputs": [],
        }
        self.args = args
        self.failed = False
        # main writes the report of a command that raises
        args.reporter = self

    def check(self, name: str, ok: bool, residual: float = 0.0):
        self.report["checks"].append({
            "name": name, "pass": bool(ok), "residual": float(residual),
        })
        status = "PASS" if ok else "FAIL"
        print(f"check {name}: {status} residual={residual:.3e}")
        if not ok:
            self.failed = True

    def info(self, name: str, value):
        self.report.setdefault("info", {})[name] = value
        print(f"{name}: {value}")

    def error(self, exc: Exception, code: int):
        self.report["error"] = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}

    def write(self, path):
        if path:
            _json.dump(self.report, path)

    def finish(self, make_doc=None) -> int:
        """Write make_doc() to --out when both are given, then the report;
        returns the exit code."""
        if make_doc is not None and self.args.out:
            _json.dump(make_doc(), self.args.out)
            self.report["outputs"].append(self.args.out)
        self.write(self.args.report)
        return 1 if self.failed else 0


def cmd_classify(args) -> int:
    tol = _parse_tol(args.tol)
    rep = Reporter(args, [args.system])
    tau = _json.system_from_json(_json.load(args.system))
    flags = sysmodel.classify(tau, tol)
    for name in ("passive", "isometric", "coisometric", "conservative", "pqs",
                 "normal_main", "selfadjoint_main"):
        rep.info(name, getattr(flags, name))
    # the four verdicts read the Krylov record; the dimensions come from it
    # too, so no subspace basis is built
    rep.info("controllable", sysmodel.is_controllable(tau, tol))
    rep.info("observable", sysmodel.is_observable(tau, tol))
    rep.info("simple", sysmodel.is_simple(tau, tol))
    rep.info("minimal", sysmodel.is_minimal(tau, tol))
    krylov = sysmodel.krylov_record(tau, tol)
    rep.info("controllable_dim", krylov.controllable)
    rep.info("observable_dim", krylov.observable)
    stab = sysmodel.is_strongly_stable(tau, tol)
    rep.info("strongly_stable", stab.stable)
    rep.info("strongly_co_stable", stab.co_stable)
    rep.info("stability_conclusive", stab.conclusive)
    return rep.finish()


def cmd_eval(args) -> int:
    tol = _parse_tol(args.tol)
    rep = Reporter(args, [args.system])
    tau = _json.system_from_json(_json.load(args.system))
    points = [_parse_lambda(t) for t in args.lam or []]
    if args.grid:
        points.extend(_grid_points(args.grid, args.seed))
    if not points:
        raise ValueError("no evaluation points: pass --lambda or --grid")
    if args.which == "q":
        # the resolvent compression lives outside the closed disk; grid
        # points from --grid are disk-side and are inverted
        if 0 in points:
            raise ValueError("the point 0 has no exterior image 1/z for --func q")
        points = [1.0 / z if abs(z) <= 1.0 else z for z in points]

    samples = []
    worst = 0.0
    flags = sysmodel.classify(tau, tol)
    dd = opcore.defect_data(tau.A, tol) if args.which == "char" else None
    for z in points:
        if args.which == "theta":
            val = transfer.theta_eval(tau, z, tol)
            if flags.passive and abs(z) <= 1.0 + 1e-12:
                worst = max(worst, operator_norm(val) - 1.0)
        elif args.which == "char":
            val = transfer._phi(tau.A, dd, z)
            if abs(abs(z) - 1.0) <= 1e-12:
                d = val.conj().T @ val - np.eye(val.shape[1])
                worst = max(worst, operator_norm(d))
        else:
            val = qfunc.q_eval(tau, z, tol)
        samples.append({"point": [z.real, z.imag], "value": _json.matrix_to_json(val)})
    doc = {"func": args.which, "samples": samples}
    if not args.out:
        print(json.dumps(doc))
    if args.which == "theta" and flags.passive:
        rep.check("schur_bound", worst <= tol.grid_tol, max(worst, 0.0))
    if args.which == "char":
        rep.check("circle_unitarity", worst <= tol.grid_tol, worst)
    return rep.finish(lambda: doc)


def cmd_realize(args) -> int:
    tol = _parse_tol(args.tol)
    rep = Reporter(args, [args.measure])
    data = _json.measure_from_json(_json.load(args.measure))
    mem = transfer.sqs_membership(data, tol)
    rep.check("membership_mass", mem.sigma_total_excess <= tol.psd_tol, max(mem.sigma_total_excess, 0.0))
    if mem.X is not None:
        rep.check("membership_ball", mem.x_norm <= 1.0 + tol.psd_tol, max(mem.x_norm - 1.0, 0.0))
        rep.check("membership_range", mem.off_range_residual <= tol.eq_tol, mem.off_range_residual)
    if not mem.member:
        for reason in mem.reasons:
            rep.info("reject_reason", reason)
        return rep.finish()  # a membership check failed: exit 1
    tau = realize.realize_from_data(data, tol)
    worst = 0.0
    for k in range(20):
        lam = 0.55 * np.exp(2j * np.pi * (k + 0.11) / 20)
        worst = max(worst, operator_norm(
            transfer.theta_eval(tau, lam, tol) - transfer.theta_from_data(data, lam)))
    rep.check("grid_agreement", worst <= 10 * tol.eq_tol, worst)
    rep.info("state_dim", tau.state_dim)
    return rep.finish(lambda: _json.system_to_json(tau))


def cmd_jacobi(args) -> int:
    tol = _parse_tol(args.tol)
    rep = Reporter(args, [args.source])
    source = _json.sniff_document(_json.load(args.source))
    jr = realize.jacobi_realize(source, max_len=args.max_len, tol=tol)
    rep.info("length", jr.length)
    rep.info("truncated", jr.truncated)
    norm = operator_norm(jr.matrix())
    rep.check("contraction", norm <= 1.0 + 10 * tol.psd_tol, max(norm - 1.0, 0.0))
    return rep.finish(lambda: _json.jacobi_to_json(jr))


def cmd_dilate(args) -> int:
    tol = _parse_tol(args.tol)
    rep = Reporter(args, [args.system])
    tau = _json.system_from_json(_json.load(args.system))
    blocks = realize.biinner_dilation(tau, tol)
    big = blocks.system
    r_unit = operator_norm(big.T.conj().T @ big.T - np.eye(big.T.shape[0]))
    rep.check("block_unitarity", r_unit <= tol.eq_tol, r_unit)
    worst = 0.0
    n = tau.out_dim
    for k in range(16):
        xi = np.exp(2j * np.pi * (k + 0.5) / 16)
        val = transfer.theta_eval(big, xi, tol)
        worst = max(worst, operator_norm(val.conj().T @ val - np.eye(val.shape[1])))
    rep.check("grid_unitarity", worst <= tol.grid_tol, worst)
    corner = 0.0
    for k in range(8):
        lam = 0.6 * np.exp(2j * np.pi * (k + 0.27) / 8)
        corner = max(corner, operator_norm(
            transfer.theta_eval(big, lam, tol)[:n, :n] - transfer.theta_eval(tau, lam, tol)))
    rep.check("corner_match", corner <= 10 * tol.eq_tol, corner)
    return rep.finish(lambda: _json.system_to_json(big))


def cmd_similar(args) -> int:
    tol = _parse_tol(args.tol)
    inputs = [args.system1, args.system2] + ([args.S] if args.S else [])
    rep = Reporter(args, inputs)
    tau1 = _json.system_from_json(_json.load(args.system1))
    tau2 = _json.system_from_json(_json.load(args.system2))
    S = _json.matrix_from_json(_json.load(args.S)) if args.S else None
    result = realize.unitary_similarity(tau1, tau2, S, tol)
    for name, value in result.residuals.items():
        rep.check(name, value <= 10 * tol.eq_tol, value)
    return rep.finish(lambda: _json.matrix_to_json(result.U))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqsys",
        description="Passive quasi-selfadjoint system toolkit: classification, "
                    "transfer and resolvent evaluation, realizations, dilations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        p.add_argument("--seed", type=int, default=0, metavar="U64",
                       help="seed for randomized grids and searches (recorded)")
        p.add_argument("--report", metavar="PATH", help="write a run report JSON")
        p.add_argument("--out", metavar="PATH", help="write the primary output JSON")

    p = sub.add_parser("classify", help="system class flags, minimality, stability")
    p.add_argument("system", help="system JSON file")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="sample a transfer, characteristic, or resolvent function")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--func", dest="which", choices=("theta", "char", "q"), default="theta")
    p.add_argument("--lambda", dest="lam", action="append", metavar="RE,IM",
                   help="evaluation point, repeatable")
    p.add_argument("--grid", metavar="circle:N|disk:N", help="evaluation grid")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("realize", help="build a minimal system from measure data")
    p.add_argument("measure", help="measure JSON file")
    common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("jacobi", help="tridiagonal realization of a scalar source")
    p.add_argument("source", help="system or measure JSON file")
    p.add_argument("--max-len", type=int, default=None, metavar="N")
    common(p)
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("dilate", help="conservative enlargement of a pqs system")
    p.add_argument("system", help="system JSON file")
    common(p)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("similar", help="unitary similarity between two minimal systems")
    p.add_argument("system1", help="first system JSON file")
    p.add_argument("system2", help="second system JSON file")
    p.add_argument("--S", metavar="PATH", help="structural operator JSON (default identity)")
    common(p)
    p.set_defaults(func=cmd_similar)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        return _failed(args, exc, 1, f"check failed: {type(exc).__name__}: {exc}")
    except _INPUT_ERRORS as exc:
        return _failed(args, exc, 2, f"input error: {exc}")
    except PqsysError as exc:
        return _failed(args, exc, 1, f"check failed: {type(exc).__name__}: {exc}")


def _failed(args, exc: Exception, code: int, message: str) -> int:
    """Print the failure, record it in the report when the command got as
    far as creating one, and return the exit code."""
    print(message, file=sys.stderr)
    rep = getattr(args, "reporter", None)
    if rep is not None:
        rep.error(exc, code)
        try:
            rep.write(args.report)
        except OSError as err:
            print(f"report not written: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
