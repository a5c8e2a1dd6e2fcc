"""Command-line front end.

Subcommands wire the library end to end on JSON files: classification,
transfer/characteristic/resolvent evaluation, realization from measure
data, tridiagonal realization, conservative dilation, and unitary
similarity.  Every run can emit a machine-readable report: the library's
self-checks and the command's own, each with its residual and bound.

Exit codes: 0 success, 1 a mathematical check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__, _json, errors, opcore, qfunc, realize, sysmodel, transfer
from .errors import DimensionMismatch, InvalidMeasure, NotInSqs, NotScalar, PqsysError
from .opcore import DEFAULT_TOL, Tolerances, operator_norm

# np.linalg.LinAlgError is a ValueError too, but a numerical failure: main
# catches it first and exits 1
_INPUT_ERRORS = (ValueError, KeyError, OSError, json.JSONDecodeError, NotScalar, DimensionMismatch,
                 InvalidMeasure)

# `eval` takes a point within this of the unit circle as on it (the circle
# test of --func char) and as in the closed disk (the Schur bound of --func
# theta).  It is about 4500 eps: far above the rounding of a grid point
# e^{i theta}, whose modulus is 1 to a few eps, far below the distance of a
# point meant to lie off the circle.
_ON_CIRCLE = 1e-12


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
        z = complex(float(re_s), float(im_s or "0"))
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}; expected re,im") from None
    if not np.isfinite(z):
        raise ValueError(f"point {text!r} is not finite")
    return z


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
    """The run report of one command.  Its checks are the ledger `main` opens:
    the library self-checks the command runs, then the command's own.  Its
    timings are the wall time spent reading input documents (`load`) and
    the wall time of the whole command, both in seconds."""

    def __init__(self, args, inputs):
        self.started = time.perf_counter()
        self.load_s = 0.0
        self.tol = _parse_tol(args.tol)
        self.report = {
            "command": args.command,
            "version": __version__,
            "numpy": np.__version__,
            "seed": args.seed,
            "tolerances": dataclasses.asdict(self.tol),
            "inputs_digest": _json.digest_files(inputs),
            "checks": args.checks,
            "outputs": [],
        }
        self.args = args
        self.written = False
        # main writes the report of a command that raises before `write`
        args.reporter = self

    def load(self, path: str, decode):
        """decode(the parsed JSON document at path), timed as load_s."""
        start = time.perf_counter()
        try:
            return decode(_json.load(path))
        finally:
            self.load_s += time.perf_counter() - start

    def info(self, name: str, value):
        self.report.setdefault("info", {})[name] = value
        print(f"{name}: {value}")

    def write(self):
        """Print the checks, then write the report when --report is given; a
        report is written once, so a failed write is not tried again."""
        self.written = True
        self.report["timings"] = {"load_s": self.load_s,
                                  "total_s": time.perf_counter() - self.started}
        for c in self.report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"check {c['name']}: {status} residual={c['residual']:.3e} bound={c['bound']:.3e}")
        if self.args.report:
            _json.dump(self.report, self.args.report)

    def finish(self, make_doc=None) -> int:
        """Write make_doc() to --out when both are given, then the report;
        returns the exit code: 1 when a check failed, else 0."""
        if make_doc is not None and self.args.out:
            _json.dump(make_doc(), self.args.out)
            self.report["outputs"].append(self.args.out)
        self.write()
        return 0 if all(c["pass"] for c in self.report["checks"]) else 1


def cmd_classify(args) -> int:
    rep = Reporter(args, [args.system])
    tol = rep.tol
    tau = rep.load(args.system, _json.system_from_json)
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
    rep.info("strongly_stable", sysmodel.is_strongly_stable(tau, tol))
    return rep.finish()


def cmd_eval(args) -> int:
    rep = Reporter(args, [args.system])
    tol = rep.tol
    tau = rep.load(args.system, _json.system_from_json)
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
    # only the Schur bound of Theta reads a class flag
    passive = args.which == "theta" and sysmodel.classify(tau, tol).passive
    for z in points:
        if args.which == "theta":
            val = transfer.theta_eval(tau, z, tol)
            if passive and abs(z) <= 1.0 + _ON_CIRCLE:
                worst = max(worst, operator_norm(val) - 1.0)
        elif args.which == "char":
            val = transfer.char_func(tau, z, tol)
            if abs(abs(z) - 1.0) <= _ON_CIRCLE:
                # Phi of a selfadjoint A is diagonal: its singular values are the
                # moduli of the Blaschke values b_k, and ||Phi* Phi - I|| = max | |b_k|^2 - 1 |
                diagonal = sysmodel.spectral_data(tau, tol) is not None
                worst = max(worst, opcore.gram_defect(np.abs(np.diagonal(val)), val.shape[1]) if diagonal
                            else opcore.isometry_defect(val))
        else:
            val = qfunc.q_eval(tau, z, tol)
        samples.append({"point": [z.real, z.imag], "value": _json.matrix_to_json(val)})
    doc = {"func": args.which, "samples": samples}
    if not args.out:
        print(json.dumps(doc))
    if passive:
        errors.check("schur_bound", worst, tol.grid_tol)
    if args.which == "char":
        errors.check("circle_unitarity", worst, tol.grid_tol)
    return rep.finish(lambda: doc)


def cmd_realize(args) -> int:
    rep = Reporter(args, [args.measure])
    data = rep.load(args.measure, _json.measure_from_json)
    try:
        # records the membership checks and the grid agreement
        tau = realize.realize_from_data(data, rep.tol)
    except NotInSqs as exc:
        rep.info("reject_reason", list(exc.reasons))
        return rep.finish()  # a membership check failed: exit 1
    rep.info("state_dim", tau.state_dim)
    return rep.finish(lambda: _json.system_to_json(tau))


def cmd_jacobi(args) -> int:
    rep = Reporter(args, [args.source])
    source = rep.load(args.source, _json.sniff_document)
    jr = realize.jacobi_realize(source, max_len=args.max_len, tol=rep.tol)
    rep.info("length", jr.length)
    rep.info("truncated", jr.truncated)
    # the passivity rule of `classify`: ||T|| <= 1 + rank_tol
    errors.check("contraction", max(operator_norm(jr.matrix()) - 1.0, 0.0), rep.tol.rank_tol)
    return rep.finish(lambda: _json.jacobi_to_json(jr))


def cmd_dilate(args) -> int:
    rep = Reporter(args, [args.system])
    tau = rep.load(args.system, _json.system_from_json)
    # records block_unitarity, which makes the enlarged Theta unitary on the
    # circle, and corner_match
    big = realize.biinner_dilation(tau, rep.tol).system
    return rep.finish(lambda: _json.system_to_json(big))


def cmd_similar(args) -> int:
    inputs = [args.system1, args.system2] + ([args.S] if args.S else [])
    rep = Reporter(args, inputs)
    tau1 = rep.load(args.system1, _json.system_from_json)
    tau2 = rep.load(args.system2, _json.system_from_json)
    S = rep.load(args.S, _json.matrix_from_json) if args.S else None
    # records the transfer, moment and intertwining checks
    result = realize.unitary_similarity(tau1, tau2, S, rep.tol)
    return rep.finish(lambda: _json.matrix_to_zb64(result.U))


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
    # the report's checks: the ledger is open only while the command runs
    with errors.ledger() as args.checks:
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
    far as creating one and not as far as writing it, and return the exit
    code."""
    print(message, file=sys.stderr)
    rep = getattr(args, "reporter", None)
    if rep is not None and not rep.written:
        rep.report["error"] = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
        try:
            rep.write()
        except OSError as err:
            print(f"report not written: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
