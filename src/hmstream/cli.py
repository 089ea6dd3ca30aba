"""Command-line surface: serve streams, run experiments, emit table data.

Subcommands: serve, run, figure2b, counts, vote, bound, estimate.
Exit codes: 0 success, 2 usage, 3 transport, 4 domain. Alpha is always a
rational like ``1/4`` so instance sizing never sees float drift. Flags can
also come from a ``key = value`` config file (same names as the long
flags); explicit flags win. HMSTREAM_ENDPOINT sets the default endpoint.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import boosting, compiler, instances, resources, runners, schema, wire
from .errors import DomainError, ProtocolError, TransportError
from .statevector import NoiseConfig, shot_rng

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_DOMAIN = 4

ENDPOINT_ENV = "HMSTREAM_ENDPOINT"


def _parse_alpha(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"alpha must be a rational like 1/4: {exc}")


def _int_in(lo: int, hi: float = math.inf):
    """argparse type for an integer in [lo, hi]."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value
    return integer


def _count(text: str) -> int:
    """An integer, also in float notation such as 1e10."""
    try:
        return int(float(text))
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text!r} is too large") from None


def _list_of(item):
    """argparse type for a non-empty comma-separated list of `item` values."""
    def comma_list(text: str) -> list:
        out = [item(part) for part in text.split(",") if part.strip()]
        if not out:
            raise argparse.ArgumentTypeError("empty list")
        return out
    return comma_list


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def dump_config(values: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in sorted(values.items()))


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file as flags of args.command. Keys the command does not
    take are skipped; a switch is set by 1, true or yes."""
    flags = []
    for key, value in _load_config(args.config).items():
        dest = key.replace("-", "_")
        if dest in ("command", "func") or not hasattr(args, dest):
            continue
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
    return flags


def _instance_from_args(args) -> instances.HMInstance:
    if getattr(args, "instance", None):
        return instances.load(args.instance)
    return instances.generate(args.n, args.alpha, args.case, args.seed)


def _write_text(path: str | None, text: str) -> None:
    if path and path != "-":
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# serve


def cmd_serve(args) -> int:
    instance = _instance_from_args(args)
    problems = instances.validate(instance)
    if problems:
        raise DomainError("; ".join(problems))
    server = wire.StreamServer(instance, host=args.host, port=args.port, log_path=args.log)
    server.start()
    print(f"serving n={instance.n} edges={instance.num_edges} case={instance.case} "
          f"on {server.endpoint}", flush=True)
    stop = {"flag": False}

    def _sigint(_sig, _frm):
        stop["flag"] = True

    try:
        signal.signal(signal.SIGINT, _sigint)
        signal.signal(signal.SIGTERM, _sigint)
    except ValueError:
        pass  # not the main thread (embedded use); rely on KeyboardInterrupt
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    finally:
        server.stop()
    print(f"served {len(server.session_logs)} sessions", flush=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _run_networked_shot(endpoint: str, seed: int, index: int, noise, retries: int):
    """One shot as one server session. Every attempt starts from a fresh
    shot_rng(seed, index), so a retried shot replays the dropped one."""
    last_exc: Exception | None = None
    for _ in range(retries + 1):
        rng = shot_rng(seed, index)
        try:
            with wire.StreamSession(endpoint) as session:
                outcome = runners.run_quantum_shot(session.updates(), session.n, rng, noise=noise)
                session.report(outcome.verdict, outcome.terminating_step)
                return outcome
        except (TransportError, ProtocolError) as exc:
            last_exc = exc
    raise TransportError(f"shot failed after {retries + 1} attempts: {last_exc}")


def cmd_run(args) -> int:
    instance = _instance_from_args(args)
    noise = NoiseConfig(args.noise_p, args.noise_seed)
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)
    mode = "local" if args.local or not endpoint else "tcp"
    if mode == "local":
        stream = instances.to_stream(instance)

        def one(i: int):
            return runners.run_quantum_shot(iter(stream), instance.n,
                                            shot_rng(args.seed, i), noise=noise)

    else:
        def one(i: int):
            return _run_networked_shot(endpoint, args.seed, i, noise, args.retries)

    stats = runners.run_shots(one, args.shots)
    doc = {
        "schema": "hmstream.results/1",
        "instance": {
            "n": instance.n,
            "alpha": [instance.alpha.numerator, instance.alpha.denominator],
            "case": instance.case,
            "seed": instance.seed,
        },
        "mode": mode,
        "endpoint": endpoint if mode == "tcp" else None,
        "shots": stats.shots,
        "aborted": stats.aborted,
        "counts": stats.counts,
        "p_hat": stats.proportions(instance.case),
        "seed": args.seed,
        "noise": {"two_qubit_depolarizing_p": noise.two_qubit_depolarizing_p,
                  "rng_seed": noise.rng_seed},
        "timing": {"wall_ms": stats.wall_seconds * 1000.0},
    }
    if args.exact:
        dist = runners.exact_distribution(instance)
        doc["exact"] = {"p_correct": dist.p_correct, "p_wrong": dist.p_wrong,
                        "p_null": dist.p_null}
    _write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure2b


def cmd_figure2b(args) -> int:
    rows: list[list] = []
    header = ["n", "gamma", "p_correct", "p_wrong", "p_null", "copies", "sketch_qubits", "total_qubits"]
    distributions: list[tuple[int, float, runners.OutcomeDistribution]] = []
    if args.from_results:
        for path in args.from_results.split(","):
            try:
                doc = json.loads(Path(path).read_text())
                problems = schema.validate(doc, schema.load_schema("results"))
            except ValueError as exc:
                problems = [str(exc)]
            if problems:
                raise DomainError(f"{path} is not a results document: {'; '.join(problems)}")
            n = doc["instance"]["n"]
            shots = doc["shots"]
            counts = doc["counts"]
            case = doc["instance"]["case"]
            wrong_case = "no" if case == "yes" else "yes"
            dist = runners.OutcomeDistribution(
                counts[case] / shots, counts[wrong_case] / shots, counts["null"] / shots)
            distributions.append((n, float(doc["noise"]["two_qubit_depolarizing_p"]), dist))
    else:
        if not args.n_list:
            raise DomainError("need --n-list or --from-results")
        for n in args.n_list:
            instance = instances.generate(n, args.alpha, "yes", args.seed)
            for gamma in args.gamma_list:
                distributions.append((n, gamma, runners.depolarized_distribution(instance, gamma)))
    for n, noise_level, dist in distributions:
        copies = boosting.min_copies_general(dist.p_correct, dist.p_wrong,
                                             target=args.target, k_max=args.k_max)
        width = boosting.total_quantum_space(n, copies=1)
        rows.append([
            n, noise_level,
            f"{dist.p_correct:.6f}", f"{dist.p_wrong:.6f}", f"{dist.p_null:.6f}",
            copies if copies is not None else "unbounded",
            width,
            copies * width if copies is not None else "unbounded",
        ])
    _write_text(args.out, _csv_text(header, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# counts


def cmd_counts(args) -> int:
    rows = []
    header = ["n", "space", "logical_h", "logical_cx", "logical_mcx_vertex", "logical_mcx_edge",
              "physical_t", "physical_h", "physical_cx", "physical_cx_form_low",
              "physical_cx_form_high"]
    for n in args.n_list:
        logical = compiler.logical_counts_hm(n)
        physical = compiler.physical_counts_hm(n)
        forms = compiler.physical_closed_forms(n)
        L = compiler.log2_exact(n)
        rows.append([n, logical.space, logical.h, logical.cnot, logical.mcx[L],
                     logical.mcx[logical.space], physical.t, physical.h, physical.cnot,
                     forms["cnot_low"], forms["cnot_high"]])
    if args.format == "json":
        docs = [dict(zip(header, row)) for row in rows]
        _write_text(args.out, json.dumps(docs, indent=2, sort_keys=True) + "\n")
    else:
        _write_text(args.out, _csv_text(header, rows))
    print("note: published two-qubit totals disagree by up to 2n; the tallied "
          "count is exact for this decomposition and the closed forms bound it",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# vote


def cmd_vote(args) -> int:
    alpha = float(args.alpha)
    copies = boosting.min_copies(alpha, target=args.target)
    print(f"alpha={args.alpha} min_copies={copies}")
    rows = []
    if args.alpha_grid:
        try:
            lo, hi, step = (Fraction(v) for v in args.alpha_grid.split(":"))
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"--alpha-grid {args.alpha_grid!r} is not lo:hi:step") from None
        if step <= 0:
            raise DomainError("--alpha-grid step must be positive")
        for i in range(int((hi - lo) // step) + 1):
            a = lo + i * step
            k = boosting.min_copies(float(a), target=args.target)
            rows.append([f"{float(a):.4f}", k, math.ceil(Fraction(3, 2) / a)])
        _write_text(args.out, _csv_text(["alpha", "min_copies", "copies_bound"], rows))
    if args.k_list:
        rows = []
        for k in args.k_list:
            tol, feasible = boosting.max_tolerable_infidelity(k, alpha, budget=args.budget)
            rows.append([k, f"{1.0 - boosting.vote_success(k, alpha):.6f}",
                         f"{tol:.6f}", int(feasible)])
        _write_text(args.out, _csv_text(["k", "noiseless_failure", "tolerable_infidelity",
                                         "feasible"], rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args) -> int:
    best = runners.classical_sketch_size(args.n, args.alpha)
    lower = runners.classical_lower_bound(args.n, args.alpha, args.epsilon)
    print(f"n={args.n} alpha={args.alpha} best_known_bits={best:.3g} "
          f"lower_bound_bits={lower:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    factories = (resources.FactoryConfig.from_json(args.factory_config)
                 if args.factory_config else resources.DEFAULT_FACTORIES)
    code = resources.CodeSpec(args.code, args.p)
    header = ["n", "copies", "logical_qubits", "toffoli_total", "ccz_infidelity",
              "code", "p", "distance", "modules", "factory", "physical_qubits",
              "classical_best_known", "classical_lower_bound", "approximate"]
    rows = []
    for n in args.n_list:
        est = resources.estimate(n, code, gamma=args.gamma, copies=args.copies,
                                 factories=factories)
        rows.append([
            est.n, est.copies, est.logical_qubits, est.toffoli_total,
            f"{est.ccz_infidelity_target:.3e}", est.code_family,
            f"{est.physical_error_rate:g}",
            est.code_distance if est.code_distance is not None else "",
            est.module_count if est.module_count is not None else "",
            est.factory_footprint, est.physical_qubits_total,
            est.classical_best_known_bits, f"{est.classical_lower_bound_bits:.3e}",
            int(est.approximate),
        ])
    _write_text(args.out, _csv_text(header, rows))
    crossing = resources.break_even(args.n_list, code, gamma=args.gamma, copies=args.copies,
                                    factories=factories, classical=args.classical)
    label = "none on grid" if crossing is None else f"n={crossing:.0e}"
    print(f"break-even vs classical {args.classical}: {label}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hmstream", description="Streamed-matching quantum sketch toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        p.add_argument("--n", type=int, default=32)
        p.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 4))
        p.add_argument("--case", choices=instances.CASES, default="yes")
        p.add_argument("--seed", type=_int_in(0), default=0)
        p.add_argument("--instance", help="archived instance JSON to replay")
        p.add_argument("--config", help="key = value file with these flag names")

    p = sub.add_parser("serve", help="serve an instance stream over TCP")
    add_instance_flags(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_int_in(0, 65535), default=0)
    p.add_argument("--log", help="session log JSONL path")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("run", help="run sketch shots locally or against a server")
    add_instance_flags(p)
    p.add_argument("--shots", type=_int_in(1), default=2000)
    p.add_argument("--endpoint", help=f"host:port (default ${ENDPOINT_ENV})")
    p.add_argument("--local", action="store_true", help="bypass the network")
    p.add_argument("--retries", type=_int_in(0), default=2)
    p.add_argument("--noise-p", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="embed the exact distribution")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("figure2b", help="boosted space totals per (n, noise)")
    p.add_argument("--n-list", type=_list_of(_count))
    p.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 4))
    p.add_argument("--gamma-list", type=_list_of(float), default=[1.0])
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--target", type=float, default=2.0 / 3.0)
    p.add_argument("--k-max", type=int, default=2001)
    p.add_argument("--from-results", help="comma-separated results JSON files")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_figure2b)

    p = sub.add_parser("counts", help="logical and physical gate-count table")
    p.add_argument("--n-list", type=_list_of(_count), default=[4, 8, 16, 32, 64])
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("vote", help="majority-vote copy counts and noise budget")
    p.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 4))
    p.add_argument("--target", type=float, default=2.0 / 3.0)
    p.add_argument("--budget", type=float, default=1.0 / 3.0)
    p.add_argument("--alpha-grid", help="lo:hi:step")
    p.add_argument("--k-list", type=_list_of(int), help="comma-separated copy counts")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_vote)

    p = sub.add_parser("bound", help="classical space: best known and lower bound")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 4))
    p.add_argument("--epsilon", type=float, default=1.0 / 3.0)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("estimate", help="fault-tolerant resource table")
    p.add_argument("--n-list", type=_list_of(_count), required=True)
    p.add_argument("--code", choices=resources.CODE_FAMILIES, default="two-gross")
    p.add_argument("--p", type=float, default=1e-4)
    p.add_argument("--gamma", type=float, default=0.9975)
    p.add_argument("--copies", type=int, default=7)
    p.add_argument("--factory-config", help="JSON overriding factory footprints")
    p.add_argument("--classical", choices=("lower_bound", "best_known"),
                   default="lower_bound")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            flags = _config_flags(args)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        at = argv.index(args.command) + 1  # file flags first: the command line's own win
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (TransportError, ProtocolError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
