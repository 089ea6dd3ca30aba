"""One benchmark round in its own process: the process that runs the shots
or the tables, as a user's `hmstream run` or table command would.

Started by run.py with one JSON argument (the round spec) and PYTHONPATH
pointing at the checkout's `src`; it refuses to run any other copy. Protocol on stdout: a `READY {...}` line
once set-up (import, instance generation, stream serialization) is done,
then one `RESULT {...}` line. Program output goes to files or buffers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from common import ALPHA, WORKLOADS, derive_seed, instance_case, table_commands


def _emit(tag: str, doc: dict) -> None:
    sys.__stdout__.write(f"{tag} {json.dumps(doc)}\n")
    sys.__stdout__.flush()


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call_cli(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """Run one `hmstream` command in-process; (exit code, wall s, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    workload = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])

    import numpy
    import hmstream
    from hmstream import cli, instances, runners
    from hmstream.statevector import NoiseConfig, shot_rng

    if not Path(hmstream.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"hmstream imported from {hmstream.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 3
    exact_distribution = runners.exact_distribution
    run_quantum_shot = runners.run_quantum_shot
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    r = spec["round"]
    case = instance_case(r)
    instance = instances.generate(workload["n"], Fraction(ALPHA), case,
                                  derive_seed(spec["seed"], "instance", r))
    stream = instances.to_stream(instance)
    instance_path = out_dir / f"instance-{spec['phase']}-{r}.json"
    instances.save(instance, instance_path)
    _emit("READY", {"python": sys.version.split()[0], "numpy": numpy.__version__})

    units = []
    if spec["work"] and workload["kind"] == "shots":
        units.append(_run_call(cli, spec, workload, instance_path, r))
    elif spec["work"]:
        units.append(_table_pass(cli, spec["seed"], keep_text=(r == 0)))

    result = {"units": units, "peak_rss_mb": _peak_rss_mb(), "case": case}
    if workload["kind"] == "shots" and units:
        dist = exact_distribution(instance)
        result["exact"] = {"p_correct": dist.p_correct, "p_wrong": dist.p_wrong,
                           "p_null": dist.p_null}
        if r == 0 and tracer is None:
            # Digest call replayed through the same shot function: the server
            # log and the CLI counts are checked against these outcomes.
            noise = NoiseConfig(workload["noise_p"], 0)
            replay = []
            for i in range(workload["shots_per_call"]):
                o = run_quantum_shot(iter(stream), instance.n, shot_rng(units[0]["seed"], i),
                                     noise=noise)
                replay.append([i, o.verdict, o.terminating_step])
            result["replay"] = replay
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(out_dir / f"spans-{spec['phase']}-{r}.tsv")
    _emit("RESULT", result)
    return 0


def _run_call(cli, spec: dict, workload: dict, instance_path: Path, r: int) -> dict:
    """One `hmstream run` call of shots_per_call shots with its own shot seed."""
    seed = derive_seed(spec["seed"], "shots", r)
    out = Path(spec["out_dir"]) / f"results-{spec['phase']}-{r}.json"
    argv = ["run", "--instance", str(instance_path), "--seed", str(seed),
            "--shots", str(workload["shots_per_call"]), "--out", str(out)]
    if workload["mode"] == "local":
        argv.append("--local")
    else:
        argv += ["--endpoint", spec["endpoint"]]
    if workload["noise_p"]:
        argv += ["--noise-p", repr(workload["noise_p"])]
    rc, wall, _, err = _call_cli(cli, argv)
    unit = {"seed": seed, "rc": rc, "wall_s": wall, "shots": workload["shots_per_call"]}
    if rc == 0:
        doc = json.loads(out.read_text())
        unit.update(counts=doc["counts"], completed=doc["shots"], aborted=doc["aborted"])
    else:
        unit.update(counts=None, completed=0, aborted=0, stderr=err[-500:])
    return unit


def _table_pass(cli, seed: int, keep_text: bool) -> dict:
    """Every table command once; exit codes, times and output hashes."""
    commands = []
    start = time.perf_counter()
    for argv in table_commands(seed):
        rc, wall, out, err = _call_cli(cli, argv)
        entry = {"argv": argv, "rc": rc, "wall_s": wall,
                 "sha256": hashlib.sha256(out.encode()).hexdigest()}
        if keep_text or rc != 0:
            entry.update(stdout=out, stderr=err[-500:])
        commands.append(entry)
    return {"wall_s": time.perf_counter() - start, "commands": commands}


if __name__ == "__main__":
    sys.exit(main())
