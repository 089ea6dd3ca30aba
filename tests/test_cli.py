import json
import socket
import threading
import time
from fractions import Fraction

import pytest

from hmstream.cli import build_parser, dump_config, main
from hmstream.instances import generate, load, save
from hmstream.runners import run_local_shots
from hmstream.schema import load_schema, validate as validate_schema
from hmstream.statevector import NoiseConfig
from hmstream.wire import StreamServer

QUARTER = Fraction(1, 4)


def strip_timing(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_zero_shots_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--local", "--n", "8", "--shots", "0"])
        assert exc.value.code == 2

    def test_bad_alpha_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alpha", "nonsense"])
        assert exc.value.code == 2

    def test_non_power_of_two_n_is_domain_error(self):
        assert main(["run", "--local", "--n", "12", "--shots", "1"]) == 4


def wait_for_sessions(server, count, timeout=5.0):
    deadline = time.time() + timeout
    while len(server.session_logs) < count and time.time() < deadline:
        time.sleep(0.01)
    assert len(server.session_logs) == count


class _DropAfterSends:
    """Server-side socket that breaks the connection after `sends` frames."""

    def __init__(self, conn: socket.socket, sends: int):
        self._conn = conn
        self._left = sends

    def sendall(self, data: bytes) -> None:
        if not self._left:
            self._conn.shutdown(socket.SHUT_RDWR)
            raise OSError("connection dropped on purpose")
        self._left -= 1
        self._conn.sendall(data)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class DroppingServer(StreamServer):
    """While `dropping` is set, every third session is cut after HELLO_ACK
    and `after` updates. No shot can end that early (after < n), so each
    cut session is the first attempt of a shot, and its retry succeeds."""

    after = 5
    dropping = False

    def _serve_session(self, conn, session_id):
        if self.dropping and session_id % 3 == 0:
            conn = _DropAfterSends(conn, 1 + self.after)
        super()._serve_session(conn, session_id)


class TestRun:
    def test_local_run_writes_schema_valid_results(self, tmp_path):
        out = tmp_path / "results.json"
        rc = main(["run", "--local", "--n", "8", "--shots", "64", "--seed", "9",
                   "--exact", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_schema(doc, load_schema("results")) == []
        assert sum(doc["counts"].values()) == 64
        assert doc["exact"]["p_correct"] == pytest.approx(0.25)

    def test_reruns_are_byte_identical_modulo_timing(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run", "--local", "--n", "8", "--shots", "32", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        da = strip_timing(json.loads(a.read_text()))
        db = strip_timing(json.loads(b.read_text()))
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_local_run_counts_match_run_local_shots(self, tmp_path):
        out = tmp_path / "results.json"
        rc = main(["run", "--local", "--n", "16", "--case", "no", "--seed", "7",
                   "--shots", "60", "--noise-p", "0.01", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        stats = run_local_shots(generate(16, QUARTER, "no", seed=7), 60, seed=7,
                                noise=NoiseConfig(0.01))
        assert (doc["shots"], doc["aborted"], doc["counts"]) == (60, 0, stats.counts)

    def test_retried_shots_replay_the_dropped_shot(self, tmp_path):
        instance = generate(16, QUARTER, "yes", seed=3)
        args = ["run", "--n", "16", "--case", "yes", "--seed", "3", "--shots", "60",
                "--noise-p", "0.05"]
        clean, faulty = tmp_path / "clean.json", tmp_path / "faulty.json"
        with DroppingServer(instance) as server:
            args += ["--endpoint", server.endpoint]
            assert main(args + ["--out", str(clean)]) == 0
            server.dropping = True
            assert main(args + ["--out", str(faulty)]) == 0
            # every third faulty-run session is cut: 30 cuts and 30 retries
            wait_for_sessions(server, 60 + 60 + 30)
            dropped = [e for e in server.session_logs if e["result"] is None]
        assert sorted(e["session_id"] for e in dropped) == list(range(60, 150, 3))
        assert all(e["updates_served"] == DroppingServer.after for e in dropped)
        assert strip_timing(json.loads(faulty.read_text())) == \
            strip_timing(json.loads(clean.read_text()))

    def test_malformed_endpoint_exits_3(self, capsys):
        rc = main(["run", "--endpoint", "nonsense", "--shots", "2", "--n", "8"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("transport error:") and err.count("\n") == 1

    def test_networked_run_against_server(self, tmp_path):
        instance = generate(8, QUARTER, "yes", seed=6)
        with StreamServer(instance) as server:
            out = tmp_path / "results.json"
            rc = main(["run", "--endpoint", server.endpoint, "--n", "8",
                       "--case", "yes", "--seed", "6", "--shots", "25",
                       "--out", str(out)])
            assert rc == 0
            doc = json.loads(out.read_text())
            assert doc["mode"] == "tcp"
            assert sum(doc["counts"].values()) == 25
            wait_for_sessions(server, 25)

    def test_unreachable_endpoint_exits_3(self):
        rc = main(["run", "--endpoint", "127.0.0.1:1", "--shots", "2",
                   "--retries", "0", "--n", "8"])
        assert rc == 3

    def test_env_endpoint_used(self, tmp_path, monkeypatch):
        instance = generate(8, QUARTER, "no", seed=2)
        with StreamServer(instance) as server:
            monkeypatch.setenv("HMSTREAM_ENDPOINT", server.endpoint)
            out = tmp_path / "r.json"
            rc = main(["run", "--n", "8", "--case", "no", "--seed", "2",
                       "--shots", "5", "--out", str(out)])
            assert rc == 0
            assert json.loads(out.read_text())["endpoint"] == server.endpoint


class TestInstanceReplay:
    def test_archived_instance_served_identically(self, tmp_path):
        instance = generate(16, QUARTER, "no", seed=12)
        path = tmp_path / "instance.json"
        save(instance, path)
        assert load(path) == instance
        out = tmp_path / "results.json"
        rc = main(["run", "--local", "--instance", str(path), "--shots", "8",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["instance"]["n"] == 16
        assert doc["instance"]["case"] == "no"


class TestConfigFile:
    def test_config_supplies_flags_and_cli_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shots = 16\nn = 8\nseed = 3\n")
        out = tmp_path / "results.json"
        rc = main(["run", "--local", "--config", str(cfg), "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["shots"] == 16
        assert doc["seed"] == 5  # explicit flag beats config

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shots = 4\nn = 8\nseed = 3\nlocal = yes\nport = 1\n")
        out = tmp_path / "results.json"
        assert main(["run", "--config", str(cfg), "--see", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["mode"], doc["shots"], doc["seed"]) == ("local", 4, 5)

    def test_dump_parse_round_trip(self, tmp_path):
        values = {"shots": "12", "n": "8", "alpha": "1/4"}
        text = dump_config(values)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        from hmstream.cli import _load_config

        assert _load_config(cfg) == values


class TestTables:
    def test_counts_csv(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        assert main(["counts", "--n-list", "4,8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("4,4,10,28,4,8,212,98,196")
        assert lines[2].startswith("8,5,19,75,8,16,616,291,555")

    def test_vote_stdout(self, capsys):
        assert main(["vote", "--alpha", "1/4"]) == 0
        assert "min_copies=5" in capsys.readouterr().out

    def test_bound_stdout(self, capsys):
        assert main(["bound", "--n", "1e6", "--alpha", "1/4"]) == 0
        printed = capsys.readouterr().out
        assert "2.1e+03" in printed
        assert "125" in printed

    def test_estimate_matches_published_rows(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        rc = main(["estimate", "--n-list", "1e10,1e11,1e12", "--code", "two-gross",
                   "--p", "1e-4", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        got = {int(r[0]): (int(r[2]), int(r[10])) for r in rows}
        assert got[10**10][0] == 497
        assert got[10**11][0] == 539
        assert got[10**12][0] == 581
        for n, want in ((10**10, 4.78e4), (10**11, 5.01e4), (10**12, 5.31e4)):
            assert got[n][1] == pytest.approx(want, rel=0.10)
        assert "break-even" in capsys.readouterr().out

    def test_figure2b_noiseless_and_degraded(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["figure2b", "--n-list", "4,8,16,32", "--gamma-list", "1.0,0.5",
                   "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for row in rows:
            n, gamma, copies = int(row[0]), float(row[1]), int(row[5])
            width = int(row[6])
            if gamma == 1.0:
                assert copies == 5
                assert int(row[7]) == 5 * width
            else:
                assert copies > 5

    def test_vote_alpha_grid_reaches_its_upper_end(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["vote", "--alpha", "1/4", "--alpha-grid", "0.01:0.25:0.01",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 25
        assert rows[0].startswith("0.0100,")
        assert rows[-1] == "0.2500,5,6"

    def test_figure2b_zero_gap_unbounded_at_default_k_max(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure2b", "--n-list", "4", "--gamma-list", "0.0",
                     "--out", str(out)]) == 0
        (row,) = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert row[5] == row[7] == "unbounded"

    def test_vote_at_thousands_of_copies(self, tmp_path):
        out = tmp_path / "vote.csv"
        assert main(["vote", "--alpha", "1/4", "--k-list", "1500,3000",
                     "--out", str(out)]) == 0
        # at k = 3000 the summed success exceeds 1 by one ulp; the clamp keeps the failure >= 0
        assert out.read_text().splitlines()[1:] == ["1500,0.000000,0.000222,1",
                                                    "3000,0.000000,0.000111,1"]

    def test_figure2b_small_gap_unbounded_at_default_k_max(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure2b", "--n-list", "4", "--gamma-list", "0.01",
                     "--out", str(out)]) == 0
        (row,) = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(row[2]) > float(row[3])  # a positive gap, too small for 2/3
        assert row[5] == row[7] == "unbounded"

    def test_figure2b_zero_gap_unbounded(self, tmp_path):
        results = {
            "schema": "hmstream.results/1",
            "instance": {"n": 8, "alpha": [1, 4], "case": "yes", "seed": 0},
            "mode": "local", "endpoint": None, "shots": 100, "aborted": 0,
            "counts": {"yes": 20, "no": 20, "null": 60},
            "seed": 0, "noise": {"two_qubit_depolarizing_p": 0.01, "rng_seed": 0},
        }
        src = tmp_path / "r.json"
        src.write_text(json.dumps(results))
        out = tmp_path / "f.csv"
        rc = main(["figure2b", "--from-results", str(src), "--k-max", "200",
                   "--out", str(out)])
        assert rc == 0
        assert "unbounded" in out.read_text()


BAD_INPUT_FILES = {
    "shots0.cfg": b"shots = 0\n",
    "noise.cfg": b"noise-p = abc\n",
    "case.cfg": b"case = maybe\n",
    "no-equals.cfg": b"shots 4\n",
    "keys.json": b'{"n": 8}\n',
    "list.json": b"[1, 2]\n",
    "broken.json": b'{"n": \n',
    "binary.json": b"\xff\xfe{}\n",
    "empty.json": b"{}\n",
    "rate0.json": b'{"surface": {"0": 100}}\n',
    "rate-neg.json": b'{"surface": {"-1e-3": 100}}\n',
}

BAD_INPUTS = [
    (["run", "--local", "--config", "{d}/shots0.cfg"], 2),
    (["run", "--local", "--config", "{d}/noise.cfg"], 2),
    (["run", "--local", "--config", "{d}/case.cfg"], 2),
    (["run", "--local", "--config", "{d}/missing.cfg"], 2),
    (["run", "--local", "--config", "{d}/no-equals.cfg"], 2),
    (["figure2b", "--n-list", "4", "--gamma-list", "abc"], 2),
    (["vote", "--k-list", "abc"], 2),
    (["run", "--local", "--instance", "{d}/missing.json"], 2),
    (["estimate", "--n-list", "1e10", "--factory-config", "{d}/missing.json"], 2),
    (["figure2b", "--from-results", "{d}/missing.json"], 2),
    (["run", "--local", "--n", "8", "--shots", "1", "--out", "{d}/missing/r.json"], 2),
    (["run", "--local", "--instance", "{d}/keys.json"], 4),
    (["run", "--local", "--instance", "{d}/list.json"], 4),
    (["run", "--local", "--instance", "{d}/broken.json"], 4),
    (["run", "--local", "--instance", "{d}/binary.json"], 4),
    (["figure2b", "--from-results", "{d}/empty.json"], 4),
    (["estimate", "--n-list", "1e10", "--factory-config", "{d}/list.json"], 4),
    (["estimate", "--n-list", "1e10", "--code", "surface", "--p", "1e-3",
      "--factory-config", "{d}/rate0.json"], 4),
    (["estimate", "--n-list", "1e10", "--code", "surface", "--p", "1e-3",
      "--factory-config", "{d}/rate-neg.json"], 4),
    (["serve", "--n", "8", "--port", "99999"], 2),
    (["run", "--endpoint", "127.0.0.1:1", "--n", "8", "--shots", "1", "--retries", "-1"], 2),
    (["run", "--local", "--n", "8", "--shots", "0"], 2),
    (["run", "--local", "--n", "8", "--shots", "1", "--seed", "-1"], 2),
    (["counts", "--n-list", "1e400"], 2),
    # an unbindable address: serve opens its log first, so this exits 2, not 3
    (["serve", "--n", "8", "--host", "192.0.2.1", "--log", "{d}/missing/log.jsonl"], 2),
]


@pytest.mark.parametrize("argv, code", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_exits_with_one_stderr_line(tmp_path, capsys, argv, code):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_bytes(text)
    try:
        rc = main([arg.format(d=tmp_path) for arg in argv])
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (code, 1), err


class TestServeCommand:
    def test_serve_subprocess_sigint_clean_exit(self, tmp_path):
        import signal
        import subprocess
        import sys

        log = tmp_path / "log.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hmstream.cli", "serve", "--n", "8", "--seed", "1",
             "--port", "0", "--log", str(log)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline()
            assert "serving n=8" in banner
            port = int(banner.strip().rsplit(":", 1)[1])
            from hmstream.wire import StreamSession

            with StreamSession(f"127.0.0.1:{port}") as session:
                assert session.n == 8
                assert len(list(session.updates())) == 8 + 2 + 1
                session.report("null", 8)
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert rc == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 1
        assert validate_schema(entries[0], load_schema("session_log")) == []

    def test_port_in_use_exits_3(self):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main(["serve", "--n", "8", "--port", str(port)])
        finally:
            blocker.close()
        assert rc == 3

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("serve", "run", "figure2b", "counts", "vote", "bound", "estimate"):
            assert name in text
