import errno
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import qplab
from qplab import cli, greens, lyapunov
from qplab.cli import (_HANDLERS, _READS, COMMANDS, CONFIG_SCHEMA,
                       FLAGSHIP_CONFIGS, _plot, main, run, validate_config)
from qplab.errors import ConfigInvalid, SingularEnergy
from qplab.model import system_from_json

BASE_SYSTEM = {
    "dim": 1,
    "coeffs": [[-1, 0.5, 0.0], [1, 0.5, 0.0]],
    "rho": 2.0,
    "lambda": 5.0,
    "omega": [0.6180339887498949],
    "dio": {"A": 2.0, "c": 0.2},
}


def lyap_config(**overrides):
    cfg = {
        "schema_version": 1,
        "command": "lyapunov",
        "system": dict(BASE_SYSTEM),
        "n": 100,
        "samples": 32,
        "e_values": [0.0, 2.0],
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


TWO_TORUS_SYSTEM = dict(FLAGSHIP_CONFIGS["recursion"]["system"])
GREEN_2D = {"schema_version": 1, "command": "green", "system": TWO_TORUS_SYSTEM,
            "E": 0.5, "interval": [1, 10], "seed": 0}
NO_ENERGIES = {k: v for k, v in lyap_config().items() if k != "e_values"}
PAVE = {"schema_version": 1, "command": "pave",
        "system": dict(BASE_SYSTEM, **{"lambda": 10.0}), "E": 13.0,
        "interval": [1, 120], "window": 50, "rate_c": 1.0}
GREEN_1D = {"schema_version": 1, "command": "green",
            "system": dict(BASE_SYSTEM), "E": 0.5, "interval": [1, 10]}
LDT = {"schema_version": 1, "command": "ldt", "system": dict(BASE_SYSTEM),
       "n_schedule": [20, 40], "samples": 1000}
LOCALIZE_CHECK = {"schema_version": 1, "command": "localize",
                  "system": dict(BASE_SYSTEM), "interval": [-20, 20],
                  "window_check": {"N": 10, "delta": 0.5}}


def child_env():
    """Environment for a child interpreter that imports qplab from wherever
    this process found it."""
    path = [str(Path(qplab.__file__).parents[1]),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def artifacts(out_dir):
    """Every artifact's bytes; the manifest without its thread cap and wall
    time, which differ from run to run."""
    found = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}
    mani = json.loads(found.pop("manifest.json"))
    del mani["threads"], mani["wall_time_s"]
    return found, mani


class TestValidation:
    def test_valid_config_passes(self):
        validate_config(lyap_config())

    def test_missing_system_reported_with_path(self):
        cfg = lyap_config()
        del cfg["system"]
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)

    def test_bad_schema_version(self):
        with pytest.raises(ConfigInvalid):
            validate_config(lyap_config(schema_version=99))

    def test_unknown_command(self):
        with pytest.raises(ConfigInvalid):
            validate_config(lyap_config(command="frobnicate"))

    def test_flagship_configs_pass(self):
        for config in FLAGSHIP_CONFIGS.values():
            validate_config(config)

    def test_every_schema_key_is_read(self):
        read = set().union(*_READS.values())
        common = {"schema_version", "command", "system", "seed"}
        assert read | common == set(CONFIG_SCHEMA["properties"])
        assert not read & common

    def test_schema_is_valid(self):
        # validate_config does not check the constant schema on every run.
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
            CONFIG_SCHEMA)

    @pytest.mark.parametrize("cfg", [
        without(lyap_config(), "system"),
        lyap_config(schema_version=99),
        lyap_config(command="frobnicate"),
        lyap_config(sampels=5),
        lyap_config(system=dict(BASE_SYSTEM, lamda=5.0)),
        lyap_config(n="100", samples=0, quadrature="simpson"),
        lyap_config(e_grid={"min": 0.0, "points": 0}),
        without(PAVE, "window"),
        without(GREEN_2D, "interval"),
        dict(LOCALIZE_CHECK, window_check={"delta": 0.5}),
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "herman": True, "lambda": 0},
        lyap_config(e_values=[]),
        dict(LDT, n_schedule=[]),
    ])
    def test_error_matches_jsonschema_validate(self, cfg):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        with pytest.raises(ConfigInvalid) as got:
            validate_config(cfg)
        want = ConfigInvalid(expected.value.message,
                             tuple(expected.value.absolute_path))
        assert str(got.value) == str(want)
        assert got.value.path == want.path

    def test_import_and_validate_skip_scipy(self):
        code = ("import json, sys\n"
                "import qplab.cli\n"
                "qplab.cli.validate_config(json.loads(sys.argv[1]))\n"
                "print([m for m in sys.modules if m.startswith('scipy')])\n")
        proc = subprocess.run([sys.executable, "-c", code,
                               json.dumps(lyap_config())],
                              capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def fail_green_csv_after_three_rows(monkeypatch):
    """Make Green CSV lines raise after three matrix rows, written in blocks
    of four lines so that some reach the temporary file first."""
    def csv_lines(green):
        def lines():
            yield from itertools.islice(greens.CsvLines(green),
                                        3 * green.size + 1)
            raise SingularEnergy(green.interval, -800.0)
        return lines()

    monkeypatch.setattr(greens.GreenMatrix, "csv_lines", csv_lines)
    monkeypatch.setattr(cli, "_BLOCK_LINES", 4)


class TestRun:
    def test_lyapunov_csv_shape(self, tmp_path):
        outputs = run(lyap_config(), out_dir=tmp_path)
        csv = (tmp_path / "lyapunov.csv").read_text().strip().splitlines()
        assert csv[0] == "n,E,value,std_error,samples,quadrature"
        assert len(csv) == 3
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_provenance(self, tmp_path):
        run(lyap_config(), out_dir=tmp_path)
        mani = json.loads((tmp_path / "manifest.json").read_text())
        assert mani["command"] == "lyapunov"
        assert mani["seed"] == 5
        assert len(mani["config_sha256"]) == 64
        assert "lyapunov.csv" in mani["outputs"]

    def test_seeded_rerun_byte_identical(self, tmp_path):
        cfg = lyap_config(quadrature="monte_carlo", samples=100)
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/lyapunov.csv").read_bytes() == \
            (tmp_path / "b/lyapunov.csv").read_bytes()

    def test_threads_do_not_change_results(self, tmp_path, pools,
                                           monkeypatch):
        monkeypatch.setattr(lyapunov, "_SPLIT_FLOOR", 16)
        cfg = lyap_config(e_values=[-1.0, 0.0, 1.0, 2.0])
        run(cfg, out_dir=tmp_path / "one", threads=1)
        run(cfg, out_dir=tmp_path / "four", threads=4)
        assert pools["workers"] == [4]
        assert artifacts(tmp_path / "one") == artifacts(tmp_path / "four")

    @pytest.mark.parametrize("command", ["ldt", "recursion"])
    def test_threads_byte_identical_artifacts(self, tmp_path, pools,
                                              monkeypatch, command):
        # A low split floor sends these small runs through the thread pool.
        monkeypatch.setattr(lyapunov, "_SPLIT_FLOOR", 16)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CONTRACT_CONFIGS[command]))
        for threads in ("1", "2"):
            assert main([command, "--config", str(path), "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
        assert 2 in pools["workers"]
        assert artifacts(tmp_path / "1") == artifacts(tmp_path / "2")

    def test_manifest_records_thread_cap(self, tmp_path):
        run(lyap_config(), out_dir=tmp_path / "three", threads=3)
        run(lyap_config(), out_dir=tmp_path / "default")
        for name, cap in (("three", 3), ("default", lyapunov.thread_cap())):
            mani = json.loads((tmp_path / name / "manifest.json").read_text())
            assert mani["threads"] == cap

    def test_manifest_reruns_to_identical_results(self, tmp_path):
        run(lyap_config(quadrature="monte_carlo", samples=200),
            out_dir=tmp_path / "a")
        mani = json.loads((tmp_path / "a/manifest.json").read_text())
        run(mani["config"], out_dir=tmp_path / "b", seed=mani["seed"])
        assert (tmp_path / "a/lyapunov.csv").read_bytes() == \
            (tmp_path / "b/lyapunov.csv").read_bytes()

    def test_ldt_rows_per_scale(self, tmp_path):
        cfg = {
            "schema_version": 1, "command": "ldt", "system": dict(BASE_SYSTEM),
            "E": 0.0, "sigma": 0.45, "n_schedule": [20, 40], "samples": 2000,
            "seed": 1,
        }
        run(cfg, out_dir=tmp_path)
        lines = (tmp_path / "ldt.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_green_and_fit(self, tmp_path):
        cfg = {
            "schema_version": 1, "command": "green",
            "system": dict(BASE_SYSTEM), "E": 9.0, "theta": 0.0,
            "interval": [1, 60], "min_sep": 10, "seed": 0,
        }
        run(cfg, out_dir=tmp_path)
        fit = json.loads((tmp_path / "green_fit.json").read_text())
        assert fit["rate"] > 0.0
        lines = (tmp_path / "green.csv").read_text().strip().splitlines()
        assert len(lines) == 60 * 60 + 1

    def test_pave_certificate(self, tmp_path):
        system = dict(BASE_SYSTEM, **{"lambda": 10.0})
        cfg = {
            "schema_version": 1, "command": "pave", "system": system,
            "E": 13.0, "theta": 0.0, "interval": [1, 300], "window": 50,
            "rate_c": 1.0, "seed": 0,
        }
        run(cfg, out_dir=tmp_path)
        cert = json.loads((tmp_path / "paving_certificate.json").read_text())
        assert cert["rate_ok"]

    def test_localize_summary(self, tmp_path):
        cfg = {
            "schema_version": 1, "command": "localize",
            "system": dict(BASE_SYSTEM), "theta": 0.0,
            "interval": [-100, 100], "rate_threshold": 0.7,
            "top_profiles": 1, "seed": 0,
        }
        run(cfg, out_dir=tmp_path)
        summary = json.loads((tmp_path / "localization.json").read_text())
        assert summary["count"] == 201
        assert (tmp_path / "profile_00.csv").exists()

    def test_lowerbound_report(self, tmp_path):
        cfg = {
            "schema_version": 1, "command": "lowerbound",
            "system": dict(BASE_SYSTEM, **{"lambda": 1.0}),
            "delta": 0.1, "e1_values": [0.0, 1.0], "herman": True,
            "samples": 20_000, "seed": 0,
        }
        run(cfg, out_dir=tmp_path)
        doc = json.loads((tmp_path / "lowerbound.json").read_text())
        assert doc["epsilon_gap"]["epsilon"] > 0.0
        assert doc["herman"]["sound"]
        assert 0.4 <= doc["sublevel"]["worst_c0"] <= 0.6

    def test_lowerbound_defaults_sit_on_the_strip_edge(self, tmp_path, capsys):
        # With neither rho (default 1) nor delta (default 0.1) set, delta is
        # exactly strip_width/10, the edge of the usable strip.
        system = {k: val for k, val in BASE_SYSTEM.items() if k != "rho"}
        cfg = {"schema_version": 1, "command": "lowerbound",
               "system": system, "samples": 10_000, "seed": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["lowerbound", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "lowerbound.json").read_text())
        assert doc["delta"] == 0.1
        assert doc["epsilon_gap"]["y0"] < 0.1

    def test_recursion_ladder(self, tmp_path):
        cfg = dict(FLAGSHIP_CONFIGS["recursion"])
        cfg["schedule"] = [100, 200]
        cfg["samples"] = 60
        run(cfg, out_dir=tmp_path)
        doc = json.loads((tmp_path / "ladder.json").read_text())
        assert doc["half_log_ok"]
        assert len(doc["ladder"]) == 2

    def test_outputs_follow_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            run(lyap_config(), out_dir=tmp_path)
        finally:
            os.umask(old)
        mode = (tmp_path / "lyapunov.csv").stat().st_mode
        assert stat.S_IMODE(mode) == 0o640

    def test_module_error_maps_to_exit_one(self, tmp_path, capsys):
        # paving an in-spectrum energy fails with a named module error
        system = dict(BASE_SYSTEM, **{"lambda": 5.0})
        cfg = {
            "schema_version": 1, "command": "pave", "system": system,
            "E": 0.0, "theta": 0.0, "interval": [1, 120], "window": 30,
            "rate_c": 5.0, "seed": 0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["pave", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "PavingFailed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_rerun_keeps_earlier_artifacts(self, tmp_path, capsys):
        cfg = CONTRACT_CONFIGS["localize"]
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(cfg))
        assert main(["localize", "--config", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # Computes every profile at a new theta, then fails the window check.
        path.write_text(json.dumps(dict(cfg, theta=0.3, window_check={
            "N": 1000, "delta": 0.5})))
        assert main(["localize", "--config", str(path), "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_error_while_writing_creates_no_out(self, tmp_path, capsys,
                                                monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GREEN_1D))
        fail_green_csv_after_three_rows(monkeypatch)
        out = tmp_path / "new" / "out"
        assert main(["green", "--config", str(path), "--out", str(out)]) == 1
        assert "SingularEnergy" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_error_while_writing_keeps_earlier_artifacts(self, tmp_path,
                                                         monkeypatch):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(dict(GREEN_1D, min_sep=2)))
        assert main(["green", "--config", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        fail_green_csv_after_three_rows(monkeypatch)
        path.write_text(json.dumps(dict(GREEN_1D, E=0.7)))
        assert main(["green", "--config", str(path), "--out", str(out)]) == 1
        assert not list(out.glob("*.tmp*"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_error_in_a_later_file_keeps_earlier_artifacts(self, tmp_path,
                                                           monkeypatch):
        # The new green.csv is complete when green_fit.json cannot be written.
        out = tmp_path / "out"
        run(dict(GREEN_1D, min_sep=2), out_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def disk_full(path, payload):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_write_json", disk_full)
        with pytest.raises(OSError):
            run(dict(GREEN_1D, min_sep=2, E=0.7), out_dir=out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_green_memory_follows_the_matrix_not_its_lines(self, tmp_path,
                                                           monkeypatch):
        # Peak traced memory of `green` with a decay fit on 601 sites, bounded
        # from the layout: 8 bytes of logs and 1 of signs per entry, the n^2
        # bool masks of decay_fit, and one block of lines, set here to one
        # matrix row because the default block is as large as this matrix's
        # arrays.  Holding all n^2 line strings at once takes the peak to
        # about 96 bytes per entry.
        n = 601
        monkeypatch.setattr(cli, "_BLOCK_LINES", n)
        greens._scipy_linalg()          # its import is not the run's memory
        cfg = dict(GREEN_1D, interval=[-300, 300], min_sep=10)
        tracemalloc.start()
        try:
            run(cfg, out_dir=tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n * n

    def test_rerun_removes_files_of_the_earlier_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = dict(CONTRACT_CONFIGS["localize"], top_profiles=3)
        run(cfg, out_dir=out)
        assert (out / "profile_02.csv").exists()
        (out / "notes.txt").write_text("kept\n")
        run(dict(cfg, top_profiles=1), out_dir=out)
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "profile_01.csv" not in outputs
        assert {p.name for p in out.iterdir()} == {*outputs, "manifest.json",
                                                   "notes.txt"}

    def test_rerun_removes_only_bare_listed_names(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        listed = ["old.csv", "../outside.txt", "sub/inner.txt", ".", "..",
                  "sub", "manifest.json"]
        for name in ("old.csv", "../outside.txt", "sub/inner.txt"):
            (out / name).write_text("x\n")
        (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
        run(lyap_config(), out_dir=out)
        assert not (out / "old.csv").exists()
        assert (tmp_path / "outside.txt").exists()
        assert (out / "sub" / "inner.txt").exists()

    @pytest.mark.parametrize("manifest", ["{not json", "[]", '{"outputs": 3}',
                                          '{"outputs": "old.csv"}'])
    def test_unreadable_manifest_removes_nothing(self, tmp_path, manifest):
        out = tmp_path / "out"
        out.mkdir()
        (out / "old.csv").write_text("x\n")
        (out / "manifest.json").write_text(manifest)
        run(lyap_config(), out_dir=out)
        assert (out / "old.csv").exists()


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """The children ``os.fork`` starts in this process, counted."""
    count = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return count


class TestForkedCsv:
    """Green CSV lines formatted in forked processes, one per worker."""

    # (config, lines per span): ten rows in spans of 3, 3, 3 and 1; seven
    # in spans of 5 and 2, fewer than three workers, with a fit; one site in
    # one span; and the paved 120 sites in spans of 40 rows.
    CASES = [(GREEN_1D, 30), (dict(GREEN_1D, interval=[-3, 3], min_sep=1), 35),
             (dict(GREEN_1D, interval=[4, 4]), 30), (PAVE, 4800)]

    @pytest.mark.parametrize("cfg, block", CASES)
    def test_byte_identical_at_every_thread_count(self, tmp_path, monkeypatch,
                                                  forks, cfg, block):
        monkeypatch.setattr(cli, "_BLOCK_LINES", block)
        n = cfg["interval"][1] - cfg["interval"][0] + 1
        spans = math.ceil(n / max(1, block // n))
        found = {}
        for threads in (1, 2, 3):
            forks.clear()
            out = tmp_path / str(threads)
            run(cfg, out_dir=out, threads=threads)
            workers = min(threads, spans)
            assert len(forks) == (workers if workers > 1 else 0)
            assert no_child_left()
            found[threads] = artifacts(out)
        assert found[1] == found[2] == found[3]
        name = "green.csv" if cfg["command"] == "green" else "paved_green.csv"
        lines = found[1][0][name].decode().splitlines()
        assert len(lines) == n * n + 1

    def test_one_thread_never_forks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_LINES", 20)
        cfg = dict(GREEN_1D, min_sep=2)
        run(cfg, out_dir=tmp_path / "two", threads=2)

        def no_fork():
            raise OSError("fork called under --threads 1")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["green", "--config", str(path), "--threads", "1",
                     "--out", str(tmp_path / "one")]) == 0
        assert artifacts(tmp_path / "one") == artifacts(tmp_path / "two")

    def test_no_fork_formats_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_LINES", 20)
        run(GREEN_1D, out_dir=tmp_path / "fork", threads=2)
        monkeypatch.delattr(os, "fork")
        run(GREEN_1D, out_dir=tmp_path / "none", threads=2)
        assert artifacts(tmp_path / "fork") == artifacts(tmp_path / "none")

    def test_error_in_a_worker_exits_one(self, tmp_path, capsys, monkeypatch,
                                         forks):
        # The second span of rows raises, in the worker that formats it.
        monkeypatch.setattr(cli, "_BLOCK_LINES", 20)
        span_text = greens.CsvLines.span_text

        def failing(lines, rows):
            if rows.start > 0:
                raise SingularEnergy(lines.green.interval, -800.0)
            return span_text(lines, rows)

        monkeypatch.setattr(greens.CsvLines, "span_text", failing)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GREEN_1D))
        out = tmp_path / "new" / "out"
        assert main(["green", "--config", str(path), "--threads", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "WorkerFailed: SingularEnergy: box (1, 10) resonates" in err
        assert len(forks) == 2
        assert list(tmp_path.iterdir()) == [path]
        assert no_child_left()

    def test_worker_ending_early_keeps_earlier_artifacts(self, tmp_path,
                                                         capsys, monkeypatch):
        out = tmp_path / "out"
        run(GREEN_1D, out_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(cli, "_BLOCK_LINES", 20)
        parent = os.getpid()
        span_text = greens.CsvLines.span_text

        def dying(lines, rows):
            if os.getpid() != parent and rows.start > 0:
                os._exit(3)
            return span_text(lines, rows)

        monkeypatch.setattr(greens.CsvLines, "span_text", dying)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(GREEN_1D, E=0.7)))
        assert main(["green", "--config", str(path), "--threads", "2",
                     "--out", str(out)]) == 1
        assert "WorkerFailed" in capsys.readouterr().err
        assert not list(out.glob("*.tmp*"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert no_child_left()

    def test_closing_the_stream_part_way_ends_every_worker(self, golden,
                                                           monkeypatch, forks):
        monkeypatch.setattr(cli, "_BLOCK_LINES", 10)
        g = greens.green_solve((1, 40), golden, 0.0, 9.0,
                               system_from_json(BASE_SYSTEM)[0])
        chunks = cli._line_chunks(g.csv_lines(), 3)
        assert next(chunks) == b"n1,n2,sign,log_mag\n"
        first = next(chunks).decode()
        assert first == "".join(f"1,{j},{s},{x!r}\n" for j, s, x in zip(
            range(1, 41), g.signs[0].tolist(), g.logs[0].tolist()))
        assert len(forks) == 3
        chunks.close()
        assert no_child_left()


class TestMainEntry:
    @pytest.mark.parametrize("cfg", [
        lyap_config(system=dict(BASE_SYSTEM, coeffs=[[1, 0.5, 0.0]])),
        lyap_config(system=dict(BASE_SYSTEM, omega=[1.5])),
        lyap_config(system=dict(BASE_SYSTEM, coeffs=[[-1, 1e308, 0],
                                                      [1, 1e308, 0]],
                                **{"lambda": 1.0}),
                    n=10, samples=4),
        lyap_config(system=dict(BASE_SYSTEM, omega=[0.3, 0.4])),
        lyap_config(e_values=[0.0, float("nan")]),
        dict(NO_ENERGIES, E=float("inf")),
        dict(NO_ENERGIES, e_grid={"min": float("-inf"), "max": 1.0,
                                  "points": 3}),
        dict(GREEN_2D, theta=[0.1]),
        lyap_config(sampels=5),
        lyap_config(system=dict(BASE_SYSTEM, lamda=5.0)),
        without(PAVE, "rate_c"),
        without(PAVE, "window"),
        without(GREEN_2D, "interval"),
        dict(LOCALIZE_CHECK, window_check={"delta": 0.5}),
        lyap_config(system=dict(BASE_SYSTEM, dio={"A": 2.0, "C": 0.2})),
        dict(NO_ENERGIES, e_grid={"min": 0.0, "max": 1.0, "points": 3,
                                  "pionts": 4}),
        dict(LOCALIZE_CHECK, window_check={"N": 5, "delta": 0.5,
                                           "cuont": 2}),
        dict(LOCALIZE_CHECK, window_check={"N": 5, "delta": 0.5,
                                           "count": -1}),
        dict(LOCALIZE_CHECK, window_check={"N": "abc", "delta": 0.5}),
        # Values the schema admits but the library rejects.
        dict(LDT, samples=10),
        dict(LDT, n_schedule=[100, 50]),
        dict(GREEN_1D, interval=[1, 20], min_sep=10),
        dict(GREEN_1D, interval=[20, 1]),
        dict(FLAGSHIP_CONFIGS["recursion"], schedule=[400, 200]),
        dict(FLAGSHIP_CONFIGS["recursion"], schedule=[1, 200]),
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "delta": 5.0},
        # Past strip_width/10 = 0.2, where the complexified line stops.
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "delta": 0.5},
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "e1_values": []},
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "sublevel_deltas": []},
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "sublevel_deltas": [0.01, 0.0]},
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "samples": 2000},
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "herman": True, "lambda": 0},
        {"schema_version": 1, "command": "lowerbound",
         "system": dict(BASE_SYSTEM), "herman": True, "lambda": -5},
        lyap_config(e_values=[]),
        dict(LDT, n_schedule=[]),
        dict(LOCALIZE_CHECK, interval=[-100, 100],
             window_check={"N": 1000, "delta": 0.5}),
        # Keys the command does not read.
        dict(LDT, e_values=[3.0]),
        dict(LDT, n=500),
        lyap_config(format="csv"),
        lyap_config(E=1.0),
    ], ids=["not-conjugate-symmetric", "omega-outside-torus",
            "overflowing-coefficients",
            "omega-dim-mismatch", "nan-energy", "inf-energy", "inf-grid",
            "theta-shape", "sampels", "system-lamda", "pave-no-rate_c",
            "pave-no-window", "green-no-interval", "window_check-no-N",
            "dio-C", "e_grid-pionts", "window_check-cuont",
            "window_check-negative-count", "window_check-N-string",
            "ldt-samples", "ldt-decreasing-schedule", "green-min_sep",
            "green-reversed-interval", "recursion-decreasing-schedule",
            "recursion-scale-one", "lowerbound-delta",
            "lowerbound-delta-past-usable-strip", "lowerbound-no-e1_values",
            "lowerbound-no-sublevel_deltas", "lowerbound-zero-sublevel-delta",
            "lowerbound-samples-below-1e4", "lowerbound-herman-lambda-zero",
            "lowerbound-herman-lambda-negative", "lyapunov-empty-e_values",
            "ldt-empty-n_schedule",
            "window_check-N-too-large", "ldt-e_values",
            "ldt-n", "format", "two-energy-keys"])
    def test_invalid_input_exit_two(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([cfg["command"], "--config", str(path), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ConfigInvalid: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_not_a_directory_exit_two(self, tmp_path, capsys, out):
        path, taken = tmp_path / "cfg.json", tmp_path / "taken"
        path.write_text(json.dumps(CONTRACT_CONFIGS["localize"]))
        taken.write_text("an earlier file\n")
        code = main(["localize", "--config", str(path), "--out",
                     str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ConfigInvalid: ")
        assert f"{str(taken)!r} is not a directory" in err
        assert "Traceback" not in err
        assert taken.read_text() == "an earlier file\n"
        assert {p.name for p in tmp_path.iterdir()} == {"cfg.json", "taken"}

    def test_schedule_flag_unread_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(lyap_config()))
        code = main(["lyapunov", "--config", str(path), "--schedule",
                     "100,200", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'schedule' is not read by command 'lyapunov'" in err
        assert not (tmp_path / "out").exists()

    def test_schedule_flag_not_integers_exit_two(self, tmp_path, capsys):
        code = main(["recursion", "--schedule", "100,abc", "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ConfigInvalid: --schedule")
        assert not (tmp_path / "out").exists()

    def test_schedule_flag_scale_one_exit_two(self, tmp_path, capsys):
        code = main(["recursion", "--schedule", "1,200", "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ConfigInvalid: every scale must be at least 2")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def lowerbound_main(self, tmp_path, **keys):
        cfg = {"schema_version": 1, "command": "lowerbound",
               "system": dict(BASE_SYSTEM, **{"lambda": 1.0}),
               "samples": 10_000, "seed": 0, **keys}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return main(["lowerbound", "--config", str(path), "--out",
                     str(tmp_path / "out")])

    def test_herman_default_lambda_below_half_epsilon(self, tmp_path, capsys):
        # epsilon is about 0.32 here; the default lambda, ten times
        # Herman's threshold 100 epsilon^-100, clears that threshold.
        code = self.lowerbound_main(tmp_path, delta=0.05, herman=True)
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "lowerbound.json").read_text())
        eps = doc["epsilon_gap"]["epsilon"]
        assert eps < 0.5
        assert doc["herman"]["lambda"] == 10.0 * 100.0 * eps ** -100.0
        assert doc["herman"]["sound"] is True

    def test_herman_default_lambda_overflow_exit_one(self, tmp_path, capsys):
        # At coupling 1e-4 epsilon is about 7e-5, and 1000 epsilon^-100 is
        # far beyond the largest double.
        code = self.lowerbound_main(
            tmp_path, delta=0.1, herman=True,
            system=dict(BASE_SYSTEM, **{"lambda": 1e-4}))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("HypothesisUnmet: coupling threshold: ")
        assert "overflows a double" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_herman_measures_at_the_gap_energy(self, tmp_path, capsys):
        # The gap found for e1 = 0.3 certifies growth of lambda v - E at
        # E = lambda * 0.3, so that is where L_500 is measured.
        code = self.lowerbound_main(tmp_path, delta=0.05, herman=True,
                                    e1_values=[0.3, 0.0])
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "lowerbound.json").read_text())
        lam = doc["herman"]["lambda"]
        v, freq = system_from_json(dict(BASE_SYSTEM, **{"lambda": 1.0}))
        want = lyapunov.lyapunov_n(freq, lam * 0.3, 500,
                                   v.with_coupling(lam * v.coupling),
                                   lyapunov.SamplerSpec("grid", 64))
        assert doc["herman"]["measured_L"] == want.value

    def test_unsettled_epsilon_gap_exit_two(self, tmp_path, capsys):
        code = self.lowerbound_main(tmp_path, delta=1e-3)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ConfigInvalid: the epsilon gap at "
                              "delta = 0.001 did not settle")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(lyap_config()))
        code = main(["lyapunov", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out/lyapunov.csv").exists()

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for data in (b"{not json", b"\xff\xfe{}"):     # the second is not UTF-8
            path.write_bytes(data)
            code = main(["lyapunov", "--config", str(path)])
            assert code == 2
            assert "ConfigInvalid: malformed JSON" in capsys.readouterr().err

    def test_command_mismatch_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(lyap_config()))
        code = main(["ldt", "--config", str(path)])
        assert code == 2

    def test_missing_config_no_flagship_exit_two(self, capsys):
        code = main(["green"])
        assert code == 2

    def test_schedule_flag_overrides(self, tmp_path):
        cfg = dict(FLAGSHIP_CONFIGS["recursion"])
        cfg["samples"] = 50
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["recursion", "--config", str(path), "--schedule",
                     "100,200", "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out/ladder.json").read_text())
        assert [row["n"] for row in doc["ladder"]] == [100, 200]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(lyap_config()))
        code = main(["lyapunov", "--config", str(path), "--threads", threads,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_python_dash_m_help(self):
        proc = subprocess.run([sys.executable, "-m", "qplab", "ldt", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "--threads" in proc.stdout

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "qplab.cli", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "lyapunov" in proc.stdout


class TestPlotData:
    def test_data_and_gnuplot_stub(self):
        files = _plot([(1.0, 2.0), (2.0, 1.0)], "ladder", suffix="_00")
        assert files["ladder_00.dat"] == ["# n L", "1.0 2.0", "2.0 1.0"]
        assert "plot 'ladder_00.dat' using 1:2" in files["ladder_00.gp"][-1]
        assert len(files) == 2


# Every command at small size; localize also writes profiles, their plot
# data and window checks.
CONTRACT_CONFIGS = {
    "lyapunov": lyap_config(),
    "ldt": {"schema_version": 1, "command": "ldt", "system": dict(BASE_SYSTEM),
            "E": 0.0, "sigma": 0.45, "n_schedule": [20, 40], "samples": 2000},
    "green": {"schema_version": 1, "command": "green",
              "system": dict(BASE_SYSTEM), "E": 9.0, "interval": [1, 30],
              "min_sep": 5},
    "pave": PAVE,
    "localize": {"schema_version": 1, "command": "localize",
                 "system": dict(BASE_SYSTEM), "interval": [-100, 100],
                 "rate_threshold": 0.7, "top_profiles": 2,
                 "window_check": {"N": 40, "delta": 0.5, "count": 2}},
    "lowerbound": {"schema_version": 1, "command": "lowerbound",
                   "system": dict(BASE_SYSTEM, **{"lambda": 1.0}),
                   "delta": 0.1, "e1_values": [0.0], "samples": 10_000},
    "recursion": dict(FLAGSHIP_CONFIGS["recursion"], schedule=[100, 200],
                      samples=60),
}
TEXT_COLUMNS = {"quadrature"}


@pytest.fixture(scope="class")
def contract_run(tmp_path_factory):
    """Output directory holding one run of every contract config."""
    out = tmp_path_factory.mktemp("contract")
    for name, cfg in CONTRACT_CONFIGS.items():
        run(cfg, out_dir=out / name)
    return out


class ReadLog(dict):
    """A config that records every key a handler looks up."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestArtifactContract:
    def test_every_numeric_field_parses_as_float(self, contract_run):
        assert set(CONTRACT_CONFIGS) == set(COMMANDS)
        tmp_path = contract_run
        bad = []
        csvs = sorted(tmp_path.glob("*/*.csv"))
        for path in csvs:
            header, *rows = path.read_text().splitlines()
            columns = header.split(",")
            assert rows, path
            for line in rows:
                fields = line.split(",")
                assert len(fields) == len(columns), (path, line)
                bad += [(path.name, text) for col, text in zip(columns, fields)
                        if col not in TEXT_COLUMNS and not _parses(text)]
        dats = sorted(tmp_path.glob("*/*.dat"))
        for path in dats:
            for line in path.read_text().splitlines():
                if not line.startswith("#"):
                    assert len(line.split()) == 2, (path, line)
                    bad += [(path.name, text) for text in line.split()
                            if not _parses(text)]
        assert {p.name for p in csvs} >= {
            "lyapunov.csv", "ldt.csv", "green.csv", "paved_green.csv",
            "profile_00.csv", "profile_01.csv"}
        assert {p.name for p in dats} >= {
            "lyapunov_vs_E.dat", "ldt_scaling.dat", "ladder.dat",
            "decay_profile_00.dat", "decay_profile_01.dat"}
        assert (tmp_path / "localize/window_checks.json").exists()
        assert not bad, bad[:5]

    def test_every_json_artifact_is_strict(self, contract_run, tmp_path):
        # One sample makes every std_error undefined (NaN in memory).
        cfg = dict(FLAGSHIP_CONFIGS["recursion"], schedule=[100, 200],
                   samples=1)
        run(cfg, out_dir=tmp_path / "recursion")
        paths = sorted(contract_run.glob("*/*.json")) + sorted(
            tmp_path.glob("*/*.json"))
        assert len(paths) >= 2 * len(CONTRACT_CONFIGS)
        for path in paths:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        ladder = json.loads((tmp_path / "recursion/ladder.json").read_text())
        assert all(row["std_error"] is None for row in ladder["ladder"])

    def test_handlers_only_compute(self, contract_run, tmp_path, monkeypatch):
        # Handlers write nothing, return what run writes, and read only the
        # keys validate_config lets through.
        monkeypatch.chdir(tmp_path)
        for command, handler in _HANDLERS.items():
            cfg = CONTRACT_CONFIGS[command]
            v, freq = system_from_json(cfg["system"])
            log = ReadLog(cfg)
            files = handler(log, v, freq, cfg.get("seed", 0))
            mani = json.loads(
                (contract_run / command / "manifest.json").read_text())
            assert list(files) == mani["outputs"], command
            assert log.read <= _READS[command], command
        assert not any(tmp_path.iterdir())

    def test_localize_fits_each_eigenvector_once(self, tmp_path, monkeypatch):
        from qplab import cli, localization

        calls = {"eigensystem": 0, "decay_profile": 0}

        def counted(name):
            original = getattr(localization, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(name)
            monkeypatch.setattr(localization, name, wrapper)
            monkeypatch.setattr(cli, name, wrapper)
        run(CONTRACT_CONFIGS["localize"], out_dir=tmp_path)
        assert calls == {"eigensystem": 1, "decay_profile": 201}


def _parses(text):
    try:
        float(text)
    except ValueError:
        return False
    return True
