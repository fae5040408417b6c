import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickpoints import __version__, cli, montecarlo
from thickpoints.cli import (
    ConfigError,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    apply_overrides,
    build_parser,
    emit,
    main,
    parse_config,
)
from thickpoints.montecarlo import Experiment, ExperimentConfig, derive_seed, summarize
from thickpoints.special_fn import GammaConvention


class TestParseConfig:
    def test_defaults_from_empty_text(self):
        cfg = parse_config("", Experiment.MOMENT_CHECK)
        assert cfg.n == 64
        assert cfg.grid_factor == 16
        assert cfg.gamma == 0.5
        assert cfg.convention is GammaConvention.THEOREM
        assert cfg.replicas == 1
        assert cfg.master_seed == 0

    def test_keys_comments_and_blank_lines(self):
        text = """
        # experiment size
        n = 128
        gamma = 0.75   # threshold level
        convention = conjecture

        replicas = 10
        master_seed = 99
        """
        cfg = parse_config(text, Experiment.FK_TEST)
        assert cfg.n == 128
        assert cfg.gamma == 0.75
        assert cfg.convention is GammaConvention.CONJECTURE
        assert cfg.replicas == 10
        assert cfg.master_seed == 99

    def test_unknown_key_reports_line_and_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("n = 8\nbogus = 3\n", Experiment.MOMENT_CHECK)
        msg = str(err.value)
        assert "line 2" in msg and "bogus" in msg

    def test_unparseable_value_reports_location(self):
        with pytest.raises(ConfigError) as err:
            parse_config("n = lots\n", Experiment.MOMENT_CHECK)
        assert "line 1" in str(err.value) and "'lots'" in str(err.value)

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError) as err:
            parse_config("just words\n", Experiment.MOMENT_CHECK)
        assert "line 1" in str(err.value)

    def test_out_of_range_gamma_for_conjecture_convention(self):
        # parsing only parses; the final config is validated by apply_overrides
        cfg = parse_config("convention = conjecture\ngamma = 1.5\n", Experiment.FK_TEST)
        assert cfg.gamma == 1.5
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [])

    def test_bad_convention_value(self):
        with pytest.raises(ConfigError):
            parse_config("convention = folklore\n", Experiment.MOMENT_CHECK)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("convention = Foo\n",
             "line 1 key 'convention': convention must be 'theorem' or 'conjecture', got 'Foo'"),
            ("experiment = fk-test\n", "line 1 key 'experiment': unknown key 'experiment'"),
            ("n = abc\n", "line 1 key 'n': cannot parse n value 'abc'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text, Experiment.MOMENT_CHECK)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            apply_overrides(ExperimentConfig(Experiment.MOMENT_CHECK), [text.strip()])
        assert str(err.value) == message.replace("line 1 key", "override")

    def test_every_config_key_has_a_parser_and_help(self):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}
        assert set(cli._PARSERS) == keys
        assert set(cli._KEY_HELP) == set(cli._PARSERS)


class TestApplyOverrides:
    def test_override_wins_over_file_value(self):
        cfg = parse_config("n = 16\n", Experiment.MOMENT_CHECK)
        cfg = apply_overrides(cfg, ["n=32", "gamma=0.7"])
        assert cfg.n == 32
        assert cfg.gamma == 0.7

    def test_override_can_fix_invalid_file(self):
        # gamma out of range for the file's convention, repaired by override
        cfg = parse_config("convention = conjecture\ngamma = 1.5\n", Experiment.FK_TEST)
        cfg = apply_overrides(cfg, ["gamma=0.5"])
        assert cfg.gamma == 0.5

    def test_final_config_is_validated(self):
        cfg = parse_config("", Experiment.MOMENT_CHECK)
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["replicas=0"])

    def test_malformed_override(self):
        cfg = parse_config("", Experiment.MOMENT_CHECK)
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["replicas"])


class TestEmit:
    def _records(self):
        recs = [{"stat": 0.1}, {"stat": 0.30000000000000004}]
        return recs, summarize(recs)

    def test_csv_shape_and_roundtrip(self, tmp_path):
        recs, summary = self._records()
        cfg = ExperimentConfig(Experiment.MOMENT_CHECK, replicas=2)
        base = str(tmp_path / "out")
        csv_path, json_path = emit(recs, summary, cfg, base, 1.5)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replica_index", "derived_seed", "stat"]
        assert len(rows) == 3
        # shortest-repr floats must round-trip exactly
        assert float(rows[2][2]) == 0.30000000000000004
        assert [int(row[0]) for row in rows[1:]] == [0, 1]
        assert [int(row[1]) for row in rows[1:]] == [derive_seed(0, 0), derive_seed(0, 1)]

    def test_json_contents(self, tmp_path):
        recs, summary = self._records()
        cfg = ExperimentConfig(Experiment.MOMENT_CHECK, replicas=2, master_seed=5)
        _, json_path = emit(recs, summary, cfg, str(tmp_path / "out"), 2.25)
        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["config_echo"]["experiment"] == "moment-check"
        assert payload["config_echo"]["master_seed"] == 5
        assert payload["estimates"] == summary
        assert payload["wallclock_seconds"] == 2.25
        assert payload["version"] == __version__

    def test_rerun_byte_identical_csv(self, tmp_path):
        recs, summary = self._records()
        cfg = ExperimentConfig(Experiment.MOMENT_CHECK, replicas=2)
        p1, _ = emit(recs, summary, cfg, str(tmp_path / "a"), 1.0)
        p2, _ = emit(recs, summary, cfg, str(tmp_path / "b"), 9.0)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


_OPTIONAL_INT = st.none() | st.integers(1, 64)


@settings(max_examples=60, deadline=None)
@given(
    experiment=st.sampled_from(
        sorted({e for e, _ in cli._SUBCOMMANDS.values()}, key=lambda e: e.value)
    ),
    n=st.integers(2, 4096),
    grid_factor=st.integers(4, 64),
    gamma=st.floats(0.01, 0.99),
    convention=st.sampled_from(GammaConvention),
    eta=st.floats(0.01, 0.99),
    ell=_OPTIONAL_INT,
    L=_OPTIONAL_INT,
    kmax=_OPTIONAL_INT,
    replicas=st.integers(1, 10**6),
    master_seed=st.integers(0, 2**64 - 1),
    g_shift=st.floats(-5.0, 5.0),
)
def test_config_echo_parses_back_to_the_config(tmp_path_factory, experiment, **fields):
    config = ExperimentConfig(experiment=experiment, **fields)
    try:
        config.validate()
    except ValueError as exc:
        # only a nu-mu barrier deeper than its grid or trace guard allow is
        # invalid here; that rejection is tested on its own
        if "barrier depth" not in str(exc):
            raise
        assume(False)
    base = tmp_path_factory.mktemp("echo") / "run"
    emit([{"x": 1.0}], summarize([{"x": 1.0}]), config, str(base), 0.0)
    echo = json.loads(Path(f"{base}.json").read_text())["config_echo"]
    assert Experiment(echo.pop("experiment")) is experiment
    text = "".join(f"{key} = {value}\n" for key, value in echo.items() if value is not None)
    assert parse_config(text, experiment) == config


class TestMain:
    def test_help_lists_all_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-moments", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for field in dataclasses.fields(ExperimentConfig):
            if field.name != "experiment":
                assert f"\n  {field.name:<12} " in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert __version__ in capsys.readouterr().out

    def test_verify_moments_end_to_end(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nreplicas = 5\nmaster_seed = 11\n")
        base = tmp_path / "result"
        code = main(["verify-moments", str(conf), "-o", str(base)])
        assert code == EXIT_OK
        with open(f"{base}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["replica_index", "derived_seed"]
        assert len(rows) == 6
        payload = json.loads(Path(f"{base}.json").read_text())
        assert payload["config_echo"]["n"] == 4

    def test_rerun_is_byte_identical_and_thread_independent(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 8\nreplicas = 6\nmaster_seed = 2\n")
        outputs = []
        for threads, name in (("1", "t1"), ("3", "t3")):
            monkeypatch.setenv("THICKPOINT_THREADS", threads)
            base = tmp_path / name
            assert main(["verify-moments", str(conf), "-o", str(base)]) == EXIT_OK
            outputs.append(Path(f"{base}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_nu_mu_barrier_csv_is_worker_independent(self, tmp_path, monkeypatch):
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("THICKPOINT_THREADS", threads)
            base = tmp_path / f"t{threads}"
            argv = ["nu-mu", "--set", "n=256", "--set", "ell=1", "--set", "replicas=6",
                    "--set", "master_seed=4", "-o", str(base)]
            assert main(argv) == EXIT_OK
            outputs.append(Path(f"{base}.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert b"nu_barrier_violation_l4" in outputs[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-moments", "--set", "n=16"],
            ["trace-cov", "--set", "n=16", "--set", "kmax=40"],
            # past cue.SZEGO_LEAF: each block's rows go through one product
            # tree, with a partial last leaf at n = 40 and odd blocks carried
            # up at n = 72
            pytest.param(["trace-cov", "--set", "n=40", "--set", "kmax=80"], id="trace-cov-two-leaves"),
            pytest.param(["trace-cov", "--set", "n=72", "--set", "kmax=80"], id="trace-cov-tree"),
            ["fk-test", "--set", "n=32"],
            ["nu-mu", "--set", "n=64", "--set", "ell=1", "--set", "g_shift=0.2"],
            ["gaussian-gmc", "--set", "kmax=16"],
            # the parent computes the kernel checks once, about 0.2 s, before
            # any worker forks
            ["kernel-check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_is_worker_count_independent(self, argv, tmp_path, monkeypatch):
        # 11 replicas: neither 2 nor 3 workers nor blocks of 3 or 5 divide them
        # evenly, so some worker ends in a ragged block
        argv = [*argv, "--set", "replicas=11", "--set", "master_seed=9"]
        config = apply_overrides(ExperimentConfig(cli._SUBCOMMANDS[argv[0]][0]), argv[2::2])
        records = [montecarlo.run_replica(config, i) for i in range(config.replicas)]
        emit(records, summarize(records), config, str(tmp_path / "single"), 0.0)
        expected = (tmp_path / "single.csv").read_bytes()
        blocked = argv[0] in ("verify-moments", "trace-cov", "gaussian-gmc")
        for block in (3, 5):
            monkeypatch.setattr(montecarlo, "BLOCK_REPLICAS", block)
            assert montecarlo._block_size(config) == (block if blocked else 1)
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("THICKPOINT_THREADS", threads)
                base = tmp_path / f"b{block}t{threads}"
                assert main([*argv, "-o", str(base)]) == EXIT_OK
                assert Path(f"{base}.csv").read_bytes() == expected, (block, threads)

    def test_set_overrides_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nreplicas = 2\n")
        base = tmp_path / "o"
        code = main(
            ["verify-moments", str(conf), "--set", "replicas=3", "-o", str(base)]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(Path(f"{base}.csv").read_text().splitlines()))
        assert len(rows) == 4

    def test_sample_subcommand_long_format(self, tmp_path):
        base = tmp_path / "fields"
        code = main(
            ["sample", "--set", "n=4", "--set", "replicas=2", "-o", str(base)]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(Path(f"{base}.csv").read_text().splitlines()))
        assert rows[0] == ["replica_index", "derived_seed", "theta", "value"]
        assert len(rows) == 1 + 2 * 16 * 4
        assert float(rows[1][2]) == 0.0

    def test_config_error_exit_code(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("replicas = 0\n")
        code = main(["verify-moments", str(conf)])
        assert code == EXIT_CONFIG_ERROR
        assert "category=config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace-cov", "--set", "n=4", "--set", "kmax=1000"],
            ["nu-mu", "--set", "n=1", "--set", "ell=1"],
            ["fk-test", "--set", "n=1"],
            # floor(e^5) = 148 modes on a grid of 32, then 403 traces past 64*n = 256
            ["nu-mu", "--set", "n=8", "--set", "grid_factor=4", "--set", "ell=1", "--set", "L=5"],
            ["nu-mu", "--set", "n=4", "--set", "grid_factor=128", "--set", "ell=1", "--set", "L=6"],
        ],
    )
    def test_worker_limits_rejected_before_any_replica(self, argv, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("a replica ran for an invalid config")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "category=config invalid config" in capsys.readouterr().err
        cfg = ExperimentConfig(experiment=cli._SUBCOMMANDS[argv[0]][0])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, argv[2::2])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_g_shift_writes_no_file(self, value, tmp_path, capsys):
        base = tmp_path / "out"
        argv = ["nu-mu", "--set", "n=16", "--set", f"g_shift={value}", "-o", str(base)]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "category=config invalid config: g_shift must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["abc", " 2x", "0"])
    def test_bad_thread_count_is_a_config_error(self, value, tmp_path, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("a replica ran with an invalid THICKPOINT_THREADS")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        monkeypatch.setenv("THICKPOINT_THREADS", value)
        base = tmp_path / "x"
        assert main(["verify-moments", "--set", "replicas=2", "-o", str(base)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "category=config THICKPOINT_THREADS must be a positive integer" in err
        assert list(tmp_path.iterdir()) == []

    def test_sample_rejects_a_bad_thread_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THICKPOINT_THREADS", "abc")
        assert main(["sample", "--set", "n=4", "-o", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "category=config THICKPOINT_THREADS must be a positive integer" in err
        assert list(tmp_path.iterdir()) == []

    def test_value_error_while_running_is_a_runtime_error(self, monkeypatch, capsys):
        def failing_run(config):
            raise ValueError("replica blew up")

        monkeypatch.setattr(cli, "run_experiment", failing_run)
        assert main(["verify-moments", "--set", "n=4"]) == EXIT_RUNTIME_ERROR
        assert "error: category=runtime replica blew up" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_memory_error_while_running_is_a_runtime_error(
        self, threads, tmp_path, monkeypatch, capsys
    ):
        # a block too large for memory, as numpy refuses it; at 2 workers it
        # is raised in a forked worker and re-raised in the parent
        def no_room(config, streams):
            raise MemoryError()

        monkeypatch.setitem(montecarlo._BLOCK_FNS, Experiment.GAUSSIAN_GMC, no_room)
        monkeypatch.setenv("THICKPOINT_THREADS", threads)
        argv = ["gaussian-gmc", "--set", "kmax=8", "--set", "replicas=2", "-o", str(tmp_path / "x")]
        assert main(argv) == EXIT_RUNTIME_ERROR
        assert "error: category=runtime MemoryError" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_exit_code(self, capsys):
        code = main(["verify-moments", "/nonexistent/path.conf"])
        assert code == EXIT_CONFIG_ERROR

    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch):
        # a missing output directory is refused before any replica runs
        def unreachable(config):
            raise AssertionError("run_experiment reached with a missing output directory")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        code = main(
            ["verify-moments", "--set", "n=2", "-o", "/nonexistent-dir/out"]
        )
        assert code == EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert "category=io" in err and "/nonexistent-dir" in err

    def test_kernel_check_subcommand_runs(self, tmp_path):
        base = tmp_path / "kc"
        code = main(["kernel-check", "-o", str(base)])
        assert code == EXIT_OK
        payload = json.loads(Path(f"{base}.json").read_text())
        assert payload["estimates"]["truncated_kernel_max_dev"]["mean"] <= 2.0
        assert payload["estimates"]["assumption1_max_dev"]["mean"] <= 3.0

    def test_one_replica_json_is_strict(self, tmp_path):
        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        base = tmp_path / "kc"
        assert main(["kernel-check", "--set", "replicas=1", "-o", str(base)]) == EXIT_OK
        with open(f"{base}.json") as fh:
            payload = json.load(fh, parse_constant=reject)
        for estimate in payload["estimates"].values():
            assert math.isfinite(estimate["mean"])
            # one replica leaves the standard error undefined
            assert estimate["stderr"] is None


_COLD_START = """
import sys
from thickpoints import cli
# the replica generator is made on first use, and the worker pool only for
# more than one worker, so importing the CLI loads neither numpy.random nor
# multiprocessing
assert "numpy.random" not in sys.modules
assert "concurrent.futures.process" not in sys.modules
assert "multiprocessing" not in sys.modules

runs = [
    ["sample", "--set", "n=4"],
    ["verify-moments", "--set", "n=4", "--set", "replicas=2"],
    ["trace-cov", "--set", "n=4", "--set", "replicas=2"],
    ["fk-test", "--set", "n=16"],
    ["nu-mu", "--set", "n=64", "--set", "ell=1"],
    ["gaussian-gmc", "--set", "kmax=16", "--set", "replicas=2"],
    ["kernel-check"],
]
for argv in runs:
    assert cli.main([*argv, "-o", argv[0]]) == cli.EXIT_OK, argv

import math
from thickpoints.kernels import doubly_mollified_kernel

for domain in (None, (0.0, 1.0)):
    assert math.isfinite(doubly_mollified_kernel(0.5, 0.4, 0.125, 0.0625, domain))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_every_subcommand_without_scipy(tmp_path):
    # a fresh interpreter, because this test process has imported scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, THICKPOINT_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


_KERNEL_CHECK_COLD_START = """
import sys
from thickpoints import cli
# the Gauss-Legendre table is literal
assert "numpy.polynomial" not in sys.modules
# kernel-check draws nothing, so it makes no generator, and numpy.random's
# seeding never pulls in secrets and OpenSSL
assert cli.main(["kernel-check", "-o", "kc"]) == cli.EXIT_OK
loaded = [m for m in ("numpy.random", "numpy.polynomial", "secrets", "_hashlib") if m in sys.modules]
assert not loaded, loaded
# a run that draws does load numpy.random, so the checks above can fail
assert cli.main(["nu-mu", "--set", "n=16", "-o", "nm"]) == cli.EXIT_OK
assert "numpy.random" in sys.modules
"""


def test_kernel_check_loads_neither_numpy_random_nor_polynomial(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, THICKPOINT_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _KERNEL_CHECK_COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subs = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        )
        names = {
            "sample", "verify-moments", "trace-cov", "fk-test",
            "nu-mu", "gaussian-gmc", "kernel-check",
        }
        for name in names:
            args = parser.parse_args([name])
            assert args.subcommand == name

    def test_readme_command_lines_parse_and_validate(self):
        # every `thickpoints ...` line of README's "Command line" block, with
        # its backslash continuations joined, parses and its --set items
        # give a valid config
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
        shown = set()
        for line in lines:
            words = shlex.split(line)
            assert words[0] == "thickpoints", line
            args = build_parser().parse_args(words[1:])
            experiment = cli._SUBCOMMANDS[args.subcommand][0]
            apply_overrides(ExperimentConfig(experiment), args.set or [])
            shown.add(args.subcommand)
        assert shown == set(cli._SUBCOMMANDS)
