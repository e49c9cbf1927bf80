"""CLI smoke tests (``python -m repro ...``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("flag", ["--tasks", "--pages", "--rounds"])
    def test_storm_shape_below_one_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["storm", "--quick", "--arch", "generic", flag, "0"])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["faultsweep", "races"])
    @pytest.mark.parametrize("seed", ["-1", "0x100000000",
                                      "0x1FFFFFFFF"])
    def test_seed_outside_32_bits_exits_2(self, command, seed, capsys):
        """Every cell seed masks to 32 bits, so a base outside them
        would alias another base's cells."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--quick", "--seed", seed])
        assert excinfo.value.code == 2
        assert "must be in [0, 2**32)" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0", "0xFFFFFFFF", "64023"])
    def test_seed_inside_32_bits_parses(self, seed):
        args = build_parser().parse_args(["races", "--seed", seed])
        assert args.seed == int(seed, 0)

    @pytest.mark.parametrize("command", ["check", "faultsweep", "races"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_known_commands(self):
        parser = build_parser()
        for command in ("machines", "demo", "fault-trace", "show",
                        "bench", "check"):
            args = parser.parse_args([command])
            assert args.command == command


class TestCommands:
    def test_machines_lists_all_presets(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("MicroVAX II", "IBM RT PC", "SUN 3/160",
                     "Encore Multimax"):
            assert name in out

    def test_demo_runs_on_default_machine(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "COPY-ON-WRITE" in out
        assert "cow_faults" in out

    def test_demo_on_named_machine(self, capsys):
        assert main(["demo", "--machine", "IBM RT PC"]) == 0
        assert "rt_pc" in capsys.readouterr().out

    def test_unknown_machine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--machine", "PDP-11"])
        assert excinfo.value.code == 2

    def test_fault_trace_narrates(self, capsys):
        assert main(["fault-trace"]) == 0
        out = capsys.readouterr().out
        assert "zero-fill fault" in out
        assert "shadow created: True" in out

    def test_bench_quick(self, capsys):
        assert main(["bench", "--table", "7-2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 7-2" in out

    def test_show_renders_structures(self, capsys):
        assert main(["show"]) == 0
        out = capsys.readouterr().out
        assert "address map:" in out
        assert "sharing map" in out
        assert "resident page queues:" in out

    def test_bench_table_7_1(self, capsys):
        assert main(["bench", "--table", "7-1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "zero fill 1K" in out
        assert "fork 256K" in out

    def test_check_lint_only(self, capsys):
        assert main(["check", "--lint-only"]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out

    def test_check_single_arch_sweep(self, capsys):
        assert main(["check", "--arch", "generic"]) == 0
        out = capsys.readouterr().out
        assert "3/3 cells passed" in out
