"""CLI smoke tests (``python -m repro ...``)."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.kernel import MachKernel


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

    @pytest.mark.parametrize("argv", [
        pytest.param(["check", "--jobs"], id="check"),
        pytest.param(["faultsweep", "--jobs"], id="faultsweep"),
        pytest.param(["races", "--jobs"], id="races"),
        # a zero budget would explore nothing and still report clean
        pytest.param(["races", "--explore", "--max-schedules"],
                     id="races-max-schedules"),
    ])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, argv, count, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [count])
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

    def test_trace_summary_counters_are_the_kernels(self, capsys,
                                                   monkeypatch):
        """Every counter line of ``trace --format=summary`` is a
        ``KernelStats`` field (or ``pmap_system.shootdowns``) of the
        traced kernel, and every non-zero one is printed."""
        kernels = []

        def traced_kernel(spec):
            kernels.append(MachKernel(spec))
            return kernels[-1]

        monkeypatch.setattr(cli, "MachKernel", traced_kernel)
        assert main(["trace", "--quick", "--format=summary"]) == 0
        out = capsys.readouterr().out
        header, _, rest = out.partition("distributions:\n")
        printed = {name: int(value) for name, value in
                   (line.split() for line in header.splitlines()[1:])}
        kernel, = kernels
        expected = dict(vars(kernel.stats),
                        shootdowns=kernel.pmap_system.shootdowns)
        assert printed == {name: value for name, value in
                           expected.items() if value}
        assert {"faults", "cow_faults", "shootdowns"} <= set(printed)
        assert rest.startswith("  fault_latency_us: n=")
        assert "\n  shadow_chain_depth: n=" in rest

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
