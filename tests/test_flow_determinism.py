"""The determinism pass: kernel code must not consult the real
world."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.determinism import check_module
from repro.analysis.flow import run_flow_passes

FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"


def _findings(source: str):
    return check_module("inline", ast.parse(textwrap.dedent(source)))


class TestKnownBad:
    def test_fixture_flags_clock_and_random(self):
        source = (FIXTURES / "wallclock.py").read_text()
        findings = check_module("fixture.wallclock", ast.parse(source))
        rules = {f.rule for f in findings}
        assert {"wall-clock", "unseeded-random"} <= rules

    def test_datetime_now(self):
        findings = _findings("""
            def stamp():
                return datetime.now()
        """)
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_from_time_import(self):
        findings = _findings("import time\nfrom time import sleep\n")
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_os_urandom_and_uuid4(self):
        findings = _findings("""
            def ids():
                return os.urandom(8), uuid.uuid4()
        """)
        assert [f.rule for f in findings] == [
            "nondeterministic-source", "nondeterministic-source"]

    def test_system_random_is_nondeterministic(self):
        findings = _findings("""
            def gen():
                return random.SystemRandom()
        """)
        assert [f.rule for f in findings] == ["nondeterministic-source"]


class TestScope:
    def test_bench_wall_clock_is_flagged(self, tmp_path):
        # bench reports simulated time only, so it is replayed code.
        bench = tmp_path / "bench"
        bench.mkdir()
        (tmp_path / "__init__.py").write_text("")
        (bench / "__init__.py").write_text("")
        (bench / "timer.py").write_text(
            "import time\n\n\n"
            "def elapsed():\n"
            "    return time.perf_counter()\n")
        report = run_flow_passes(tmp_path, "repro",
                                 passes=("determinism",))
        assert report.errors == []
        assert [(f.module, f.rule) for f in report.findings] == [
            ("repro.bench.timer", "wall-clock")]


class TestKnownGood:
    def test_clean_fixture(self):
        source = (FIXTURES / "clean.py").read_text()
        assert check_module("fixture.clean", ast.parse(source)) == []

    def test_seeded_random_is_fine(self):
        assert _findings("""
            def gen(seed):
                rng = random.Random(seed)
                return rng.random()
        """) == []

    def test_machine_clock_is_fine(self):
        assert _findings("""
            def charge(machine, us):
                machine.clock.charge(us)
                machine.clock.wait(us)
        """) == []
