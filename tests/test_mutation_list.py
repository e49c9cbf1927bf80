"""The mutant list stays runnable: every site matches the shipped tree
exactly once, an applied mutant touches only its copy, and
``results.json`` was written from this list (see mutation/README.md)."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTATION = ROOT / "mutation"

_spec = importlib.util.spec_from_file_location("mutation_mutants",
                                               MUTATION / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutants   # dataclasses look their module up
_spec.loader.exec_module(mutants)

MUTANTS = mutants.load()


def _digests() -> dict[str, str]:
    return {str(p.relative_to(ROOT)): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted((ROOT / "src").rglob("*.py"))}


@pytest.fixture(scope="module")
def shipped_digests() -> dict[str, str]:
    return _digests()


def test_the_list_has_30_to_50_unique_mutants(shipped_digests):
    ids = [m.id for m in MUTANTS]
    assert 30 <= len(ids) <= 50
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_site_matches_once_and_the_copy_parses(mutant, tmp_path):
    real = ROOT / mutant.file
    copy = tmp_path / mutant.file
    copy.parent.mkdir(parents=True)
    copy.write_bytes(real.read_bytes())
    mutants.apply_in(mutant, tmp_path)   # SiteError / SyntaxError
    assert copy.read_bytes() != real.read_bytes()


def test_applying_left_the_shipped_tree_alone(shipped_digests):
    assert _digests() == shipped_digests


SNIPPET = "def f(a):\n    g(a)\n    b = a + 1\n    return b\n"


@pytest.mark.parametrize("op, site, to, want", [
    ("delete-call", "g(a)", "", "    pass\n    b = a + 1\n"),
    ("replace-arg", "a + 1", "a * 2", "    b = (a * 2)\n"),
    ("shift-const", "1", "4096", "    b = a + (1 + 4096)\n"),
    ("swap", "g(a)", "b = a + 1", "    b = a + 1\n    g(a)\n"),
    ("return-early", "b = a + 1", "None", "    return None\n    b = a"),
])
def test_each_operator_makes_its_edit(op, site, to, want):
    mutant = mutants.Mutant("m", "x.py", "f", op, site, to, "")
    assert want in mutants.apply(mutant, SNIPPET)


def test_a_site_matching_twice_is_an_error():
    mutant = mutants.Mutant("twice", "x.py", "f", "delete-call",
                            "g()", "", "")
    with pytest.raises(mutants.SiteError, match="2 times"):
        mutants.apply(mutant, "def f():\n    g()\n    g()\n")


def test_results_were_written_from_this_list():
    results = json.loads((MUTATION / "results.json").read_text())
    assert results["schema"] == mutants.SCHEMA
    assert [row["id"] for row in results["mutants"]] == \
        [m.id for m in MUTANTS]
