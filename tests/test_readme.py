"""The README's library section against the package: its quickstart runs,
every name the package exports is documented there, and the names it
leaves out still import from their own modules."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hanoilang

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Public names that are imported from their module, not from the package.
UNEXPORTED = {
    "constructions": ("BFS_MAX_DISCS", "PEG_PAIRS", "BfsResult", "CapExceeded"),
    "grammar": ("Derivation", "Grammar", "GrammarError", "NoApplicableProduction", "Production",
                "StepLimitExceeded", "format_form"),
    "hanoi": ("HanoiNonterminal", "InvalidDiscCount", "MoveParseError", "ValidationReport",
              "move_at", "state_at"),
    "pda": ("DeterminismReport", "EmptyStack", "NondeterministicPda", "Pda", "PdaError",
             "RunOutcome", "RunTrace", "step"),
}


def test_quickstart_runs():
    (block,) = re.findall(r"^## Library quickstart\n.*?^```python\n(.*?)^```", README,
                          flags=re.M | re.S)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves_and_is_documented():
    for name in hanoilang.__all__:
        assert getattr(hanoilang, name) is not None
        assert re.search(rf"\b{name}\b", README), f"{name} is exported but not in README.md"


def test_a_bare_import_loads_nothing_until_a_name_or_submodule_is_asked_for():
    # In a fresh interpreter: this one has long since loaded every module.
    probe = """
import sys, hanoilang
print(*sorted(name for name in sys.modules if name.startswith("hanoilang")))
print(*(getattr(hanoilang, name).__module__ for name in hanoilang.__all__))
print(*(getattr(hanoilang, name).__name__ for name in sys.argv[1:]))
"""
    submodules = ["cli", *UNEXPORTED]
    proc = subprocess.run([sys.executable, "-c", probe, *submodules], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "hanoilang",
        " ".join(getattr(hanoilang, name).__module__ for name in hanoilang.__all__),
        " ".join(f"hanoilang.{module}" for module in submodules),
    ]


@pytest.mark.parametrize("module", sorted(UNEXPORTED))
def test_names_left_out_of_the_package_import_from_their_module(module):
    namespace = importlib.import_module(f"hanoilang.{module}")
    for name in UNEXPORTED[module]:
        assert hasattr(namespace, name), f"hanoilang.{module}.{name} is gone"
