"""Let the harmdist processes that tests start import this checkout's src/,
as the tests themselves do through ``pythonpath`` in pyproject.toml, and
spy on the one-vs-many forms of the LCS engine."""

import importlib
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

lcs_mod = importlib.import_module("harmdist.lcs")


@pytest.fixture
def packed_calls(monkeypatch):
    """Record each run of the packed form, by its number of lanes."""
    calls = []
    real = lcs_mod._lcs_lens_packed

    def spy(qids, symbols, lengths, widths, lanes):
        calls.append(len(lengths))
        return real(qids, symbols, lengths, widths, lanes)

    monkeypatch.setattr(lcs_mod, "_lcs_lens_packed", spy)
    return calls


@pytest.fixture
def profile_calls(monkeypatch):
    """Record each profile ``lcs_lens`` builds, by the number of strings
    it then measures."""
    calls = []
    real = lcs_mod.lcs_profile

    def spy(q):
        lcs = real(q)
        calls.append(0)
        slot = len(calls) - 1

        def counted(s):
            calls[slot] += 1
            return lcs(s)

        return counted

    monkeypatch.setattr(lcs_mod, "lcs_profile", spy)
    return calls
