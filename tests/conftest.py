"""Let the harmdist processes that tests start import this checkout's src/,
as the tests themselves do through ``pythonpath`` in pyproject.toml, and
spy on the one-vs-many and row forms of the LCS engine."""

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
    """Record each one-query run of the packed form, by its number of
    lanes."""
    calls = []
    real = lcs_mod._lcs_lens_packed

    def spy(qids, symbols, lengths, widths, lanes):
        calls.append(len(lengths))
        return real(qids, symbols, lengths, widths, lanes)

    monkeypatch.setattr(lcs_mod, "_lcs_lens_packed", spy)
    return calls


@pytest.fixture
def mask_calls(monkeypatch):
    """Record each set of prebuilt packed masks, for a column block of
    rows or a one-query call within the budget: the packed text, the
    symbols asked for, and the bytes the masks built hold."""
    calls = []
    real = lcs_mod._packed_masks

    def spy(lanes, symbols):
        symbols = list(symbols)
        peq = real(lanes, symbols)
        held = sum((mask.bit_length() + 7) // 8 for mask in peq.values())
        calls.append((lanes, symbols, held))
        return peq

    monkeypatch.setattr(lcs_mod, "_packed_masks", spy)
    return calls


@pytest.fixture
def profile_calls(monkeypatch):
    """Record each profile ``lcs_lens`` builds, by the number of strings
    it then measures; ``lcs_rows`` reaches profiles only through
    ``lcs_lens``."""
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
