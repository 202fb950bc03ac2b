"""Let the harmdist processes that tests start import this checkout's src/,
as the tests themselves do through ``pythonpath`` in pyproject.toml, and
spy on the packed LCS kernel, its mask source and the query profile."""

import importlib
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

lcs_mod = importlib.import_module("harmdist.lcs")


class PackedCalls(list):
    """The rows the packed kernel ran, by the number of lanes each
    advances, and in ``sources`` the mask source of each call."""

    def __init__(self):
        super().__init__()
        self.sources = []


@pytest.fixture
def packed_calls(monkeypatch):
    """Record each row the packed kernel runs, by the number of lanes it
    advances: a one-query call is one row over every lane, and a slice of
    n lines is n - 1 rows, each over the lanes after its own line.  Each
    call's ``mask_of`` goes to ``calls.sources``: the stepping function of
    ``_stepped_masks``, or the ``get`` of a table, whose dict is its
    ``__self__``."""
    calls = PackedCalls()
    real = lcs_mod._lcs_packed

    def spy(queries, mask_of, corpus):
        calls.extend(len(corpus) - start for _, start in queries)
        calls.sources.append(mask_of)
        return real(queries, mask_of, corpus)

    monkeypatch.setattr(lcs_mod, "_lcs_packed", spy)
    return calls


@pytest.fixture
def mask_calls(monkeypatch):
    """Record each build of the part masks of ``_stepped_masks``, which
    ``lcs_lens`` steps through and from which ``lcs_rows`` builds its
    table of masks: the packed text, the number of mask sets built from
    its planes (two: the high and the low parts), and the bytes they hold.
    The table's own masks are not counted here."""
    calls = []
    plane_masks = lcs_mod._plane_masks

    def counted(root, planes, values):
        masks = plane_masks(root, planes, values)
        calls[-1][1] += 1
        calls[-1][2] += sum((mask.bit_length() + 7) // 8 for mask in masks.values())
        return masks

    stepped_masks = lcs_mod._stepped_masks

    def spy(text, symbols):
        calls.append([text, 0, 0])
        return stepped_masks(text, symbols)

    monkeypatch.setattr(lcs_mod, "_plane_masks", counted)
    monkeypatch.setattr(lcs_mod, "_stepped_masks", spy)
    return calls


@pytest.fixture
def profile_calls(monkeypatch):
    """Record each profile built, by the number of strings it then
    measures: one string for each scalar ``lcs_len_bitparallel`` pair, and
    the corpus for each ``lcs_lens`` fallback; ``lcs_rows`` reaches
    profiles only through ``lcs_lens``."""
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
