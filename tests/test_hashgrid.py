"""Tests for ``tools/hashgrid.py``, the bitwise-regression grid: equal
runs hash equal, and a one-ulp change shows up in exactly its rows."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nsmc

_PATH = Path(__file__).resolve().parents[1] / "tools" / "hashgrid.py"
_spec = importlib.util.spec_from_file_location("hashgrid", _PATH)
hashgrid = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = hashgrid
_spec.loader.exec_module(hashgrid)

KEYS = ("chain-n3/kalman/seed1", "indep-n5/bpf-N100-ess0.5/seed2")


@pytest.fixture(scope="module")
def rows():
    by_key = {row.key: row for row in hashgrid.grid()}
    return [by_key[key] for key in KEYS]


def test_grid_keys_are_unique_and_cover_the_study():
    keys = [row.key for row in hashgrid.grid()]
    assert len(keys) == len(set(keys))
    assert {
        "study-chain-n100/seed1",
        "study-indep-n50/seed3",
        "chain-n100/kalman-T40-warm/seed3",
        "chain-n3/fapf-N100-T40/seed1",
    } <= set(keys)


def test_two_runs_hash_equal(rows):
    first = hashgrid.hash_rows(nsmc, rows)
    assert list(first) == list(KEYS)
    assert first == hashgrid.hash_rows(nsmc, rows)
    assert hashgrid.differing(first, dict(first)) == []


def test_a_planted_one_ulp_change_differs_in_exactly_its_rows(rows, monkeypatch):
    before = hashgrid.hash_rows(nsmc, rows)
    bootstrap_pf = nsmc.bootstrap_pf

    def planted(*args, **kwargs):
        out = bootstrap_pf(*args, **kwargs)
        means = out.filter_means.copy()
        means[-1, 0] = np.nextafter(means[-1, 0], np.inf)
        return dataclasses.replace(out, filter_means=means)

    monkeypatch.setattr(nsmc, "bootstrap_pf", planted)
    after = hashgrid.hash_rows(nsmc, rows)
    assert hashgrid.differing(after, before) == [KEYS[1]]


def test_rows_only_one_side_has_differ():
    assert hashgrid.differing({"a": "1", "b": "2"}, {"b": "2", "c": "3"}) == ["a", "c"]
