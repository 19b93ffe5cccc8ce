from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from qclock import build_basis, build_pair

REPO_ROOT = Path(__file__).resolve().parent.parent
SPECTRA_DIR = REPO_ROOT / "spectra"


def count_fraction_constructions(monkeypatch):
    """A list that gets the arguments of every Fraction built from now on."""
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


@lru_cache(maxsize=None)
def cached_pair(dim):
    return build_pair(dim)


@lru_cache(maxsize=None)
def cached_basis(dim):
    return build_basis(cached_pair(dim))


@pytest.fixture
def pair5():
    return cached_pair(5)


@pytest.fixture
def basis5():
    return cached_basis(5)
