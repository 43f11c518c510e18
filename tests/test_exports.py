"""Every name a ``repro`` package lists in ``__all__`` resolves.

A definition deleted without its re-export leaves a stale ``__all__``
entry: ``from repro.x import *`` then raises ``AttributeError``.  ruff's
F822 flags it too, but this check runs wherever the tests run.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert [n for n in package.__all__ if not hasattr(package, n)] == []
