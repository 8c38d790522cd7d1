import os

import pytest


@pytest.fixture(autouse=True)
def no_ambient_wacyl_config(monkeypatch):
    """Keep WACYL_* variables of the calling shell out of every config a
    test loads; a test that wants one sets it itself."""
    for key in list(os.environ):
        if key.startswith("WACYL_"):
            monkeypatch.delenv(key)
