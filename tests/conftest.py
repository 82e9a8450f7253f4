import os
from unittest.mock import patch

import pytest

from idealis import run_default_checks


def capped(cap: int, build, *args):
    """build(*args) with IDEALIS_CAP set to cap for that call only, so the
    ring's lattice, built later, keeps the bound it has without the
    helper. patch.dict also works inside Hypothesis tests, which take no
    function-scoped monkeypatch."""
    with patch.dict(os.environ, IDEALIS_CAP=str(cap)):
        return build(*args)


@pytest.fixture(scope="session")
def default_checks():
    """One shared run of every structural check over the default corpus.

    Building the corpus and running the full battery takes several
    seconds, so the result is computed once per session.
    """
    return run_default_checks()
