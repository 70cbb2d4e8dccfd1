import os
import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or a zombie:
    every forked probe-signal worker must be reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
