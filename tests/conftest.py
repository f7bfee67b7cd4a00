import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which a child process is left, running or not
    reaped: ``train`` forks a worker and must end it on every path."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({f'pid {pid}, exited' if pid else 'running'})")
