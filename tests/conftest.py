import io
import os
from pathlib import Path

import pytest

from tidmine.dataset import load_transactions

# Nine-transaction worked example used throughout the golden tests.
GOLDEN_TEXT = """\
I1 I2 I5
I2 I4
I2 I4
I1 I2 I4
I1 I3
I2 I3
I1 I3
I1 I2 I3 I5
I1 I2 I3
"""


@pytest.fixture
def golden_db():
    return load_transactions(io.StringIO(GOLDEN_TEXT))


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "baskets.txt"
    path.write_text(GOLDEN_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def src_env():
    """This process's environment with the checkout's src/ first on
    PYTHONPATH, so child interpreters import the code under test."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env
