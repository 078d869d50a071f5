"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_starts_in_plus():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    expect = np.zeros(names["atoms"].n)
    expect[0] = 1.0
    np.testing.assert_allclose(names["td"].amplitudes, expect, rtol=0, atol=1e-12)
