"""The README's library tour runs as written and shows what its comments say."""

import math
import os
import re

import numpy as np

from ltvobs.lyapunov import nonstable_dimension

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _tour_blocks():
    """The ```python blocks of the README's "Library tour" section, in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_tour_runs():
    blocks = _tour_blocks()
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, README, "exec"), ns)
    # est.exponents  # array([ 0.3, -2.0])
    assert np.allclose(ns["est"].exponents, [0.3, -2.0], atol=1e-9)
    assert nonstable_dimension(ns["est"]) == 1
    assert ns["rep"].ok
    assert ns["stack"].nu == 2 and ns["so"].ok
    assert math.isfinite(ns["res"].t_f)
