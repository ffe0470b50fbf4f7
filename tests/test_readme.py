"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

from percopick import Micrograph, write_image

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, code) for each python block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(tmp_path, monkeypatch, line, code):
    # the examples read micrograph.pgm from the working directory: a seeded
    # 16-bit frame, large enough for the default windows after two passes
    pixels = np.random.default_rng(11).random((320, 320)) * 65535
    write_image(Micrograph(pixels), tmp_path / "micrograph.pgm", maxval=65535)
    monkeypatch.chdir(tmp_path)
    exec(compile("\n" * line + code, str(README), "exec"), {"__name__": "__readme__"})
