"""Every demo runs to the end against the current API."""

import contextlib
import io
import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, monkeypatch, path):
    # report_pipeline.py writes its reports under tempfile.mkdtemp()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
