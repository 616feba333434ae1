"""Fixtures shared across test modules."""

from pathlib import Path

import pytest

from repro.lint.project import Project


@pytest.fixture(scope="session")
def repo_project() -> Project:
    """The real tree's default lint scan, read and parsed once per session.

    Lint runs may share it: the engine keeps its per-run state to itself.
    """
    return Project.from_root(Path(__file__).resolve().parent.parent)
