import pytest

from bimotif import load_southern_women


@pytest.fixture(scope="session")
def davis():
    return load_southern_women()
