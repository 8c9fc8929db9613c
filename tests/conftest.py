import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "long: long-tier acceptance items (about 20 s in all on 2 cores, run by default)"
    )
