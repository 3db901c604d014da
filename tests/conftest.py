import pytest

from falcon import fixtures
from fixture_builders import build_audit_fixture


@pytest.fixture(scope="session")
def corpus():
    return fixtures.build_fixture_corpus()


@pytest.fixture(scope="session")
def audit_fixture():
    return build_audit_fixture()
