import pytest

from spinchains import lr
from spinchains.chains import ChainSet
from spinchains.cli import VERIFY_CAP
from spinchains.verify import CHECKS, build_ranks

_BY_NAME = {check.__name__: check for check in CHECKS}


@pytest.fixture(autouse=True)
def empty_rectangle_memo():
    """Each test starts with lr's rectangle memo empty, so a test that patches
    `lr._count_tableaux` sees every count that its own calls make."""
    lr._rectangle_coefficient.cache_clear()


@pytest.fixture(scope="session")
def ranks():
    """Every scattered parameter up to rank VERIFY_CAP, as `spinchains verify`
    builds them; built once and shared by every registry check."""
    return build_ranks(VERIFY_CAP)


@pytest.fixture(scope="session")
def check_lines(ranks):
    """`check_lines(name)`: the (label, ok, detail) lines of the registry check
    `name` at VERIFY_CAP, exactly as `spinchains verify -n VERIFY_CAP` prints
    them.  Each check runs at most once per test session, however many tests
    read its lines; an unknown name raises KeyError."""
    cache = {}

    def lines_of(name):
        if name not in cache:
            cache[name] = list(_BY_NAME[name](ranks, VERIFY_CAP))
        return cache[name]

    return lines_of


@pytest.fixture
def chain_sets_built(monkeypatch):
    """The list of every ChainSet built while the test runs, in build order."""
    built = []
    post_init = ChainSet.__post_init__

    def counting(cs):
        built.append(cs)
        post_init(cs)

    monkeypatch.setattr(ChainSet, "__post_init__", counting)
    return built
