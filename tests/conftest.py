import re

import pytest

from spinchains import lr
from spinchains.chains import ChainSet
from spinchains.cli import VERIFY_CAP
from spinchains.verify import CHECKS, SPECS, check_params

# each per-parameter spec's name: its label's words joined by underscores
SPEC_NAMES = [re.sub(r"\W+", "_", label).strip("_") for label, _, _ in SPECS]
# every line's own name: a spec's name, for its one line of `check_params`,
# or a check's name, in `verify` order
NAMES = {name: check for check in CHECKS for name in (SPEC_NAMES if check is check_params else [check.__name__])}


@pytest.fixture(autouse=True)
def empty_lr_memos():
    """Each test starts with lr's rectangle and product memos empty, so a
    test that patches `lr._count_tableaux` or `lr._grow_candidates` sees
    every count and search that its own calls make."""
    lr._rectangle_coefficient.cache_clear()
    lr._product.cache_clear()


@pytest.fixture(scope="session")
def check_lines():
    """`check_lines(name)`: the (label, ok, detail) lines of the registry check
    `name` at VERIFY_CAP, exactly as `spinchains verify -n VERIFY_CAP` prints
    them; a spec's name gives that spec's one line.  Each check runs
    at most once per test session, however many tests read its lines; an
    unknown name raises KeyError."""
    cache = {}

    def lines_of(name):
        check = NAMES[name]
        if check not in cache:
            cache[check] = list(check(VERIFY_CAP))
        return [cache[check][SPEC_NAMES.index(name)]] if check is check_params else cache[check]

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
