import pytest
from hypothesis import settings

from zipstrata import hasse, rootdata, zipdatum
from zipstrata.zipdatum import gl_zip_datum

# every @given test draws the same examples on every run, and no example
# database carries draws from one run into the next
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# every table the library keeps for the life of the process
PROCESS_CACHES = (
    rootdata._GL_DATA,
    rootdata._GENERIC_SYSTEMS,
    rootdata._GENERIC_LATTICES,
    zipdatum._WEYL_GROUPS,
    zipdatum._SIGMAS,
    zipdatum._ZIP_DATA,
    hasse._COROOT_ROWS,
)


@pytest.fixture(autouse=True)
def private_data():
    """Each test starts from empty process caches, so it builds its own root
    data, Weyl groups and zip data: some tests mutate a datum, or patch a
    method whose results a shared datum would already hold in its memos."""
    for cache in PROCESS_CACHES:
        cache.clear()


@pytest.fixture(scope="session")
def zd22():
    """GL_4 datum of signature (2,2)."""
    return gl_zip_datum(4, 2)


@pytest.fixture(scope="session")
def zd32():
    """GL_5 datum of signature (3,2)."""
    return gl_zip_datum(5, 3)


@pytest.fixture(scope="session")
def zd42():
    """GL_6 datum of signature (4,2)."""
    return gl_zip_datum(6, 4)
