import pytest

from surfcount.bipartite import BipTable
from surfcount.maps import MapsTable
from surfcount.oracle import scan
from surfcount.triangulations import TriTable


@pytest.fixture(scope="session")
def maps_cc_12():
    return MapsTable("cc").fill(12)


@pytest.fixture(scope="session")
def maps_kz_12():
    return MapsTable("kz").fill(12)


@pytest.fixture(scope="session")
def bip_16():
    return BipTable().fill(16)


@pytest.fixture(scope="session")
def tri_15():
    return TriTable().fill(15)


@pytest.fixture(scope="session")
def oracle2():
    return scan(2)


@pytest.fixture(scope="session")
def oracle3():
    return scan(3)


@pytest.fixture(scope="session")
def oracle4():
    return scan(4)


@pytest.fixture(scope="session")
def oracle5():
    return scan(5)


@pytest.fixture(scope="session")
def oracle6():
    return scan(6)
