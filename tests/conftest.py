import time

import pytest

from quadsys import catalog, construct_rdsqs_4v, verify_star_point


@pytest.fixture(scope="session")
def star28():
    return catalog.sqs28_star()


@pytest.fixture
def star_point_proofs(monkeypatch):
    """The points ``verify_star_point`` is called on during the test."""
    points = []

    def counted(d, cert):
        points.append(cert.point)
        return verify_star_point(d, cert)

    monkeypatch.setattr("quadsys.star.verify_star_point", counted)
    return points


@pytest.fixture(scope="session")
def assembly112(star28):
    """The fully verified RDSQS(112); built once, wall time recorded."""
    t0 = time.perf_counter()
    asm = construct_rdsqs_4v(star28)
    asm.build_seconds = time.perf_counter() - t0
    return asm
