import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from priorscan import contour, ingest_timeseries
from rw1_experiment import synth_counts

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def counts_csv(tmp_path_factory):
    """Synthetic 192-month count series written as a one-column CSV."""
    counts = synth_counts()
    path = tmp_path_factory.mktemp("data") / "synthetic_counts.csv"
    path.write_text("count\n" + "".join(f"{int(c)}\n" for c in counts))
    return path


@pytest.fixture(scope="session")
def model192(counts_csv):
    return ingest_timeseries(counts_csv)


@pytest.fixture(scope="session")
def model96(counts_csv):
    return ingest_timeseries(counts_csv, window="last96")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def cold_contours():
    """Every test traces its contours afresh, as a new process would: a test that
    patches the solver must not get a grid an earlier test cached."""
    contour._trace.cache_clear()
    yield
    contour._trace.cache_clear()
