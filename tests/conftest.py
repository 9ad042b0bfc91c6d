"""Shared fixtures for the CPI2 test suite."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import shards
from repro.cluster.platform import get_platform
from repro.core.config import CpiConfig
from repro.experiments import workerpool
from repro.obs import set_default_observability
from repro.records import CpiSample, CpiSpec
from repro.testing import make_quiet_machine

# Tier-1 property tests are deterministic: a fixed search per test and no
# example database, so a failure one random search stored on one machine
# cannot turn every later run there red.  HYPOTHESIS_PROFILE=explore is the
# random search (5x the default example budget) that CI runs beside it.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=500,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def _no_orphaned_children():
    """The suite ends with no child process left to be orphaned.

    Both persistent pools are shut down the way their atexit hooks would;
    anything still alive after that is a leak, and fails the run here
    instead of lingering under PID 1.
    """
    yield
    workerpool.shutdown_pool()
    if shards._DEFAULT_POOL is not None:
        shards._DEFAULT_POOL.shutdown()
    assert multiprocessing.active_children() == []


@pytest.fixture(autouse=True)
def _fresh_default_observability():
    """Each test sees a pristine process-default Observability.

    CLI entry points swap the process-wide default (and ``soak`` enables
    the telemetry plane on it); without this reset those flags leak into
    later tests' scenario builds — e.g. a sharded run whose coordinator
    replica suddenly expects telemetry scrapes that its workers (which
    always build fresh defaults) never send.
    """
    set_default_observability(None)
    yield
    set_default_observability(None)


@pytest.fixture
def platform():
    """The reference platform used throughout the tests."""
    return get_platform("westmere-2.6")


@pytest.fixture
def machine():
    """A quiet (noise-free) machine on the reference platform."""
    return make_quiet_machine()


@pytest.fixture
def rng():
    """A seeded generator for tests that need controlled randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def config():
    """The paper's default CPI2 configuration."""
    return CpiConfig()


def make_sample(jobname="job", platforminfo="westmere-2.6", t=60,
                cpu_usage=1.0, cpi=1.0, taskname=None) -> CpiSample:
    """A CpiSample with convenient defaults (timestamp given in seconds)."""
    return CpiSample(
        jobname=jobname,
        platforminfo=platforminfo,
        timestamp=t * 1_000_000,
        cpu_usage=cpu_usage,
        cpi=cpi,
        taskname=taskname if taskname is not None else f"{jobname}/0",
    )


def make_spec(jobname="job", platforminfo="westmere-2.6", num_samples=1000,
              cpu_usage_mean=1.0, cpi_mean=1.0, cpi_stddev=0.1) -> CpiSpec:
    """A CpiSpec with convenient defaults."""
    return CpiSpec(
        jobname=jobname,
        platforminfo=platforminfo,
        num_samples=num_samples,
        cpu_usage_mean=cpu_usage_mean,
        cpi_mean=cpi_mean,
        cpi_stddev=cpi_stddev,
    )
