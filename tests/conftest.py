"""Shared scenario builders, the receiver-membership reference and the
acceptance-line terminal summary."""

import math
import os
import signal

import numpy as np
import pytest

from ductflow import DuctChannelConfig, ReceiverVolume

#: One line per acceptance criterion, echoed after the test run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_channel(radius=10e-6, diffusion=1e-10, mean_velocity=1e-3):
    return DuctChannelConfig(radius_a=radius, diffusion_D=diffusion,
                             mean_velocity=mean_velocity)


def make_receiver(radius=10e-6, distance=200e-6, cphi=math.pi / 2):
    """Receiver scaled with the duct: c_x = c_r = a/2, spanning a quarter turn."""
    return ReceiverVolume(axial_distance_d=distance, extent_cx=radius / 2,
                          extent_cr=radius / 2, extent_cphi=cphi)


def point_in_receiver(rx: ReceiverVolume, x, r, phi, radius_a: float):
    """Whether the point(s) ``(x, r, phi)`` lie inside the receiver volume.

    The tests' reference for the engine's receiver test.  The duct radius is
    passed explicitly because the radial band ``a - c_r <= r <= a`` is
    anchored at the wall.  Accepts scalars or broadcastable arrays; azimuths
    must lie in ``[-pi, pi]`` (the closed lower end tolerates ``arctan2``
    returning exactly ``-pi``).
    """
    x_arr = np.asarray(x, dtype=float)
    r_arr = np.asarray(r, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("radial position must be non-negative")
    if np.any(phi_arr < -math.pi) or np.any(phi_arr > math.pi):
        raise ValueError("azimuth must lie in [-pi, pi]")
    inside = (
        (np.abs(x_arr - rx.axial_distance_d) <= rx.extent_cx / 2.0)
        & (r_arr >= radius_a - rx.extent_cr)
        & (r_arr <= radius_a)
        & (np.abs(phi_arr) <= rx.extent_cphi / 2.0)
    )
    if np.ndim(x) == 0 and np.ndim(r) == 0 and np.ndim(phi) == 0:
        return bool(inside)
    return inside


def raise_in_worker(*args):
    """Stands in for ``particles._run_block``: a worker that raises."""
    raise RuntimeError("worker failed")


def exit_in_worker(*args):
    """Stands in for ``particles._run_block``: a worker process that dies."""
    os._exit(1)


def kill_in_worker(*args):
    """Stands in for ``particles._run_block``: a worker process killed by a signal."""
    os.kill(os.getpid(), signal.SIGKILL)


class Unpicklable(Exception):
    """An exception that ``pickle`` refuses."""

    def __reduce__(self):
        raise TypeError("Unpicklable cannot be pickled")


def unpicklable_in_worker(*args):
    """Stands in for ``particles._run_block``: a worker that raises what cannot be pickled."""
    raise Unpicklable("worker failed")


@pytest.fixture
def narrow_channel():
    return make_channel(radius=10e-6)


@pytest.fixture
def wide_channel():
    return make_channel(radius=200e-6)


@pytest.fixture
def wide_flow_only():
    return make_channel(radius=200e-6, diffusion=0.0)
