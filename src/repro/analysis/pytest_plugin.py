"""Pytest integration for the runtime sanitizers.

Loaded from the repo-root ``conftest.py``.  Opt-in per test::

    @pytest.mark.sanitize
    def test_pingpong():
        tb = build_testbed()
        ...

Every :class:`~repro.cluster.testbed.Testbed` constructed while a
``sanitize``-marked test runs is watched automatically; at teardown the
simulator is drained (bounded, so a wedged scenario fails instead of
hanging) and :meth:`Sanitizer.assert_clean` turns any leaked skbuff, DMA
cookie, or pinned page into a test failure with acquire-site backtraces.

Tests that want the sanitizer object itself (e.g. to call ``check(strict=
True)`` or read per-channel pending counts) can accept the ``sanitizer``
fixture explicitly.

``@pytest.mark.racecheck`` parametrizes a test over same-timestamp
tie-break policies (FIFO plus seeded shuffles): every simulator the test
builds picks the active policy up through
``Simulator.default_tiebreak_factory``, so a test that asserts exact
counters under every policy has *demonstrated* its scenario is
schedule-race free.
"""

from __future__ import annotations

import pytest

#: drain bound at teardown; generously above any test scenario's event count
_QUIESCE_MAX_EVENTS = 10_000_000

#: tie-break policies a ``racecheck``-marked test runs under
_RACECHECK_POLICIES = ("fifo", "shuffle:1", "shuffle:2")


def pytest_generate_tests(metafunc):
    if metafunc.definition.get_closest_marker("racecheck") is None:
        return
    metafunc.fixturenames.append("_racecheck_policy")
    metafunc.parametrize("_racecheck_policy", _RACECHECK_POLICIES,
                         ids=lambda p: p.replace(":", ""))


@pytest.fixture
def _racecheck_policy(request):
    """Install the parametrized tie-break policy for the test's duration."""
    from repro.simkernel.tiebreak import SeededShuffleTieBreak, default_tiebreak

    spec = request.param
    if spec == "fifo":
        factory = None
    else:
        seed = spec.split(":", 1)[1]
        factory = lambda: SeededShuffleTieBreak(seed)  # noqa: E731
    with default_tiebreak(factory):
        yield spec


@pytest.fixture
def sanitizer(monkeypatch):
    """A :class:`Sanitizer` auto-attached to every Testbed the test builds."""
    from repro.analysis.sanitizers import Sanitizer
    from repro.cluster.testbed import Testbed

    san = Sanitizer()
    testbeds = []
    orig_init = Testbed.__init__

    def watching_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        san.watch_testbed(self)
        testbeds.append(self)

    # Patch the class, not build_testbed: test modules bind build_testbed
    # by value at import time (`from repro import build_testbed`).
    monkeypatch.setattr(Testbed, "__init__", watching_init)
    san._testbeds = testbeds
    return san


@pytest.fixture(autouse=True)
def _sanitize_marked_tests(request):
    """Autouse shim: ``@pytest.mark.sanitize`` pulls in the sanitizer."""
    if request.node.get_closest_marker("sanitize") is None:
        yield
        return
    san = request.getfixturevalue("sanitizer")
    yield
    for tb in san._testbeds:
        tb.sim.run(max_events=_QUIESCE_MAX_EVENTS)
    san.assert_clean()
