"""Mid-flow capacity changes: the cohort engine matches the per-flow oracle.

``set_nic_capacity`` is the one rebalance trigger that arrives from
*outside* the flow population (fault injection while transfers are in
flight), so it exercises the cohort engine's reshare/settle machinery on
shares that did not change through a flow starting or completing. This
property test drives randomized workloads where capacity changes land
mid-flow and checks every completion time against the per-flow
engine, which recomputes each touched flow independently. The per-flow
engine is reached through a two-rack topology with every host left in rack
0: no path crosses a trunk, so it computes the flat model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.common.units import MB
from repro.simkit.core import Environment
from repro.simkit.network import FlowNetwork
from repro.topo import Topology

N_HOSTS = 4
CAP = 100 * MB
TOL = 1e-9  # seconds; ulp-level float drift only

flow_spec = st.tuples(
    st.integers(0, N_HOSTS - 1),  # src
    st.integers(0, N_HOSTS - 1),  # dst
    st.integers(1, 40),           # size in MB
    st.integers(0, 150),          # start time in ms
)

capacity_change = st.tuples(
    st.integers(0, N_HOSTS - 1),   # nic
    st.integers(10, 200),          # new capacity in MB/s
    st.integers(1, 400),           # when, in ms
)


def run_workload(flows, changes, engine):
    env = Environment()
    topology = Topology(n_racks=2, rack_uplink=1.0) if engine == "per-flow" else None
    net = FlowNetwork(env, fairness="equal-share", latency=0.0, topology=topology)
    nics = [net.add_nic(f"h{i}", CAP) for i in range(N_HOSTS)]
    finish = {}

    def starter(i, src, dst, size_mb, start_ms):
        yield env.timeout(start_ms / 1000.0)
        done = net.transfer(nics[src], nics[dst], size_mb * MB)
        yield done
        finish[i] = env.now

    def changer(nic, cap_mb, at_ms):
        yield env.timeout(at_ms / 1000.0)
        net.set_nic_capacity(nics[nic], cap_mb * MB)

    for i, (src, dst, size_mb, start_ms) in enumerate(flows):
        env.process(starter(i, src, dst, size_mb, start_ms))
    for nic, cap_mb, at_ms in changes:
        env.process(changer(nic, cap_mb, at_ms))
    env.run()
    assert not net._flows, "flows left dangling"
    return finish


@settings(max_examples=60, deadline=None)
@given(
    st.lists(flow_spec, min_size=1, max_size=10),
    st.lists(capacity_change, min_size=1, max_size=6),
)
def test_cohort_matches_legacy_under_capacity_changes(flows, changes):
    cohort = run_workload(flows, changes, "cohort")
    per_flow = run_workload(flows, changes, "per-flow")
    assert cohort.keys() == per_flow.keys()
    for i in cohort:
        assert cohort[i] == pytest.approx(per_flow[i], abs=TOL), (
            f"flow {i}: cohort={cohort[i]!r} per-flow={per_flow[i]!r}"
        )


def test_capacity_drop_slows_active_flow():
    """Sanity anchor: one flow, one squeeze, exact closed-form times."""
    finish = run_workload(
        [(0, 1, 100, 0)], [(0, 25, 500)], "cohort"
    )
    # 50 MB at 100 MB/s, then 50 MB at 25 MB/s
    assert finish[0] == pytest.approx(0.5 + 2.0, abs=TOL)


def test_capacity_raise_speeds_up_active_flow():
    finish = run_workload(
        [(0, 1, 100, 0)], [(1, 200, 500)], "cohort"
    )
    # downlink relief alone does nothing: the 100 MB/s uplink still binds
    assert finish[0] == pytest.approx(1.0, abs=TOL)
