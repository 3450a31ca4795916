"""Link-utilization accounting (Figure 13's probe)."""

from repro.hardware.platform import HOST
from repro.sim.engine import simulate_batch
from repro.sim.mechanisms import GpuDemand, Mechanism
from repro.sim.utilization import batch_utilization


def _demands(platform, remote_each=5e6, host=2e6):
    demands = []
    for dst in platform.gpu_ids:
        vols = {HOST: host}
        for src in platform.topology.peers(dst):
            vols[src] = remote_each
        demands.append(GpuDemand(dst=dst, volumes=vols))
    return demands


def test_fem_utilization_higher_than_naive(platform_c):
    demands = _demands(platform_c)
    fem = simulate_batch(platform_c, demands, Mechanism.FACTORED)
    naive = simulate_batch(platform_c, demands, Mechanism.PEER_NAIVE)
    u_fem = batch_utilization(platform_c, fem)
    u_naive = batch_utilization(platform_c, naive)
    assert u_fem.pcie > u_naive.pcie
    assert u_fem.nvlink > u_naive.nvlink


def test_utilization_bounded(platform_a):
    demands = _demands(platform_a)
    for mech in (Mechanism.FACTORED, Mechanism.PEER_NAIVE, Mechanism.MESSAGE):
        util = batch_utilization(platform_a, simulate_batch(platform_a, demands, mech))
        assert 0.0 <= util.pcie <= 1.0
        assert 0.0 <= util.nvlink <= 1.0


def test_no_traffic_zero_utilization(platform_a):
    report = simulate_batch(platform_a, [], Mechanism.FACTORED)
    util = batch_utilization(platform_a, report)
    assert util.pcie == 0.0 and util.nvlink == 0.0


def test_host_only_traffic_pcie_only(platform_a):
    demands = [GpuDemand(dst=g, volumes={HOST: 4e6}) for g in platform_a.gpu_ids]
    report = simulate_batch(platform_a, demands, Mechanism.FACTORED)
    util = batch_utilization(platform_a, report)
    assert util.pcie > 0.5
    assert util.nvlink == 0.0
