"""Churn engine + self-healing repair (repro.dynamic, DESIGN.md §3.9)."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_churn as oracle
from reference_churn import assert_same_network
from repro.analysis.validation import validate_spanner
from repro.core import SamplerParams, build_spanner
from repro.core.distributed import build_spanner_distributed
from repro.dynamic import (
    ChurnPlan,
    MutationLog,
    apply_churn,
    churn_sequence,
    repair_spanner,
)
from repro.dynamic.repair import RepairRun
from repro.errors import ConfigurationError
from repro.graphs import barabasi_albert, erdos_renyi, torus
from repro.local import EdgeRef
from repro.local.network import Network
from repro.store import load_spanner, save_spanner

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PARAMS = SamplerParams(k=2, h=2, seed=1)


def _mixed_plan(seed: int, rate: float, epochs: int = 1) -> ChurnPlan:
    return ChurnPlan(
        seed=seed,
        epochs=epochs,
        edge_removal=rate,
        edge_addition=rate / 2,
        node_crash=rate / 10,
        node_recovery=0.5,
    )


class TestChurnEngine:
    def test_apply_churn_is_deterministic(self, er_medium):
        plan = _mixed_plan(3, 0.1)
        a_net, a_log = apply_churn(er_medium, plan, epoch=0)
        b_net, b_log = apply_churn(er_medium, plan, epoch=0)
        assert a_net.fingerprint() == b_net.fingerprint()
        assert a_log == b_log
        assert a_log.removed_edges  # 10% of a 120-node gnp is never empty

    def test_epochs_draw_independent_coins(self, er_medium):
        plan = _mixed_plan(3, 0.1)
        _, log0 = apply_churn(er_medium, plan, epoch=0)
        _, log1 = apply_churn(er_medium, plan, epoch=1)
        assert log0.removed_edges != log1.removed_edges

    def test_log_chains_fingerprints(self, er_medium):
        plan = _mixed_plan(5, 0.08, epochs=3)
        steps = churn_sequence(er_medium, plan)
        assert steps[0][1].parent_fingerprint == er_medium.fingerprint()
        for (net_a, log_a), (_, log_b) in zip(steps, steps[1:]):
            assert log_a.child_fingerprint == net_a.fingerprint()
            assert log_a.child_fingerprint == log_b.parent_fingerprint

    def test_crash_isolates_and_recovery_reattaches(self):
        net = erdos_renyi(80, 0.1, seed=2)
        crash = ChurnPlan(seed=9, edge_removal=0.0, node_crash=0.6)
        after, log = apply_churn(net, crash, epoch=0)
        assert log.crashed
        for v in log.crashed:
            assert after.degree(v) == 0
        assert after.n == net.n  # the universe is fixed
        recover = ChurnPlan(seed=9, edge_removal=0.0, node_recovery=1.0)
        healed, rlog = apply_churn(after, recover, epoch=1)
        assert rlog.recovered
        for v in rlog.recovered:
            assert healed.degree(v) > 0
            assert after.degree(v) == 0  # recovered means previously isolated

    def test_added_edges_use_fresh_ids(self, er_medium):
        plan = ChurnPlan(seed=1, edge_removal=0.3, edge_addition=0.2)
        after, log = apply_churn(er_medium, plan, epoch=0)
        top = max(er_medium.edge_ids)
        assert log.added_edges
        for eid, u, v in log.added_edges:
            assert eid > top
            assert u <= v
        # no parallel edges: every (u, v) pair occurs once
        _, ep_u, ep_v = after.endpoints_flat()
        pairs = list(zip(ep_u.tolist(), ep_v.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_noop_epoch_returns_same_object(self, er_medium):
        plan = ChurnPlan(seed=1, edge_removal=0.0)
        after, log = apply_churn(er_medium, plan, epoch=0)
        assert after is er_medium
        assert log.is_noop
        assert log.parent_fingerprint == log.child_fingerprint

    def test_corruption_windows(self):
        plan = ChurnPlan(seed=4, epochs=5, corruption=((1, 3, 0.2),))
        assert plan.fault_plan(0).is_noop
        assert plan.fault_plan(1).corrupt_probability == 0.2
        assert plan.fault_plan(2).corrupt_probability == 0.2
        assert plan.fault_plan(3).is_noop
        # per-epoch seeds differ, so corruption coins never repeat
        assert plan.fault_plan(1).seed != plan.fault_plan(2).seed

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnPlan(edge_removal=1.5)
        with pytest.raises(ConfigurationError):
            ChurnPlan(epochs=0)
        with pytest.raises(ConfigurationError):
            ChurnPlan(corruption=((3, 3, 0.5),))
        with pytest.raises(ConfigurationError):
            ChurnPlan(corruption=((0, 2, 0.0),))


@st.composite
def churned_pair(draw):
    """A random small network plus one churn epoch over it."""
    n = draw(st.integers(min_value=8, max_value=60))
    p = draw(st.floats(min_value=0.05, max_value=0.3))
    net = erdos_renyi(n, p, seed=draw(st.integers(0, 1000)))
    plan = ChurnPlan(
        seed=draw(st.integers(0, 1000)),
        edge_removal=draw(st.sampled_from([0.0, 0.02, 0.1, 0.5])),
        edge_addition=draw(st.sampled_from([0.0, 0.05])),
        node_crash=draw(st.sampled_from([0.0, 0.05])),
        node_recovery=0.5,
    )
    return net, plan


class TestFingerprintProperty:
    @given(pair=churned_pair())
    @_SETTINGS
    def test_fingerprint_changes_iff_epoch_mutates(self, pair):
        """Network.fingerprint() moves exactly when the edge set does."""
        net, plan = pair
        after, log = apply_churn(net, plan, epoch=0)
        mutated = bool(log.removed_edges or log.added_edges)
        assert log.is_noop == (not mutated)
        if mutated:
            assert after.fingerprint() != net.fingerprint()
        else:
            assert after.fingerprint() == net.fingerprint()
        assert log.child_fingerprint == after.fingerprint()


def assert_same_epochs(network: Network, plan: ChurnPlan) -> None:
    """Run every epoch of ``plan`` on the package and on the oracle."""
    new = ref = network
    for epoch in range(plan.epochs):
        new, new_log = apply_churn(new, plan, epoch)
        ref, ref_log = oracle.apply_churn(ref, plan, epoch)
        assert new_log == ref_log
        assert new.name == ref.name
        assert_same_network(new, ref)


def _multigraph(n: int, seed: int, m: int) -> Network:
    """Parallel edges under scattered, unordered edge ids."""
    rng = random.Random(seed)
    pairs = [rng.sample(range(n), 2) for _ in range(m // 2)]
    pairs += pairs[: m - len(pairs)]  # every pair at least twice
    ids = rng.sample(range(10 * m + 1), len(pairs))
    return Network(n, [EdgeRef(eid, a, b) for eid, (a, b) in zip(ids, pairs)])


@st.composite
def churn_case(draw):
    """A graph of one of four kinds plus a plan of 1-3 epochs."""
    kind = draw(st.sampled_from(["gnp", "ba", "isolated", "multi"]))
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(0, 1000))
    if kind == "gnp":
        net = erdos_renyi(n, draw(st.sampled_from([0.05, 0.2, 0.6])), seed=seed)
    elif kind == "ba":
        net = barabasi_albert(n + 2, draw(st.integers(1, 2)), seed=seed)
    elif kind == "isolated":
        # edges only among the first half: the rest start isolated
        half = max(2, n // 2)
        end = st.integers(0, half - 1)
        pair = st.tuples(end, end).filter(lambda p: p[0] < p[1])
        pairs = draw(st.sets(pair, max_size=3 * half))
        net = Network.from_edge_pairs(n + 2, sorted(pairs))
    else:
        net = _multigraph(n + 2, seed, draw(st.integers(2, 3 * n)))
    rate = st.sampled_from([0.0, 0.05, 0.5, 1.0])
    plan = ChurnPlan(
        seed=draw(st.integers(0, 1000)),
        epochs=draw(st.integers(1, 3)),
        edge_removal=draw(rate),
        edge_addition=draw(rate),
        node_crash=draw(rate),
        node_recovery=draw(rate),
        recovery_degree=draw(st.integers(1, 5)),
    )
    return net, plan


class TestChurnOracle:
    """``apply_churn`` equals the per-edge loop it replaced
    (``tests/reference_churn.py``): logs, names, hashes and raw slots."""

    @given(case=churn_case())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_the_per_edge_oracle(self, case):
        assert_same_epochs(*case)

    def test_no_edges(self):
        plan = ChurnPlan(
            seed=3, epochs=2, edge_removal=1.0, edge_addition=1.0,
            node_crash=1.0, node_recovery=1.0,
        )
        for net in (Network(1, []), Network.from_edge_pairs(5, [])):
            after, log = apply_churn(net, plan, 0)
            assert after is net and log.is_noop and not log.recovered
            assert_same_epochs(net, plan)

    def test_everything_goes(self):
        # nodes 30..39 start isolated and recover onto the emptied ones
        base = erdos_renyi(30, 0.2, seed=1)
        net = Network.from_edge_pairs(
            40, [base.endpoints(eid) for eid in base.edge_ids]
        )
        for plan in (
            ChurnPlan(seed=2, epochs=2, edge_removal=1.0, node_recovery=0.5),
            ChurnPlan(seed=2, epochs=2, edge_removal=0.0, node_crash=1.0, node_recovery=0.5),
        ):
            after, log = apply_churn(net, plan, 0)
            assert len(log.removed_edges) == net.m
            assert after.m == len(log.added_edges)
            assert_same_epochs(net, plan)

    def test_crash_coins_only_for_nodes_with_edges(self):
        # nodes 4..9 start isolated; a certain crash takes only 0..3
        net = Network.from_edge_pairs(10, [(0, 1), (1, 2), (2, 3)])
        plan = ChurnPlan(seed=5, edge_removal=0.0, node_crash=1.0)
        _, log = apply_churn(net, plan, 0)
        assert log.crashed == (0, 1, 2, 3)
        assert_same_epochs(net, plan)

    def test_no_live_node_to_recover_onto(self):
        # every node with edges crashes, so the isolated ones find no one
        net = Network.from_edge_pairs(8, [(0, 1), (2, 3)])
        plan = ChurnPlan(seed=1, edge_removal=0.0, node_crash=1.0, node_recovery=1.0)
        after, log = apply_churn(net, plan, 0)
        assert after.m == 0 and not log.added_edges and not log.recovered
        assert_same_epochs(net, plan)

    def test_recovery_attaches_onto_emptied_nodes(self):
        # node 2 loses its only edge this epoch, yet stays a recovery
        # target: targets are the parent graph's nodes with edges
        net = Network.from_edge_pairs(4, [(1, 2)])
        plan = ChurnPlan(
            seed=0, edge_removal=1.0, node_recovery=1.0, recovery_degree=2
        )
        after, log = apply_churn(net, plan, 0)
        assert log.removed_edges == ((0, 1, 2),)
        assert log.recovered == (0, 3)
        assert {(u, v) for _e, u, v in log.added_edges} == {
            (0, 1), (0, 2), (1, 3), (2, 3)
        }
        assert_same_epochs(net, plan)

    def test_node_that_is_v_before_it_is_u(self):
        # node 1 is the v of row 0 and the u of row 1, and node 3 the v
        # of row 2 and the u of added rows: slices must follow row order
        net = Network.from_edge_pairs(6, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert net.incident(1) == (0, 1)
        plan = ChurnPlan(
            seed=4, epochs=3, edge_removal=0.3, edge_addition=1.0, node_recovery=1.0
        )
        assert_same_epochs(net, plan)
        after, _ = apply_churn(net, plan, 0)
        for v in range(after.n):
            assert list(after.incident(v)) == sorted(after.incident(v))


# The five-epoch chain of tests/data/churn_chain_pinned.json: the serving
# benchmark's churn rates on G(2000, 8/1999), captured with the per-edge
# engine the array passes replaced.
_PINNED = Path(__file__).parent / "data" / "churn_chain_pinned.json"
_PINNED_PLAN = ChurnPlan(
    seed=3, epochs=5, edge_removal=0.02, edge_addition=0.01,
    node_crash=0.002, node_recovery=0.5,
)


def _log_digest(log: MutationLog) -> str:
    payload = json.dumps([
        log.epoch, log.parent_fingerprint, log.child_fingerprint,
        log.removed_edges, log.added_edges, log.crashed, log.recovered,
    ])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _csr_digest(network: Network) -> str:
    indptr, inc = network.incidence_csr()
    digest = hashlib.sha256()
    digest.update(indptr.tobytes())
    digest.update(inc.tobytes())
    return digest.hexdigest()


class TestPinnedChain:
    def test_serving_rates_chain_is_unchanged(self):
        pinned = json.loads(_PINNED.read_text())
        net = erdos_renyi(pinned["n"], 8 / (pinned["n"] - 1), seed=pinned["graph_seed"])
        assert net.fingerprint() == pinned["base_fingerprint"]
        got = []
        for child, log in churn_sequence(net, _PINNED_PLAN):
            got.append({
                "epoch": log.epoch,
                "name": child.name,
                "m": child.m,
                "child_fingerprint": child.fingerprint(),
                "log_digest": _log_digest(log),
                "csr_digest": _csr_digest(child),
                "removed": len(log.removed_edges),
                "added": len(log.added_edges),
                "crashed": len(log.crashed),
                "recovered": len(log.recovered),
            })
        assert got == pinned["epochs"]


class TestRepair:
    @pytest.mark.parametrize(
        "family",
        [
            lambda: erdos_renyi(150, 0.08, seed=5),
            lambda: torus(12, 12),
            lambda: barabasi_albert(150, 3, seed=5),
        ],
        ids=["gnp", "torus", "ba"],
    )
    @pytest.mark.parametrize("rate", [0.02, 0.1, 0.5])
    def test_repair_equals_fresh_build(self, family, rate):
        net = family()
        parent = build_spanner(net, _PARAMS)
        child, log = apply_churn(net, _mixed_plan(7, rate), epoch=0)
        if log.is_noop:
            pytest.skip("epoch was a no-op at this rate")
        repaired = repair_spanner(parent, child, log)
        fresh = build_spanner(child, _PARAMS)
        assert repaired == fresh  # full equality: edges, trace, everything
        assert repaired.provenance == (net.fingerprint(),)
        validate_spanner(repaired)

    @given(
        seed=st.integers(0, 500),
        rate=st.sampled_from([0.02, 0.1, 0.3]),
        n=st.integers(min_value=20, max_value=80),
    )
    @_SETTINGS
    def test_repair_equals_rebuild_property(self, seed, rate, n):
        net = erdos_renyi(n, min(0.95, 8 / max(1, n - 1)), seed=seed)
        parent = build_spanner(net, _PARAMS)
        child, log = apply_churn(net, _mixed_plan(seed + 1, rate), epoch=0)
        if log.is_noop:
            return
        assert repair_spanner(parent, child, log) == build_spanner(child, _PARAMS)

    def test_repair_across_multi_epoch_chain(self):
        net = erdos_renyi(150, 0.08, seed=6)
        parent = build_spanner(net, _PARAMS)
        steps = churn_sequence(net, _mixed_plan(11, 0.05, epochs=3))
        final = steps[-1][0]
        logs = [log for _, log in steps]
        repaired = repair_spanner(parent, final, logs)
        assert repaired == build_spanner(final, _PARAMS)
        assert repaired.provenance == (net.fingerprint(),)

    def test_chained_repairs_accumulate_provenance(self):
        net = erdos_renyi(120, 0.08, seed=8)
        spanner = build_spanner(net, _PARAMS)
        fingerprints = []
        for epoch in range(3):
            fingerprints.append(net.fingerprint())
            net, log = apply_churn(net, _mixed_plan(13, 0.05, epochs=3), epoch)
            spanner = repair_spanner(spanner, net, log)
        assert spanner.provenance == tuple(fingerprints)
        assert spanner == build_spanner(net, _PARAMS)

    def test_repair_from_distributed_parent(self):
        """The store's cached artifacts are distributed builds; repair
        must accept them as parents just as well."""
        net = erdos_renyi(150, 0.08, seed=9)
        parent = build_spanner_distributed(net, _PARAMS)
        child, log = apply_churn(net, _mixed_plan(17, 0.05), epoch=0)
        repaired = repair_spanner(parent, child, log)
        assert repaired == build_spanner(child, _PARAMS)
        rebuilt = build_spanner_distributed(child, _PARAMS)
        assert repaired.edges == rebuilt.edges
        assert repaired.trace.signature() == rebuilt.trace.signature()
        assert repaired.messages is None  # repair meters nothing

    def test_repair_refuses_broken_chains(self, er_medium):
        parent = build_spanner(er_medium, _PARAMS)
        child, log = apply_churn(er_medium, _mixed_plan(23, 0.1), epoch=0)
        other, other_log = apply_churn(er_medium, _mixed_plan(29, 0.1), epoch=0)
        with pytest.raises(ConfigurationError):
            repair_spanner(parent, child, [])  # empty chain
        with pytest.raises(ConfigurationError):
            repair_spanner(parent, child, other_log)  # chain ends elsewhere
        grandchild, glog = apply_churn(child, _mixed_plan(31, 0.1), epoch=1)
        with pytest.raises(ConfigurationError):
            repair_spanner(parent, grandchild, glog)  # missing first link
        with pytest.raises(ConfigurationError):
            repair_spanner(parent, grandchild, [glog, log])  # wrong order

    def test_repair_refuses_wrong_params(self, er_medium):
        parent = build_spanner(er_medium, _PARAMS)
        child, log = apply_churn(er_medium, _mixed_plan(37, 0.1), epoch=0)
        with pytest.raises(ConfigurationError):
            RepairRun(child, SamplerParams(k=2, h=3, seed=1), parent=parent)


class TestNetworkMutated:
    def test_remove_unknown_eid_refused(self, path4):
        with pytest.raises(Exception):
            path4.mutated(remove=[999])

    def test_add_self_loop_refused(self, path4):
        with pytest.raises(Exception):
            path4.mutated(add=[(100, 2, 2)])

    def test_add_duplicate_eid_refused(self, path4):
        with pytest.raises(Exception):
            path4.mutated(add=[(0, 0, 3)])  # eid 0 survives

    def test_roundtrip_remove_then_add_back(self, er_medium):
        eid_row, ep_u, ep_v = er_medium.endpoints_flat()
        victim = er_medium.edge_ids[0]
        u, v = er_medium.endpoints(victim)
        without = er_medium.mutated(remove=[victim])
        assert without.m == er_medium.m - 1
        restored = without.mutated(add=[(victim, u, v)])
        assert restored.fingerprint() == er_medium.fingerprint()


class TestProvenanceSerialization:
    def test_provenance_roundtrips_through_store(self, tmp_path, er_medium):
        parent = build_spanner_distributed(er_medium, _PARAMS)
        child, log = apply_churn(er_medium, _mixed_plan(41, 0.1), epoch=0)
        repaired = repair_spanner(parent, child, log)
        path = tmp_path / "repaired.npz"
        save_spanner(path, repaired)
        loaded = load_spanner(path, child)
        assert loaded == repaired
        assert loaded.provenance == repaired.provenance == (er_medium.fingerprint(),)

    def test_fresh_builds_have_empty_provenance(self, er_medium, tmp_path):
        fresh = build_spanner_distributed(er_medium, _PARAMS)
        assert fresh.provenance == ()
        path = tmp_path / "fresh.npz"
        save_spanner(path, fresh)
        assert load_spanner(path, er_medium).provenance == ()
