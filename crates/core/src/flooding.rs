//! Round-robin flooding: the deterministic baseline.
//!
//! Every node cycles through its neighbors in a fixed round-robin order,
//! initiating one exchange per round and merging everything it hears.
//! Completes one-to-all broadcast in `O(Δ + D·Δ)`-ish time — good when
//! `Δ` is small, hopeless on high-degree graphs, which is exactly the
//! gap the paper's algorithms close.

use gossip_sim::{Context, Exchange, Protocol, Scheduling, SharedRumorSet, SimConfig, Simulator};
use latency_graph::{Graph, NodeId};

use crate::common::{BroadcastOutcome, Goal};

/// Configuration for flooding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FloodingConfig {
    /// Round cap (0 means the simulator default).
    pub max_rounds: u64,
}

/// Per-node flooding state.
#[derive(Clone, Debug)]
pub struct FloodingNode {
    /// Rumors currently known.
    pub rumors: SharedRumorSet,
    cursor: usize,
}

impl FloodingNode {
    /// Creates a node knowing only its own rumor.
    pub fn new(id: NodeId, n: usize) -> FloodingNode {
        FloodingNode {
            rumors: SharedRumorSet::singleton(n, id),
            cursor: 0,
        }
    }
}

impl Protocol for FloodingNode {
    // Dense round-robin flooding initiates every round; the on-demand
    // counterpart is [`crate::sparse::SparseFloodNode`].
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = SharedRumorSet;

    fn payload(&self) -> SharedRumorSet {
        self.rumors.snapshot()
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        let i = self.cursor % d;
        self.cursor += 1;
        ctx.initiate_nth(i);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<SharedRumorSet>) {
        self.rumors.union_with(&x.payload);
    }
}

fn sim_config(config: &FloodingConfig, seed: u64) -> SimConfig {
    let mut c = SimConfig {
        seed,
        ..SimConfig::default()
    };
    if config.max_rounds > 0 {
        c.max_rounds = config.max_rounds;
    }
    c
}

/// One-to-all broadcast from `source` by flooding.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn broadcast(
    g: &Graph,
    source: NodeId,
    config: &FloodingConfig,
    seed: u64,
) -> BroadcastOutcome {
    assert!(source.index() < g.node_count(), "source out of range");
    let goal = Goal::Broadcast(source);
    let out = Simulator::new(g, sim_config(config, seed))
        .run(FloodingNode::new, |nodes: &[FloodingNode], _| {
            goal.met_by_all(nodes.iter().map(|p| &p.rumors))
        });
    BroadcastOutcome::from_parts(
        out.rounds,
        out.reason,
        out.metrics,
        out.nodes
            .into_iter()
            .map(|p| p.rumors.into_inner())
            .collect(),
    )
}

/// All-to-all dissemination by flooding.
pub fn all_to_all(g: &Graph, config: &FloodingConfig, seed: u64) -> BroadcastOutcome {
    let goal = Goal::AllToAll;
    let out = Simulator::new(g, sim_config(config, seed))
        .run(FloodingNode::new, |nodes: &[FloodingNode], _| {
            goal.met_by_all(nodes.iter().map(|p| &p.rumors))
        });
    BroadcastOutcome::from_parts(
        out.rounds,
        out.reason,
        out.metrics,
        out.nodes
            .into_iter()
            .map(|p| p.rumors.into_inner())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::{generators, metrics};

    #[test]
    fn path_broadcast_close_to_diameter() {
        let g = generators::path(20);
        let o = broadcast(&g, NodeId::new(0), &FloodingConfig::default(), 1);
        assert!(o.completed());
        let d = metrics::weighted_diameter(&g);
        // Degree ≤ 2 ⇒ flooding is within a small factor of D.
        assert!(
            o.rounds >= d && o.rounds <= 3 * d,
            "rounds {} vs D {d}",
            o.rounds
        );
    }

    #[test]
    fn clique_broadcast_fast_via_bidirectional_pull() {
        // In the paper's model every exchange is bidirectional, so even
        // deterministic flooding benefits from being *pulled*: source 0
        // is everyone's first round-robin target and broadcast finishes
        // in one exchange.
        let g = generators::clique(64);
        let flood = broadcast(&g, NodeId::new(0), &FloodingConfig::default(), 1);
        assert!(flood.completed());
        assert_eq!(flood.rounds, 1);
    }

    #[test]
    fn hidden_fast_edge_costs_delta_rounds() {
        // Theorem 6's phenomenon: on the gadget, the right side is only
        // usefully reachable over the one hidden fast edge; a
        // deterministic sweep (or the slow edges of latency 2Δ) costs
        // Ω(Δ) rounds either way.
        let delta = 16;
        let (g, gd) = latency_graph::generators::theorem6_network(2 * delta, delta, 3);
        let o = all_to_all(&g, &FloodingConfig::default(), 1);
        assert!(o.completed());
        assert!(
            o.rounds >= delta as u64,
            "must pay Ω(Δ): rounds = {}, Δ = {delta}",
            o.rounds
        );
        let _ = gd;
    }

    #[test]
    fn all_to_all_fills_everyone() {
        let g = generators::grid(4, 5);
        let o = all_to_all(&g, &FloodingConfig::default(), 3);
        assert!(o.completed());
        assert!(o.rumors.iter().all(gossip_sim::RumorSet::is_full));
    }

    #[test]
    fn flooding_is_deterministic() {
        let g = generators::connected_erdos_renyi(30, 0.2, 1);
        let a = broadcast(&g, NodeId::new(3), &FloodingConfig::default(), 0);
        let b = broadcast(&g, NodeId::new(3), &FloodingConfig::default(), 99);
        // Flooding ignores randomness entirely: same rounds for any seed.
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn cap_respected() {
        let g = generators::path(50);
        let cfg = FloodingConfig { max_rounds: 5 };
        let o = broadcast(&g, NodeId::new(0), &cfg, 0);
        assert!(!o.completed());
        assert_eq!(o.rounds, 5);
    }
}
