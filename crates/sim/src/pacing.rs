//! The engine's scheduling semantics as a reusable **pacing contract**.
//!
//! The simulator's round loop ([`Simulator::run`]) owns four per-node
//! resources: the protocol instance, a seeded RNG, the one-slot pending
//! initiation, and the graph-backed callback view ([`Context`]). A
//! [`NodePacer`] bundles exactly those resources for *one* node so that
//! an external driver — the `gossip-net` runtime's `NetRunner`, a
//! future trace replayer — can run unmodified [`Protocol`]
//! implementations under the paper's discipline without reimplementing
//! (or accidentally diverging from) the engine's semantics:
//!
//! * **RNG derivation** is shared verbatim: [`node_seed`] is the same
//!   `splitmix64(seed ^ splitmix64(node))` stream the engine gives node
//!   `i`, so a pacer-driven node draws identical random choices.
//! * **Context construction** goes through the same crate-internal
//!   constructor the engine uses — same adjacency slices, same
//!   `latency_known` gating, same one-initiation-per-round pending slot.
//! * **Callback order within a node** is the engine's: `on_start` once
//!   before round 0, then per round *deliveries → on_round →
//!   initiation launch* (the driver is responsible for the cross-node
//!   ordering; see DESIGN.md §11 for the loopback equivalence
//!   argument).
//!
//! [`Simulator::run`]: crate::engine::Simulator::run

use latency_graph::{Graph, Latency, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{splitmix64, Context, Exchange, Protocol, SimConfig};
use crate::Round;

/// The engine's per-node RNG seed: node `v` under master seed `seed`
/// gets the stream `StdRng::seed_from_u64(node_seed(seed, v))`. Public
/// so external drivers reproduce the simulator's randomness exactly.
pub fn node_seed(seed: u64, node: NodeId) -> u64 {
    let i = u64::try_from(node.index()).expect("node index fits u64");
    splitmix64(seed ^ splitmix64(i))
}

/// A launch decision returned by [`NodePacer::on_round`]: the protocol
/// chose to initiate an exchange with `peer` over an edge of latency
/// `latency` this round. Under the paper's model the exchange completes
/// (at both endpoints) `latency` rounds later, carrying payload
/// snapshots taken *now*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Initiation {
    /// The chosen neighbor.
    pub peer: NodeId,
    /// The latency of the connecting edge (from the graph, whether or
    /// not the protocol is allowed to observe it).
    pub latency: Latency,
}

/// One node's worth of the engine: protocol instance + seeded RNG +
/// pending-initiation slot + graph view, driven by an external pacer
/// loop instead of the simulator.
///
/// Drivers must respect the engine's per-node phase order each round:
/// deliver every due [`Exchange`] via [`deliver`](Self::deliver)
/// (oldest initiation first), then call [`on_round`](Self::on_round)
/// once, then snapshot payloads for any launched initiation. The
/// one-initiation-per-round discipline is structural — `on_round`
/// returns at most one [`Initiation`].
#[derive(Debug)]
pub struct NodePacer<'g, P: Protocol> {
    graph: &'g Graph,
    node: NodeId,
    size_hint: usize,
    latency_known: bool,
    rng: StdRng,
    pending: Option<(NodeId, u32)>,
    /// Wake-request slot ([`Context::wake_at`]); drained by
    /// [`take_wake`](Self::take_wake) so on-demand drivers can honor
    /// the engine's wakeup contract.
    wake: Option<Round>,
    protocol: P,
}

impl<'g, P: Protocol> NodePacer<'g, P> {
    /// Creates the pacer for `node`, deriving its RNG from
    /// `config.seed` exactly as the engine would. Only the model
    /// fields of `config` (`seed`, `latency_known`, `size_hint`) are
    /// consulted; scheduling fields (`max_rounds`, caps, `mode`) are
    /// the driver's business.
    pub fn new(graph: &'g Graph, node: NodeId, protocol: P, config: &SimConfig) -> Self {
        NodePacer {
            graph,
            node,
            size_hint: config.size_hint.unwrap_or(graph.node_count()),
            latency_known: config.latency_known,
            rng: StdRng::seed_from_u64(node_seed(config.seed, node)),
            pending: None,
            wake: None,
            protocol,
        }
    }

    /// The node this pacer drives.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Builds the engine-identical callback view and hands it to `f`
    /// along with the protocol.
    fn with_ctx<R>(&mut self, round: Round, f: impl FnOnce(&mut P, &mut Context<'_>) -> R) -> R {
        let NodePacer {
            graph,
            node,
            size_hint,
            latency_known,
            rng,
            pending,
            wake,
            protocol,
        } = self;
        let mut ctx = Context::new(
            *node,
            round,
            graph.node_count(),
            *size_hint,
            graph.neighbor_ids(*node),
            latency_known.then(|| graph.neighbor_latencies(*node)),
            rng,
            pending,
            wake,
        );
        f(protocol, &mut ctx)
    }

    /// Runs [`Protocol::on_start`]; call once, before round 0's
    /// [`on_round`](Self::on_round).
    pub fn on_start(&mut self) {
        self.with_ctx(0, P::on_start);
    }

    /// Delivers a completed exchange ([`Protocol::on_exchange`]) in
    /// round `round`. The driver is responsible for calling this only
    /// when the exchange is actually due (`initiated_at + ℓ = round`)
    /// and in the engine's order (older initiations first).
    pub fn deliver(&mut self, round: Round, exchange: &Exchange<P::Payload>) {
        self.with_ctx(round, |p, ctx| p.on_exchange(ctx, exchange));
    }

    /// Runs [`Protocol::on_round`] for `round` and returns the launch
    /// decision, if the protocol initiated. The edge latency is
    /// resolved from the validated adjacency index captured by
    /// [`Context::initiate`], exactly as the engine's phase 4 does.
    pub fn on_round(&mut self, round: Round) -> Option<Initiation> {
        self.with_ctx(round, P::on_round);
        let (peer, vi) = self.pending.take()?;
        let i = usize::try_from(vi).expect("adjacency index fits usize");
        let latency = self.graph.neighbor_latencies(self.node)[i];
        Some(Initiation { peer, latency })
    }

    /// Takes the wakeup request registered by the protocol's most
    /// recent callbacks ([`Context::wake_at`]), if any. Drivers pacing
    /// [`Scheduling::OnDemand`](crate::engine::Scheduling::OnDemand)
    /// protocols must collect this after each round's callbacks and
    /// step the node again at the returned round.
    pub fn take_wake(&mut self) -> Option<Round> {
        self.wake.take()
    }

    /// The node's current payload snapshot ([`Protocol::payload`]).
    pub fn payload(&self) -> P::Payload {
        self.protocol.payload()
    }

    /// The node's local termination flag ([`Protocol::is_done`]).
    pub fn is_done(&self) -> bool {
        self.protocol.is_done()
    }

    /// The driven protocol, for inspection.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Consumes the pacer, returning the protocol's final state.
    pub fn into_protocol(self) -> P {
        self.protocol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use latency_graph::generators;
    use rand::Rng;

    /// Records every RNG draw and the chosen peer, so engine-driven and
    /// pacer-driven instances can be compared draw for draw.
    struct Recorder {
        draws: Vec<u64>,
        peers: Vec<NodeId>,
    }

    impl Protocol for Recorder {
        type Payload = ();
        fn payload(&self) {}
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            let d = ctx.degree();
            let i = ctx.rng().random_range(0..d);
            self.draws.push(u64::try_from(i).expect("index fits u64"));
            let peer = ctx.neighbor_ids()[i];
            self.peers.push(peer);
            ctx.initiate_nth(i);
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
    }

    /// The pacer reproduces the engine's RNG stream and peer choices:
    /// same seed derivation, same context, same draws.
    #[test]
    fn pacer_matches_engine_rng_stream() {
        let g = generators::cycle(7);
        let config = SimConfig {
            seed: 0xDECAF,
            max_rounds: 5,
            ..SimConfig::default()
        };
        let engine_out = Simulator::new(&g, config).run(
            |_, _| Recorder {
                draws: Vec::new(),
                peers: Vec::new(),
            },
            |_, _| false,
        );
        for v in 0..g.node_count() {
            let node = NodeId::new(v);
            let mut pacer = NodePacer::new(
                &g,
                node,
                Recorder {
                    draws: Vec::new(),
                    peers: Vec::new(),
                },
                &config,
            );
            pacer.on_start();
            // The engine stops (MaxRounds) before round `max_rounds`'s
            // phase 3, so `on_round` runs for rounds 0..max_rounds.
            for round in 0..config.max_rounds {
                let init = pacer.on_round(round).expect("recorder always initiates");
                assert_eq!(g.latency(node, init.peer), Some(init.latency));
            }
            let p = pacer.into_protocol();
            assert_eq!(p.draws, engine_out.nodes[v].draws, "node {v} draw stream");
            assert_eq!(p.peers, engine_out.nodes[v].peers, "node {v} peer choices");
        }
    }

    /// `latency_known` gates `Context::latency_to` identically to the
    /// engine's configuration plumbing.
    #[test]
    fn latency_visibility_follows_config() {
        struct Probe {
            seen: Option<Option<Latency>>,
        }
        impl Protocol for Probe {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                let peer = ctx.neighbor_ids()[0];
                self.seen = Some(ctx.latency_to(peer));
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(3);
        for known in [false, true] {
            let config = SimConfig {
                latency_known: known,
                ..SimConfig::default()
            };
            let mut pacer = NodePacer::new(&g, NodeId::new(0), Probe { seen: None }, &config);
            assert!(pacer.on_round(0).is_none(), "probe never initiates");
            let seen = pacer.protocol().seen.expect("on_round ran");
            assert_eq!(seen.is_some(), known);
        }
    }
}
