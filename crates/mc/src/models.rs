//! The checked models: shipped protocol nodes wrapped into the
//! [`Model`] interface.
//!
//! Six model families cover the crate's property matrix:
//!
//! * [`nd_broadcast`] — push-pull broadcast with **adversarial** peer
//!   selection: every [`Context::choose`] branch is explored. Safety
//!   only (`latency-respected`, `at-most-once-delivery`); the choice
//!   adversary can legitimately starve progress (e.g. on `cycle4` it
//!   can pair 0↔1 and 2↔3 forever), so liveness is not claimed.
//! * [`rr_flood`] — deterministic round-robin flooding. No choice
//!   branches, so the nondeterminism is purely the fault schedule;
//!   this is the model that also carries `termination` (fault-free
//!   paths must reach all-full before the reference bound).
//! * [`lemma18_models`] — the Lemma 18 distributed termination check
//!   ([`CheckNode`]) over every interesting rumor configuration:
//!   fresh singletons, full dissemination, and full-except-one for
//!   every (holder, rumor) pair. Each configuration is a separate
//!   deterministic model compared against the centralized oracle.
//! * [`spanner_model`] — [`CheckNode`] traffic constrained to the
//!   Baswana–Sen spanner orientation, checking `spanner-out-degree`.
//! * [`rr_stream_model`] — the shipped round-robin streaming node
//!   ([`RrStreamNode`]) under adversarial peer selection, wrapped in
//!   a causal-knowledge [`StreamWitness`] and checked against
//!   `no-phantom-rumor`. Safety only, like `nd-broadcast`: the choice
//!   adversary can starve rumor completion.
//! * [`sparse_flood`] — the shipped on-demand flood
//!   ([`SparseFloodNode`], [`Scheduling::OnDemand`]): stepped only on
//!   deliveries and registered wakeups, exactly as `Simulator::run`
//!   steps it, with the wakeups part of every encoded state.
//!   Deterministic, so it carries `termination` like `rr-flood`.
//!
//! The broadcast and check model structs use **plain `fn` pointers**
//! as node factories so that [`BroadcastModel::with_node`] /
//! [`CheckModel::with_node`] can swap in a mutant node type (see
//! [`crate::mutants`]) while keeping the graph, bound, and property
//! set identical — the mutation suite checks the *protocol*, never a
//! differently-configured harness.
//!
//! [`Context::choose`]: gossip_sim::Context::choose

use std::borrow::Cow;
use std::collections::BTreeSet;

use gossip_core::flooding::FloodingNode;
use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_core::sparse::SparseFloodNode;
use gossip_core::stream::RrStreamNode;
use gossip_core::termination::{CheckNode, CheckPayload};
use gossip_core::{eid, rr_broadcast};
use gossip_sim::{
    CompactRumorSet, Context, Exchange, Protocol, Round, RumorSet, Scheduling, SharedRumorSet,
    SimConfig, Simulator, StopReason, StreamPayload, StreamSpec,
};
use latency_graph::{metrics, DiGraph, Graph, NodeId};

use crate::checker::{Model, Property};
use crate::props;
use crate::PropSelect;

/// Read access to a node's rumor state, for rumor-carrying protocols
/// (borrowed where the node keeps a plain bitset, expanded where it
/// keeps a compact one).
pub trait RumorHolder {
    /// The node's current rumor set.
    fn rumors(&self) -> Cow<'_, RumorSet>;
}

impl RumorHolder for PushPullNode {
    fn rumors(&self) -> Cow<'_, RumorSet> {
        Cow::Borrowed(&self.rumors)
    }
}

impl RumorHolder for FloodingNode {
    fn rumors(&self) -> Cow<'_, RumorSet> {
        Cow::Borrowed(&self.rumors)
    }
}

impl RumorHolder for SparseFloodNode {
    fn rumors(&self) -> Cow<'_, RumorSet> {
        Cow::Owned(self.rumors.to_set())
    }
}

/// What the broadcast properties observe: rumors plus an
/// exchange-application counter.
pub trait RumorNode {
    /// The node's current rumor set.
    fn rumor_set(&self) -> Cow<'_, RumorSet>;
    /// How many times `on_exchange` has applied a payload to this node.
    fn applied(&self) -> u64;
}

/// What the termination properties observe.
pub trait Decider {
    /// Whether the node has decided *terminate*.
    fn decides(&self) -> bool;
}

impl Decider for CheckNode {
    fn decides(&self) -> bool {
        self.decides_terminate()
    }
}

/// A transparent [`Protocol`] wrapper that counts `on_exchange`
/// applications, backing the `at-most-once-delivery` invariant
/// `Σ applied = 2 · delivered` without touching the shipped nodes.
#[derive(Clone, Debug)]
pub struct Counted<P> {
    /// The wrapped protocol node.
    pub inner: P,
    /// Number of `on_exchange` applications so far.
    pub applied: u64,
}

impl<P> Counted<P> {
    /// Wraps a node with a zeroed counter.
    pub fn new(inner: P) -> Counted<P> {
        Counted { inner, applied: 0 }
    }
}

impl<P: Protocol> Protocol for Counted<P> {
    const SCHEDULING: Scheduling = P::SCHEDULING;
    type Payload = P::Payload;

    fn payload(&self) -> Self::Payload {
        self.inner.payload()
    }

    fn payload_weight(payload: &Self::Payload) -> u64 {
        P::payload_weight(payload)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_round(ctx);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<Self::Payload>) {
        self.applied += 1;
        self.inner.on_exchange(ctx, exchange);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl<P: RumorHolder> RumorNode for Counted<P> {
    fn rumor_set(&self) -> Cow<'_, RumorSet> {
        self.inner.rumors()
    }

    fn applied(&self) -> u64 {
        self.applied
    }
}

/// A rumor-broadcast model: nodes start with their own rumor, the goal
/// is every rumor everywhere.
pub struct BroadcastModel<N> {
    name: String,
    graph: Graph,
    factory: fn(NodeId, usize) -> N,
    bound: Round,
    select: PropSelect,
    liveness: bool,
}

impl<N> BroadcastModel<N> {
    /// The same harness (graph, bound, properties) over a different
    /// node type — how the mutation suite injects broken protocols.
    pub fn with_node<M>(&self, name: &str, factory: fn(NodeId, usize) -> M) -> BroadcastModel<M> {
        BroadcastModel {
            name: format!("{}[{name}]", self.name),
            graph: self.graph.clone(),
            factory,
            bound: self.bound,
            select: self.select.clone(),
            liveness: self.liveness,
        }
    }
}

impl<N> Model for BroadcastModel<N>
where
    N: Protocol<Payload = SharedRumorSet> + Clone + RumorNode,
{
    type Node = N;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn make_node(&self, id: NodeId, n: usize) -> N {
        (self.factory)(id, n)
    }

    fn encode_node(&self, node: &N, out: &mut Vec<u8>) {
        // The rumor set is the node's entire forward-relevant state:
        // round-robin cursors track the (encoded) round, and the
        // applied counter is observational.
        for w in node.rumor_set().as_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn encode_payload(&self, payload: &SharedRumorSet, out: &mut Vec<u8>) {
        for w in payload.as_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn goal_met(&self, nodes: &[N]) -> bool {
        nodes.iter().all(|x| x.rumor_set().is_full())
    }

    fn round_bound(&self) -> Round {
        self.bound
    }

    fn properties(&self) -> Vec<Property<N>> {
        let mut props = Vec::new();
        if self.select.wants("latency-respected") {
            props.push(props::latency_respected(&self.graph));
        }
        if self.select.wants("at-most-once-delivery") {
            props.push(props::at_most_once_delivery());
        }
        if self.liveness && self.select.wants("termination") {
            props.push(props::termination());
        }
        props
    }

    fn node_fingerprint(&self, node: &N) -> u64 {
        // Match the golden-trace fingerprint semantics for rumor
        // protocols so counterexample trace lines are comparable.
        node.rumor_set().fingerprint()
    }
}

/// Push-pull broadcast under an adversarial peer-selection schedule.
/// Safety-only: see the module docs for why liveness is not claimed.
pub fn nd_broadcast(g: &Graph, select: PropSelect) -> BroadcastModel<Counted<PushPullNode>> {
    BroadcastModel {
        name: "nd-broadcast".to_string(),
        graph: g.clone(),
        factory: |id, n| Counted::new(PushPullNode::new(id, n, Mode::PushPull)),
        // Any live schedule floods within 2·D_w rounds; +1 gives the
        // final deliveries a round to be observed.
        bound: 2 * metrics::weighted_diameter(g).max(1) + 1,
        select,
        liveness: false,
    }
}

/// Deterministic round-robin flooding; the only nondeterminism is the
/// fault schedule, so the `termination` property is sound: the bound
/// is the measured fault-free reference round count.
pub fn rr_flood(g: &Graph, select: PropSelect) -> BroadcastModel<Counted<FloodingNode>> {
    BroadcastModel {
        name: "rr-flood".to_string(),
        graph: g.clone(),
        factory: |id, n| Counted::new(FloodingNode::new(id, n)),
        bound: props::reference_flood_rounds(g),
        select,
        liveness: true,
    }
}

/// Which property family a [`CheckModel`] instance carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CheckKind {
    Lemma18,
    Spanner,
}

/// A termination-check model: [`CheckNode`]-shaped nodes constructed
/// from a fixed rumor configuration, explored to a fixed horizon.
pub struct CheckModel<N> {
    name: String,
    graph: Graph,
    factory: fn(&RumorSet, bool, Vec<NodeId>) -> N,
    /// Per-node constructor inputs: (rumors, flag, out-list).
    init: Vec<(RumorSet, bool, Vec<NodeId>)>,
    rumors: Vec<RumorSet>,
    bound: Round,
    select: PropSelect,
    kind: CheckKind,
    /// `Spanner` only: (oriented arcs, degree cap, actual max out).
    spanner: Option<SpannerShape>,
}

/// Spanner orientation facts: (oriented arcs, degree cap, actual max
/// out-degree).
type SpannerShape = (BTreeSet<(NodeId, NodeId)>, usize, usize);

impl<N> CheckModel<N> {
    /// The same harness over a different node type (mutation suite).
    pub fn with_node<M>(
        &self,
        name: &str,
        factory: fn(&RumorSet, bool, Vec<NodeId>) -> M,
    ) -> CheckModel<M> {
        CheckModel {
            name: format!("{}[{name}]", self.name),
            graph: self.graph.clone(),
            factory,
            init: self.init.clone(),
            rumors: self.rumors.clone(),
            bound: self.bound,
            select: self.select.clone(),
            kind: self.kind,
            spanner: self.spanner.clone(),
        }
    }
}

impl<N> Model for CheckModel<N>
where
    N: Protocol<Payload = CheckPayload> + Clone + Decider,
{
    type Node = N;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn make_node(&self, id: NodeId, _n: usize) -> N {
        let (rumors, flag, out) = &self.init[id.index()];
        (self.factory)(rumors, *flag, out.clone())
    }

    fn encode_node(&self, node: &N, out: &mut Vec<u8>) {
        // The payload snapshot (fingerprint, flag, failed) is exactly
        // the node's forward-relevant state: out-lists are static and
        // cursors track the round.
        self.encode_payload(&node.payload(), out);
    }

    fn encode_payload(&self, payload: &CheckPayload, out: &mut Vec<u8>) {
        out.extend_from_slice(&payload.fingerprint.to_le_bytes());
        out.push(u8::from(payload.flag));
        out.push(u8::from(payload.failed));
    }

    fn goal_met(&self, _nodes: &[N]) -> bool {
        // The check protocol has no success state mid-run; it is
        // explored to the horizon and judged there.
        false
    }

    fn round_bound(&self) -> Round {
        self.bound
    }

    fn properties(&self) -> Vec<Property<N>> {
        let mut props = Vec::new();
        match self.kind {
            CheckKind::Lemma18 => {
                if self.select.wants("lemma18-no-early-stop") {
                    props.push(props::lemma18_no_early_stop(
                        &self.graph,
                        self.rumors.clone(),
                    ));
                }
                if self.select.wants("same-round-termination") {
                    props.push(props::same_round_termination());
                }
            }
            CheckKind::Spanner => {
                if let Some((arcs, cap, max_out)) = &self.spanner {
                    if self.select.wants("spanner-out-degree") {
                        props.push(props::spanner_out_degree(arcs.clone(), *cap, *max_out));
                    }
                }
            }
        }
        props
    }

    fn fault_budget_cap(&self) -> u32 {
        match self.kind {
            // Lemma 18 quantifies over fault-free executions of the
            // check protocol; under faults the oracle comparison is
            // vacuous, so the budget is pinned to zero.
            CheckKind::Lemma18 => 0,
            CheckKind::Spanner => u32::MAX,
        }
    }
}

/// The Algorithm 1 flag bits for a rumor configuration: `v` raises its
/// flag when some neighbor's rumor is still missing locally.
fn flags_for(g: &Graph, rumors: &[RumorSet]) -> Vec<bool> {
    g.nodes()
        .map(|v| {
            g.neighbor_ids(v)
                .iter()
                .any(|&w| !rumors[v.index()].contains(w))
        })
        .collect()
}

fn check_model_for(
    g: &Graph,
    name: String,
    rumors: Vec<RumorSet>,
    bound: Round,
    select: &PropSelect,
) -> CheckModel<CheckNode> {
    let flags = flags_for(g, &rumors);
    let init = g
        .nodes()
        .map(|v| {
            (
                rumors[v.index()].clone(),
                flags[v.index()],
                g.neighbor_ids(v).to_vec(),
            )
        })
        .collect();
    CheckModel {
        name,
        graph: g.clone(),
        factory: CheckNode::new,
        init,
        rumors,
        bound,
        select: select.clone(),
        kind: CheckKind::Lemma18,
        spanner: None,
    }
}

/// Every Lemma 18 model for `g`: the fresh-start configuration (all
/// singletons), the fully-disseminated one, and — the load-bearing
/// family — full-except-one for every (holder, rumor) pair, where the
/// centralized oracle and a sound distributed check must both refuse
/// to terminate.
pub fn lemma18_models(g: &Graph, select: &PropSelect) -> Vec<CheckModel<CheckNode>> {
    let n = g.node_count();
    // Horizon: twice the round-robin broadcast budget over the full
    // bidirectional orientation — enough for any failure evidence to
    // echo back across the instance.
    let arcs: Vec<(usize, usize, u32)> = g
        .edges()
        .flat_map(|(u, v, l)| {
            [
                (u.index(), v.index(), l.get()),
                (v.index(), u.index(), l.get()),
            ]
        })
        .collect();
    let orientation = DiGraph::from_arcs(n, arcs);
    let k = g
        .max_latency()
        .map_or(1, latency_graph::Latency::rounds)
        .max(1);
    let bound = 2 * rr_broadcast::budget(&orientation, k);

    let mut models = Vec::new();
    let fresh: Vec<RumorSet> = g.nodes().map(|v| RumorSet::singleton(n, v)).collect();
    models.push(check_model_for(
        g,
        "lemma18[fresh]".to_string(),
        fresh,
        bound,
        select,
    ));
    let full: Vec<RumorSet> = (0..n).map(|_| RumorSet::full(n)).collect();
    models.push(check_model_for(
        g,
        "lemma18[full]".to_string(),
        full,
        bound,
        select,
    ));
    for u in g.nodes() {
        for x in g.nodes() {
            if u == x {
                continue;
            }
            let mut rumors: Vec<RumorSet> = (0..n).map(|_| RumorSet::full(n)).collect();
            let mut missing = RumorSet::new(n);
            for w in g.nodes().filter(|&w| w != x) {
                missing.insert(w);
            }
            rumors[u.index()] = missing;
            models.push(check_model_for(
                g,
                format!("lemma18[full-except-{u}:{x}]"),
                rumors,
                bound,
                select,
            ));
        }
    }
    models
}

/// A spanner-style model over an explicit, hand-built orientation:
/// every node round-robins over its listed out-arcs, and the
/// `spanner-out-degree` property holds traffic to exactly `arcs`.
/// Used by the mutation suite, where a *predictable* orientation is
/// needed to show a node straying off it.
pub fn custom_spanner_model(
    g: &Graph,
    arcs: &[(usize, usize)],
    cap: usize,
    select: &PropSelect,
) -> CheckModel<CheckNode> {
    let n = g.node_count();
    let arc_set: BTreeSet<(NodeId, NodeId)> = arcs
        .iter()
        .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
        .collect();
    let mut out_lists: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(u, v) in arcs {
        out_lists[u].push(NodeId::new(v));
    }
    let max_out = out_lists.iter().map(Vec::len).max().unwrap_or(0);
    let rumors: Vec<RumorSet> = (0..n).map(|_| RumorSet::full(n)).collect();
    let init = g
        .nodes()
        .map(|v| {
            (
                rumors[v.index()].clone(),
                false,
                out_lists[v.index()].clone(),
            )
        })
        .collect();
    CheckModel {
        name: "spanner-custom".to_string(),
        graph: g.clone(),
        factory: CheckNode::new,
        init,
        rumors,
        bound: metrics::weighted_diameter(g).max(1) + 3,
        select: select.clone(),
        kind: CheckKind::Spanner,
        spanner: Some((arc_set, cap, max_out)),
    }
}

/// The spanner-orientation model: check traffic must stay on the
/// Baswana–Sen orientation and within its out-degree cap.
pub fn spanner_model(g: &Graph, select: &PropSelect) -> CheckModel<CheckNode> {
    let n = g.node_count();
    let k = eid::default_spanner_k(n);
    let result = baswana_sen::build_spanner(
        g,
        &baswana_sen::SpannerConfig {
            k,
            ..baswana_sen::SpannerConfig::default()
        },
    );
    let arcs: BTreeSet<(NodeId, NodeId)> = result.spanner.arcs().map(|(u, v, _)| (u, v)).collect();
    let max_out = result.spanner.max_out_degree();
    // The Baswana–Sen out-degree bound: k · ⌈n^(1/k)⌉ + k.
    let root = (n as f64).powf(1.0 / k as f64).ceil() as usize;
    let cap = k * root + k;

    let rumors: Vec<RumorSet> = (0..n).map(|_| RumorSet::full(n)).collect();
    let init = g
        .nodes()
        .map(|v| {
            let out: Vec<NodeId> = result
                .spanner
                .out_neighbors(v)
                .iter()
                .map(|&(w, _)| w)
                .collect();
            (rumors[v.index()].clone(), false, out)
        })
        .collect();
    CheckModel {
        name: "spanner".to_string(),
        graph: g.clone(),
        factory: CheckNode::new,
        init,
        rumors,
        bound: metrics::weighted_diameter(g).max(1) + 3,
        select: select.clone(),
        kind: CheckKind::Spanner,
        spanner: Some((arcs, cap, max_out)),
    }
}

// ---------------------------------------------------------------------
// Multi-rumor streaming model
// ---------------------------------------------------------------------

/// Canonical bytes of a [`StreamPayload`] snapshot (shared by node and
/// in-flight encodings).
fn encode_stream_payload(payload: &StreamPayload, out: &mut Vec<u8>) {
    match payload {
        StreamPayload::Ids(ids) => {
            out.push(0);
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        StreamPayload::Rows { k, rows } => {
            out.push(1);
            out.extend_from_slice(&k.to_le_bytes());
            for row in rows {
                for w in row {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    }
}

/// What the `no-phantom-rumor` property observes: the rumors a node
/// *holds* versus the rumors it can *causally explain* (its own
/// injections plus the support of every payload it received).
pub trait StreamObserver {
    /// Bit-packed held set (`⌈k/64⌉` words).
    fn heard_words(&self) -> Vec<u64>;
    /// Bit-packed causal set (`⌈k/64⌉` words).
    fn causal_words(&self) -> &[u64];
    /// Whether every rumor is held.
    fn all_heard(&self) -> bool;
    /// Appends the canonical forward-relevant state bytes.
    fn encode_state(&self, out: &mut Vec<u8>);
}

/// A transparent [`Protocol`] wrapper that shadows a streaming node
/// with its **causal knowledge set**: the rumors injected at this node
/// so far, unioned with the support of every payload applied to it.
/// The `no-phantom-rumor` property demands `held ⊆ causal` at every
/// observation — a policy that conjures, mislabels, or leaks rumor
/// identities breaks it immediately. The wrapper never touches the
/// inner node's behavior, mirroring [`Counted`].
#[derive(Clone, Debug)]
pub struct StreamWitness<P> {
    /// The wrapped policy node.
    pub inner: P,
    /// Bit-packed causal set.
    causal: Vec<u64>,
    /// This node's injection schedule, `(rumor, round)`.
    own: Vec<(usize, Round)>,
    k: usize,
}

impl<P> StreamWitness<P> {
    /// Wraps `inner`, which hosts `id`'s share of `spec`'s injections.
    pub fn new(inner: P, id: NodeId, spec: &StreamSpec) -> StreamWitness<P> {
        StreamWitness {
            inner,
            causal: vec![0u64; spec.k.div_ceil(64)],
            own: spec.injections_at(id),
            k: spec.k,
        }
    }
}

impl<P: Protocol<Payload = StreamPayload>> Protocol for StreamWitness<P> {
    const SCHEDULING: Scheduling = P::SCHEDULING;
    type Payload = StreamPayload;

    fn payload(&self) -> StreamPayload {
        self.inner.payload()
    }

    fn payload_weight(payload: &StreamPayload) -> u64 {
        P::payload_weight(payload)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        for &(rumor, due) in &self.own {
            if due <= ctx.round() {
                self.causal[rumor / 64] |= 1u64 << (rumor % 64);
            }
        }
        self.inner.on_round(ctx);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<StreamPayload>) {
        for (w, s) in self
            .causal
            .iter_mut()
            .zip(exchange.payload.support_words(self.k))
        {
            *w |= s;
        }
        self.inner.on_exchange(ctx, exchange);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl StreamObserver for StreamWitness<RrStreamNode> {
    fn heard_words(&self) -> Vec<u64> {
        self.inner.log().heard_words()
    }

    fn causal_words(&self) -> &[u64] {
        &self.causal
    }

    fn all_heard(&self) -> bool {
        self.inner.heard_all()
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.inner.encode_state(out);
        // The causal set is observational for the *shipped* node but
        // part of the property's verdict, so it stays in the encoding:
        // merging states with different causal sets could hide a
        // deeper violation behind an innocent twin.
        for w in &self.causal {
            out.extend_from_slice(&w.to_le_bytes());
        }
        encode_stream_payload(&self.inner.payload(), out);
    }
}

/// A budgeted multi-rumor streaming model: `k` rumors injected at
/// [`StreamSpec`]-configured points, adversarial peer selection, goal
/// = every node holds every rumor.
pub struct StreamModel<N> {
    name: String,
    graph: Graph,
    spec: StreamSpec,
    factory: fn(NodeId, &StreamSpec) -> N,
    bound: Round,
    select: PropSelect,
}

impl<N> StreamModel<N> {
    /// The same harness (graph, spec, bound, properties) over a
    /// different node type — the mutation-suite hook.
    pub fn with_node<M>(
        &self,
        name: &str,
        factory: fn(NodeId, &StreamSpec) -> M,
    ) -> StreamModel<M> {
        StreamModel {
            name: format!("{}[{name}]", self.name),
            graph: self.graph.clone(),
            spec: self.spec.clone(),
            factory,
            bound: self.bound,
            select: self.select.clone(),
        }
    }
}

impl<N> Model for StreamModel<N>
where
    N: Protocol<Payload = StreamPayload> + Clone + StreamObserver,
{
    type Node = N;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn make_node(&self, id: NodeId, _n: usize) -> N {
        (self.factory)(id, &self.spec)
    }

    fn encode_node(&self, node: &N, out: &mut Vec<u8>) {
        node.encode_state(out);
    }

    fn encode_payload(&self, payload: &StreamPayload, out: &mut Vec<u8>) {
        encode_stream_payload(payload, out);
    }

    fn goal_met(&self, nodes: &[N]) -> bool {
        nodes.iter().all(StreamObserver::all_heard)
    }

    fn round_bound(&self) -> Round {
        self.bound
    }

    fn properties(&self) -> Vec<Property<N>> {
        let mut props = Vec::new();
        if self.select.wants("no-phantom-rumor") {
            props.push(props::no_phantom_rumor());
        }
        props
    }

    fn fault_budget_cap(&self) -> u32 {
        // Pinned to zero, like Lemma 18: the fault adversary can only
        // *remove* exchanges, and the streaming policies have no
        // loss-handling code path, so budget 0 already reaches every
        // payload-application path a phantom could slip through —
        // while keeping the dense n = 4 instances exhaustively
        // checkable inside the corpus sweep.
        0
    }
}

/// The shipped round-robin streaming policy under adversarial peer
/// selection: two rumors, per-direction budget 1 — the smallest
/// universe where an exchange must *choose* what to carry, which is
/// exactly the code path a phantom could slip through. The universe is
/// deliberately minimal: per-peer knowledge masks multiply the state
/// space by `2^(k·Σdeg)`, so k = 2 is what keeps the n = 4 instances
/// exhaustively checkable. Safety only — the choice adversary can
/// starve completion, so the model carries `no-phantom-rumor` and no
/// liveness claim.
pub fn rr_stream_model(g: &Graph, select: PropSelect) -> StreamModel<StreamWitness<RrStreamNode>> {
    let n = g.node_count();
    let spec = StreamSpec::spread(2, 1, n);
    // Horizon: every injection is in flight by `last_injection_round`;
    // 2·D_w + 1 more rounds give any live schedule room to finish (and
    // bound the adversarial ones).
    let bound = spec.last_injection_round() + 2 * metrics::weighted_diameter(g).max(1) + 1;
    StreamModel {
        name: "rr-stream".to_string(),
        graph: g.clone(),
        spec,
        factory: |id, spec| StreamWitness::new(RrStreamNode::new(id, spec), id, spec),
        bound,
        select,
    }
}

// ---------------------------------------------------------------------
// On-demand flooding model
// ---------------------------------------------------------------------

/// One-to-all on-demand flooding from node 0 over the instance graph:
/// the shipped [`SparseFloodNode`] under its own
/// [`Scheduling::OnDemand`] semantics. No choice branches, so the
/// nondeterminism is purely the fault schedule, and `termination` is
/// sound: the bound is the fault-free run's round count.
pub struct SparseFloodModel {
    graph: Graph,
    source: NodeId,
    bound: Round,
    select: PropSelect,
}

impl Model for SparseFloodModel {
    type Node = Counted<SparseFloodNode>;

    fn name(&self) -> String {
        "sparse-flood".to_string()
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn make_node(&self, id: NodeId, n: usize) -> Self::Node {
        Counted::new(SparseFloodNode::new(id, n, self.source))
    }

    fn encode_node(&self, node: &Self::Node, out: &mut Vec<u8>) {
        // Rumors plus the round-robin cursor: unlike the dense flood's,
        // it advances only while the node is stepped, so it does not
        // track the round. Pending wakeups are encoded by the checker.
        self.encode_payload(&node.inner.rumors, out);
        let cursor = u32::try_from(node.inner.cursor()).expect("degree fits u32");
        out.extend_from_slice(&cursor.to_le_bytes());
    }

    fn encode_payload(&self, payload: &CompactRumorSet, out: &mut Vec<u8>) {
        for w in payload.to_set().as_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn goal_met(&self, nodes: &[Self::Node]) -> bool {
        nodes.iter().all(|x| x.inner.rumors.contains(self.source))
    }

    fn round_bound(&self) -> Round {
        self.bound
    }

    fn properties(&self) -> Vec<Property<Self::Node>> {
        let mut props = Vec::new();
        if self.select.wants("latency-respected") {
            props.push(props::latency_respected(&self.graph));
        }
        if self.select.wants("at-most-once-delivery") {
            props.push(props::at_most_once_delivery());
        }
        if self.select.wants("termination") {
            props.push(props::termination());
        }
        props
    }

    fn node_fingerprint(&self, node: &Self::Node) -> u64 {
        node.inner.rumors.fingerprint()
    }
}

/// The on-demand flood model; its bound is the round in which the
/// fault-free run informs every node (it stops by
/// [`StopReason::AllDone`] then).
///
/// # Panics
///
/// Panics if the fault-free flood does not inform every node, i.e. the
/// graph is disconnected.
pub fn sparse_flood(g: &Graph, select: PropSelect) -> SparseFloodModel {
    let source = NodeId::new(0);
    let sim = Simulator::new(
        g,
        SimConfig {
            max_rounds: 64 * metrics::weighted_diameter(g).max(1),
            ..SimConfig::default()
        },
    );
    let out = sim.run(
        |id, n| SparseFloodNode::new(id, n, source),
        |_: &[SparseFloodNode], _| false,
    );
    assert_eq!(
        out.reason,
        StopReason::AllDone,
        "the reference on-demand flood must inform every node"
    );
    SparseFloodModel {
        graph: g.clone(),
        source,
        bound: out.rounds,
        select,
    }
}
