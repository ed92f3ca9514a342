//! The mutation suite: deliberately broken protocol variants the
//! checker must reject.
//!
//! A model checker that has never failed proves nothing — maybe the
//! properties are tautologies, maybe the state space is empty. Each
//! mutant here injects one specific protocol bug through the models'
//! [`with_node`](crate::models::BroadcastModel::with_node) hook (same
//! graph, same bound, same properties — only the node type changes)
//! and [`run_all`] asserts the checker finds it, names the right
//! property, and produces a counterexample whose replay re-triggers
//! the violation.
//!
//! | mutant | bug | caught by |
//! |--------|-----|-----------|
//! | `early-stop`      | ignores fingerprint mismatches | `lemma18-no-early-stop` |
//! | `deaf`            | ignores propagated failure evidence | `same-round-termination` |
//! | `eager-rumor`     | conjures a distance-2 rumor at round 0 | `latency-respected` |
//! | `fat-orientation` | initiates over all graph neighbors, not its out-arcs | `spanner-out-degree` |
//! | `stall`           | never initiates | `termination` |
//! | `double-apply`    | applies every exchange twice | `at-most-once-delivery` |
//! | `phantom-rumor`   | holds a rumor injected elsewhere it never received | `no-phantom-rumor` |

use std::borrow::Cow;

use gossip_core::flooding::FloodingNode;
use gossip_core::termination::CheckPayload;
use gossip_sim::{
    CompletionLog, Context, Exchange, Protocol, RumorSet, SharedRumorSet, StreamPayload, StreamSpec,
};
use latency_graph::NodeId;

use crate::checker::{check, replay, CheckConfig, CheckOutcome, Model};
use crate::models::{
    custom_spanner_model, lemma18_models, rr_flood, rr_stream_model, Counted, Decider, RumorNode,
    StreamObserver,
};
use crate::{instance, Family, PropSelect};

/// The verdict on one mutant.
#[derive(Clone, Debug)]
pub struct MutantRun {
    /// The mutant's name.
    pub name: &'static str,
    /// The property expected (and required) to catch it.
    pub property: &'static str,
    /// The checker outcome (must contain a violation).
    pub outcome: CheckOutcome,
    /// Whether replaying the counterexample's action script from
    /// scratch re-triggered the same property violation.
    pub replay_confirmed: bool,
}

impl MutantRun {
    /// A mutant is killed when the checker found a violation of the
    /// expected property and its counterexample replays.
    pub fn killed(&self) -> bool {
        self.replay_confirmed
            && self
                .outcome
                .violation
                .as_ref()
                .is_some_and(|cx| cx.property == self.property)
    }
}

fn conclude<M: Model>(
    model: &M,
    name: &'static str,
    property: &'static str,
    outcome: CheckOutcome,
) -> MutantRun {
    let replay_confirmed = outcome.violation.as_ref().is_some_and(|cx| {
        replay(model, &cx.actions)
            .violation
            .is_some_and(|(p, _)| p == cx.property)
    });
    MutantRun {
        name,
        property,
        outcome,
        replay_confirmed,
    }
}

// ---------------------------------------------------------------------
// Check-protocol mutants (Lemma 18 family)
// ---------------------------------------------------------------------

/// Base state shared by the check-protocol mutants: the same fields as
/// the shipped `CheckNode`, with the bug in `on_exchange`.
#[derive(Clone, Debug)]
struct CheckState {
    fingerprint: u64,
    flag: bool,
    failed: bool,
    out: Vec<NodeId>,
    cursor: usize,
}

impl CheckState {
    fn new(rumors: &RumorSet, flag: bool, out: Vec<NodeId>) -> CheckState {
        CheckState {
            fingerprint: rumors.fingerprint(),
            flag,
            failed: false,
            out,
            cursor: 0,
        }
    }

    fn payload(&self) -> CheckPayload {
        CheckPayload {
            fingerprint: self.fingerprint,
            flag: self.flag,
            failed: self.failed,
        }
    }

    fn round_robin(&mut self, ctx: &mut Context<'_>) {
        if self.out.is_empty() {
            return;
        }
        let v = self.out[self.cursor % self.out.len()];
        self.cursor += 1;
        ctx.initiate(v);
    }
}

macro_rules! check_mutant_protocol {
    ($ty:ident, $on_exchange:expr) => {
        impl Protocol for $ty {
            type Payload = CheckPayload;

            fn payload(&self) -> CheckPayload {
                self.0.payload()
            }

            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.0.round_robin(ctx);
            }

            fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<CheckPayload>) {
                let handler: fn(&mut $ty, &Exchange<CheckPayload>) = $on_exchange;
                handler(self, x);
            }
        }

        impl Decider for $ty {
            fn decides(&self) -> bool {
                !self.0.failed && !self.0.flag
            }
        }
    };
}

/// Ignores fingerprint mismatches: only an explicit peer flag or
/// failure report trips it, so it happily terminates while a rumor is
/// still missing somewhere off-neighborhood.
#[derive(Clone, Debug)]
pub struct EarlyStopNode(CheckState);

check_mutant_protocol!(EarlyStopNode, |node, x| {
    if x.payload.flag || x.payload.failed {
        node.0.failed = true;
    }
});

/// Detects local fingerprint mismatches but is deaf to *propagated*
/// evidence (peer flag / failed bits), so nodes whose own neighborhood
/// looks consistent decide terminate while others refuse.
#[derive(Clone, Debug)]
pub struct DeafNode(CheckState);

check_mutant_protocol!(DeafNode, |node, x| {
    if x.payload.fingerprint != node.0.fingerprint {
        node.0.failed = true;
    }
});

/// The early-stop mutant: must be caught by `lemma18-no-early-stop` on
/// some cycle-4 rumor configuration.
pub fn early_stop() -> MutantRun {
    let g = instance(Family::Cycle, 4)
        .expect("cycle4 is a valid instance")
        .graph;
    let select = PropSelect::One("lemma18-no-early-stop".to_string());
    let mut last = None;
    for base in lemma18_models(&g, &select) {
        let m = base.with_node("early-stop", |r, f, o| {
            EarlyStopNode(CheckState::new(r, f, o))
        });
        let out = check(&m, &CheckConfig::default());
        let found = out.violation.is_some();
        let run = conclude(&m, "early-stop", "lemma18-no-early-stop", out);
        if found {
            return run;
        }
        last = Some(run);
    }
    last.expect("lemma18_models is never empty")
}

/// The deaf mutant: must be caught by `same-round-termination` on some
/// cycle-4 rumor configuration (one node's neighborhood looks clean,
/// another's does not).
pub fn deaf() -> MutantRun {
    let g = instance(Family::Cycle, 4)
        .expect("cycle4 is a valid instance")
        .graph;
    let select = PropSelect::One("same-round-termination".to_string());
    let mut last = None;
    for base in lemma18_models(&g, &select) {
        let m = base.with_node("deaf", |r, f, o| DeafNode(CheckState::new(r, f, o)));
        let out = check(&m, &CheckConfig::default());
        let found = out.violation.is_some();
        let run = conclude(&m, "deaf", "same-round-termination", out);
        if found {
            return run;
        }
        last = Some(run);
    }
    last.expect("lemma18_models is never empty")
}

// ---------------------------------------------------------------------
// Broadcast mutants
// ---------------------------------------------------------------------

/// Starts with a rumor it cannot legitimately have yet: node `v`
/// conjures the rumor of the node two hops away at construction,
/// beating the weighted distance. Caught at round 0.
pub fn eager_rumor() -> MutantRun {
    let g = instance(Family::Cycle, 4)
        .expect("cycle4 is a valid instance")
        .graph;
    let base = rr_flood(&g, PropSelect::One("latency-respected".to_string()));
    let m = base.with_node("eager-rumor", |id, n| {
        let mut inner = FloodingNode::new(id, n);
        inner.rumors.insert(NodeId::new((id.index() + 2) % n));
        Counted::new(inner)
    });
    let out = check(&m, &CheckConfig::default());
    conclude(&m, "eager-rumor", "latency-respected", out)
}

/// Never initiates an exchange; the fault-free path hits the round
/// bound with rumors undelivered.
#[derive(Clone, Debug)]
pub struct StallNode {
    rumors: SharedRumorSet,
    applied: u64,
}

impl Protocol for StallNode {
    type Payload = SharedRumorSet;

    fn payload(&self) -> SharedRumorSet {
        self.rumors.snapshot()
    }

    fn on_round(&mut self, _ctx: &mut Context<'_>) {}

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<SharedRumorSet>) {
        self.applied += 1;
        self.rumors.union_with(&x.payload);
    }
}

impl RumorNode for StallNode {
    fn rumor_set(&self) -> Cow<'_, RumorSet> {
        Cow::Borrowed(&self.rumors)
    }

    fn applied(&self) -> u64 {
        self.applied
    }
}

/// The stall mutant: must be caught by `termination` on the
/// deterministic flood model.
pub fn stall() -> MutantRun {
    let g = instance(Family::Cycle, 4)
        .expect("cycle4 is a valid instance")
        .graph;
    let base = rr_flood(&g, PropSelect::One("termination".to_string()));
    let m = base.with_node("stall", |id, n| StallNode {
        rumors: SharedRumorSet::singleton(n, id),
        applied: 0,
    });
    let out = check(&m, &CheckConfig::default());
    conclude(&m, "stall", "termination", out)
}

/// Applies every delivered exchange twice (and counts both), breaking
/// `Σ applied = 2 · delivered` at the very first delivery.
#[derive(Clone, Debug)]
pub struct DoubleApplyNode {
    inner: FloodingNode,
    applied: u64,
}

impl Protocol for DoubleApplyNode {
    type Payload = SharedRumorSet;

    fn payload(&self) -> SharedRumorSet {
        self.inner.payload()
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_round(ctx);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, x: &Exchange<SharedRumorSet>) {
        self.applied += 2;
        self.inner.on_exchange(ctx, x);
        self.inner.on_exchange(ctx, x);
    }
}

impl RumorNode for DoubleApplyNode {
    fn rumor_set(&self) -> Cow<'_, RumorSet> {
        Cow::Borrowed(&self.inner.rumors)
    }

    fn applied(&self) -> u64 {
        self.applied
    }
}

/// The double-apply mutant: must be caught by `at-most-once-delivery`.
pub fn double_apply() -> MutantRun {
    let g = instance(Family::Cycle, 3)
        .expect("cycle3 is a valid instance")
        .graph;
    let base = rr_flood(&g, PropSelect::One("at-most-once-delivery".to_string()));
    let m = base.with_node("double-apply", |id, n| DoubleApplyNode {
        inner: FloodingNode::new(id, n),
        applied: 0,
    });
    let out = check(&m, &CheckConfig::default());
    conclude(&m, "double-apply", "at-most-once-delivery", out)
}

/// Round-robins over *all* graph neighbors instead of its assigned
/// out-arcs — traffic strays off the orientation.
#[derive(Clone, Debug)]
pub struct FatOrientationNode {
    state: CheckState,
}

impl Protocol for FatOrientationNode {
    type Payload = CheckPayload;

    fn payload(&self) -> CheckPayload {
        self.state.payload()
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        ctx.initiate_nth(self.state.cursor % d);
        self.state.cursor += 1;
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<CheckPayload>) {
        if x.payload.fingerprint != self.state.fingerprint || x.payload.flag || x.payload.failed {
            self.state.failed = true;
        }
    }
}

impl Decider for FatOrientationNode {
    fn decides(&self) -> bool {
        !self.state.failed && !self.state.flag
    }
}

/// The fat-orientation mutant: checked against a hand-built star-4
/// orientation (`1→0, 2→0, 3→0, 0→1`) where the hub's second
/// initiation (`0→2`) is off-orientation.
pub fn fat_orientation() -> MutantRun {
    let g = instance(Family::Star, 4)
        .expect("star4 is a valid instance")
        .graph;
    let select = PropSelect::One("spanner-out-degree".to_string());
    let base = custom_spanner_model(&g, &[(1, 0), (2, 0), (3, 0), (0, 1)], 4, &select);
    let m = base.with_node("fat-orientation", |r, f, o| FatOrientationNode {
        state: CheckState::new(r, f, o),
    });
    let out = check(&m, &CheckConfig::default());
    conclude(&m, "fat-orientation", "spanner-out-degree", out)
}

// ---------------------------------------------------------------------
// Streaming mutants
// ---------------------------------------------------------------------

/// Holds a rumor it can't causally explain: the constructor records a
/// rumor that is injected at *another* node, with no received payload
/// to support it — the held set escapes the causal set at the very
/// first observation.
#[derive(Clone, Debug)]
pub struct PhantomStreamNode {
    log: CompletionLog,
    causal: Vec<u64>,
    k: usize,
}

impl PhantomStreamNode {
    fn new(id: NodeId, spec: &StreamSpec) -> PhantomStreamNode {
        let mut log = CompletionLog::new(spec.k);
        // Claim the first rumor that originates elsewhere (spread
        // schedules guarantee one exists for n >= 2).
        if let Some(rumor) = (0..spec.k).find(|&r| spec.origin(r).node != id) {
            let _ = log.record(rumor, 0);
        }
        PhantomStreamNode {
            log,
            causal: vec![0u64; spec.k.div_ceil(64)],
            k: spec.k,
        }
    }
}

impl Protocol for PhantomStreamNode {
    type Payload = StreamPayload;

    fn payload(&self) -> StreamPayload {
        StreamPayload::empty_ids()
    }

    fn on_round(&mut self, _ctx: &mut Context<'_>) {}

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<StreamPayload>) {
        for (w, s) in self.causal.iter_mut().zip(x.payload.support_words(self.k)) {
            *w |= s;
        }
    }
}

impl StreamObserver for PhantomStreamNode {
    fn heard_words(&self) -> Vec<u64> {
        self.log.heard_words()
    }

    fn causal_words(&self) -> &[u64] {
        &self.causal
    }

    fn all_heard(&self) -> bool {
        self.log.heard_all()
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        for w in self.log.heard_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for w in &self.causal {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// The phantom-rumor mutant: must be caught by `no-phantom-rumor` on
/// the streaming model.
pub fn phantom_rumor() -> MutantRun {
    let g = instance(Family::Cycle, 4)
        .expect("cycle4 is a valid instance")
        .graph;
    let base = rr_stream_model(&g, PropSelect::One("no-phantom-rumor".to_string()));
    let m = base.with_node("phantom-rumor", PhantomStreamNode::new);
    let out = check(&m, &CheckConfig::default());
    conclude(&m, "phantom-rumor", "no-phantom-rumor", out)
}

/// Runs the whole suite. Every entry must report
/// [`killed`](MutantRun::killed); CI fails otherwise.
pub fn run_all() -> Vec<MutantRun> {
    vec![
        early_stop(),
        deaf(),
        eager_rumor(),
        fat_orientation(),
        stall(),
        double_apply(),
        phantom_rumor(),
    ]
}
