//! The simulation engine: [`Protocol`], [`Context`], [`Simulator`].

use std::collections::BTreeMap;
use std::mem;

use latency_graph::{Graph, Latency, NodeId};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::faults::FaultPlan;
use crate::Round;

/// How the engine schedules a protocol's [`on_round`](Protocol::on_round)
/// callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// `on_round` runs for every live node in every round — the
    /// original dense loop, cost Θ(n) per round.
    EveryRound,
    /// `on_round` runs only for nodes on the **active frontier**: nodes
    /// that received a delivery this round, registered a wakeup for it
    /// ([`Context::wake_in`] / [`Context::wake_at`]), or — in round 0,
    /// which steps everyone — are simply alive. Idle nodes cost
    /// nothing, and with [`EngineMode::Frontier`] the round counter
    /// skips dead gaps directly to the next scheduled event.
    ///
    /// Contract for `OnDemand` protocols:
    /// * Round 0 is a universal wakeup: every live node gets `on_round`
    ///   once, after `on_start`. A node that wants further rounds must
    ///   register a wakeup (`ctx.wake_in(1)` reproduces the dense
    ///   cadence) — there is no implicit "every round" stepping.
    /// * Delivery is a wakeup: both endpoints of a delivered exchange
    ///   are stepped in the completion round (after `on_exchange`).
    /// * A *lost* exchange (crash / link fault) wakes no one; protocols
    ///   that must make progress despite losses (or under
    ///   [`SimConfig::blocking`]) should keep a standing wakeup.
    /// * The caller's stop closure and the [`StopReason::AllDone`] scan
    ///   are evaluated only on **event rounds** (rounds with a
    ///   delivery, a due wakeup, or round 0) — in both engine modes, so
    ///   dense and frontier runs remain byte-identical.
    ///
    /// [`Stepper`] implements this contract, so `Simulator::run` and
    /// the model checker (which drives `Stepper` directly) execute an
    /// `OnDemand` protocol under the same semantics.
    OnDemand,
}

/// A gossip protocol, instantiated once per node.
///
/// The engine drives each node through rounds:
///
/// 1. At the start of each round, completed exchanges are delivered via
///    [`on_exchange`](Protocol::on_exchange) (to both endpoints).
/// 2. Then [`on_round`](Protocol::on_round) runs; the node may call
///    [`Context::initiate`] to start one exchange this round.
///
/// Payload snapshots of *both* endpoints are taken at initiation time
/// (via [`payload`](Protocol::payload)) and delivered when the exchange
/// completes, `latency` rounds later.
pub trait Protocol: Sized {
    /// The scheduling discipline for this protocol's `on_round`. The
    /// default, [`Scheduling::EveryRound`], preserves the classic dense
    /// semantics; [`Scheduling::OnDemand`] opts into frontier-sparse
    /// stepping (see [`Scheduling`] for the wakeup contract).
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    /// The data exchanged between two nodes (e.g. a
    /// [`RumorSet`](crate::RumorSet)).
    type Payload: Clone;

    /// Snapshot of this node's exchangeable state. Called whenever an
    /// exchange involving this node is initiated (by either side).
    fn payload(&self) -> Self::Payload;

    /// The size of a payload in protocol-defined units (rumors carried,
    /// topology edges, …), accumulated into
    /// [`SimMetrics::payload_units`] for message-complexity accounting
    /// (the paper's Section 6 discusses which algorithms need large
    /// messages). Defaults to 1 unit per payload.
    fn payload_weight(payload: &Self::Payload) -> u64 {
        let _ = payload;
        1
    }

    /// Called once, before round 0's `on_round`.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called every round. Call [`Context::initiate`] to start an
    /// exchange.
    fn on_round(&mut self, ctx: &mut Context<'_>);

    /// Called when an exchange involving this node completes.
    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<Self::Payload>);

    /// Called when this node's initiation was rejected because it or
    /// the chosen peer exceeded the per-round connection cap
    /// ([`SimConfig::connection_cap`] — the restricted model of the
    /// paper's conclusion, after Daum et al. \[24\]). Only invoked in the
    /// capped model; the default does nothing.
    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        let _ = (ctx, peer);
    }

    /// Local termination flag; when every node reports `true` the
    /// simulation stops with [`StopReason::AllDone`].
    fn is_done(&self) -> bool {
        false
    }
}

/// A completed exchange, as seen by one endpoint.
#[derive(Clone, Debug)]
pub struct Exchange<P> {
    /// The other endpoint.
    pub peer: NodeId,
    /// The peer's payload snapshot, taken at [`initiated_at`](Self::initiated_at).
    pub payload: P,
    /// The round the exchange was initiated.
    pub initiated_at: Round,
    /// The round the exchange completed (current round); the edge
    /// latency is `completed_at − initiated_at`, which is how protocols
    /// *measure* unknown latencies (Section 4.2 of the paper).
    pub completed_at: Round,
    /// Whether this endpoint was the initiator.
    pub initiated_by_me: bool,
}

impl<P> Exchange<P> {
    /// The measured latency of the edge used.
    pub fn measured_latency(&self) -> Latency {
        Latency::new(
            u32::try_from(self.completed_at - self.initiated_at).expect("latency fits u32"),
        )
    }
}

/// Per-node view handed to protocol callbacks.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    round: Round,
    n: usize,
    size_hint: usize,
    neighbor_ids: &'a [NodeId],
    latencies: Option<&'a [Latency]>,
    rng: &'a mut StdRng,
    /// The chosen peer plus its index into the node's adjacency slice,
    /// captured by [`Context::initiate`]'s validation search so the
    /// engine can launch the exchange without re-resolving the edge.
    pending: &'a mut Option<(NodeId, u32)>,
    /// The wakeup request slot ([`Context::wake_at`]); drained by
    /// [`Stepper`] at the end of the round. Last write wins within a
    /// round. Ignored for [`Scheduling::EveryRound`] protocols (every
    /// node is stepped anyway).
    wake: &'a mut Option<Round>,
    /// Choice tape installed by a model checker ([`Stepper`]'s
    /// `set_choice_tape`): when present, [`Context::choose`] reads
    /// scripted branches from it instead of the node RNG. `None` in
    /// every normal run.
    tape: Option<&'a mut ChoiceTape>,
}

impl<'a> Context<'a> {
    /// Crate-internal constructor shared by the engine's round loop and
    /// the [`pacing`](crate::pacing) contract, so a [`NodePacer`] hands
    /// protocols a view that is field-for-field the one the simulator
    /// builds.
    ///
    /// [`NodePacer`]: crate::pacing::NodePacer
    #[allow(clippy::too_many_arguments)] // mirrors the engine's per-node state split
    pub(crate) fn new(
        node: NodeId,
        round: Round,
        n: usize,
        size_hint: usize,
        neighbor_ids: &'a [NodeId],
        latencies: Option<&'a [Latency]>,
        rng: &'a mut StdRng,
        pending: &'a mut Option<(NodeId, u32)>,
        wake: &'a mut Option<Round>,
    ) -> Context<'a> {
        Context {
            node,
            round,
            n,
            size_hint,
            neighbor_ids,
            latencies,
            rng,
            pending,
            wake,
            tape: None,
        }
    }

    /// Attaches a checker choice tape to the view; used only by
    /// [`Stepper`]-driven runs.
    pub(crate) fn with_tape(mut self, tape: Option<&'a mut ChoiceTape>) -> Context<'a> {
        self.tape = tape;
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The exact network size `n`. Most of the paper's algorithms only
    /// assume a polynomial upper bound — prefer
    /// [`size_hint`](Self::size_hint) in protocol logic and reserve
    /// `n` for bookkeeping (rumor-set universes).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The polynomial upper bound `n̂ ≥ n` the protocol is allowed to
    /// know (paper, Section 1 and Lemma 13). Equals `n` unless
    /// configured otherwise.
    pub fn size_hint(&self) -> usize {
        self.size_hint
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }

    /// The ids of this node's neighbors, sorted.
    pub fn neighbor_ids(&self) -> &[NodeId] {
        self.neighbor_ids
    }

    /// The latency of the edge to neighbor `v`, if the model grants the
    /// node knowledge of adjacent latencies
    /// ([`SimConfig::latency_known`]); `None` otherwise or if `v` is not
    /// a neighbor. Unknown latencies must be *measured* by timing
    /// exchanges ([`Exchange::measured_latency`]).
    pub fn latency_to(&self, v: NodeId) -> Option<Latency> {
        let latencies = self.latencies?;
        self.neighbor_index(v).map(|i| latencies[i])
    }

    /// The position of `v` in this node's sorted adjacency slice (the
    /// node-local analogue of [`Graph::neighbor_index`]), or `None` if
    /// `v` is not a neighbor.
    ///
    /// [`Graph::neighbor_index`]: latency_graph::Graph::neighbor_index
    fn neighbor_index(&self, v: NodeId) -> Option<usize> {
        self.neighbor_ids.binary_search(&v).ok()
    }

    /// Initiates an exchange with neighbor `v` this round. At most one
    /// initiation takes effect per round; calling again overwrites the
    /// previous choice.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a neighbor of this node.
    pub fn initiate(&mut self, v: NodeId) {
        let Some(i) = self.neighbor_index(v) else {
            panic!("{} attempted to initiate with non-neighbor {v}", self.node);
        };
        // The validated index is kept alongside the peer: the engine
        // reads the edge latency straight out of the graph's parallel
        // latency array instead of binary-searching again.
        *self.pending = Some((v, u32::try_from(i).expect("degree fits u32")));
    }

    /// Initiates an exchange with the `i`-th neighbor (an index into
    /// [`neighbor_ids`](Self::neighbor_ids)). Equivalent to
    /// `initiate(self.neighbor_ids()[i])` but skips the membership
    /// search — the fast path for protocols that already choose their
    /// peer by adjacency index (e.g. uniform random neighbor
    /// selection).
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree()`.
    pub fn initiate_nth(&mut self, i: usize) {
        let v = self.neighbor_ids[i];
        *self.pending = Some((v, u32::try_from(i).expect("degree fits u32")));
    }

    /// Registers a wakeup: under [`Scheduling::OnDemand`] this node
    /// will be stepped ([`Protocol::on_round`]) again in round `round`,
    /// even if nothing is delivered to it. Calling again in the same
    /// round overwrites the previous request (at most one wakeup is
    /// registered per node per round); wakeups registered in different
    /// rounds accumulate independently. Under
    /// [`Scheduling::EveryRound`] this is a no-op — every node is
    /// stepped every round already.
    ///
    /// # Boundary semantics (audited)
    ///
    /// A wakeup at or before the current round is a **panic**, not a
    /// clamp-to-next-round: the frontier for the current round is
    /// already being processed, so such a request could never fire,
    /// and silently rounding it up would hide an off-by-one in the
    /// protocol's own schedule arithmetic (the exact bug class this
    /// assert exists to catch). Protocols that want "next round" say
    /// so explicitly with `wake_in(1)`. Both boundary cases are pinned
    /// by engine unit tests (`wake_at_current_round_panics`,
    /// `wake_at_next_round_fires_exactly_once`).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not strictly in the future: a wakeup for
    /// the current round could never fire (the frontier for this round
    /// is already being processed).
    pub fn wake_at(&mut self, round: Round) {
        assert!(
            round > self.round,
            "{} requested a wakeup at round {round}, not after the current round {}",
            self.node,
            self.round,
        );
        *self.wake = Some(round);
    }

    /// Registers a wakeup `delay ≥ 1` rounds from now:
    /// `wake_at(round() + delay)`. `wake_in(1)` reproduces the dense
    /// every-round cadence.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` (see [`wake_at`](Self::wake_at)).
    pub fn wake_in(&mut self, delay: u64) {
        self.wake_at(self.round + delay);
    }

    /// This node's deterministic random number generator (seeded from
    /// the simulation seed and the node id).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Resolves a `k`-way nondeterministic branch.
    ///
    /// In a normal run this draws a uniform index in `0..k` from the
    /// node RNG — byte-identical to calling
    /// `self.rng().random_range(0..k)` directly, so routing a
    /// protocol's peer selection through `choose` changes no trace.
    /// Under a model checker ([`Stepper`] with a [`ChoiceTape`]
    /// installed) the branch is scripted instead: the tape records the
    /// arity `k` and returns the scheduled alternative, which is how
    /// `gossip check` enumerates *every* peer-selection interleaving
    /// rather than sampling one.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (there is no branch to take) or if a tape
    /// scripts an out-of-range alternative.
    pub fn choose(&mut self, k: usize) -> usize {
        assert!(k > 0, "{} asked to choose among zero options", self.node);
        match self.tape.as_deref_mut() {
            Some(tape) => tape.next(k),
            None => self.rng.random_range(0..k),
        }
    }
}

/// A script of nondeterministic-branch outcomes for one [`Stepper`]
/// transition, consumed by [`Context::choose`].
///
/// The tape starts with a caller-supplied `script`; each `choose(k)`
/// takes the scripted alternative at its position (or `0` past the
/// script's end — the default branch), and records both the outcome
/// and the arity `k`. A model checker replays a state with the empty
/// script, inspects [`arities`](Self::arities), and enqueues sibling
/// scripts that flip each position through its remaining
/// alternatives — the standard incremental discovery of a choice
/// tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChoiceTape {
    script: Vec<u32>,
    taken: Vec<u32>,
    arities: Vec<u32>,
}

impl ChoiceTape {
    /// A tape that will play back `script` and then default to branch 0.
    pub fn new(script: Vec<u32>) -> ChoiceTape {
        ChoiceTape {
            script,
            taken: Vec::new(),
            arities: Vec::new(),
        }
    }

    /// Resolves the next choice point of arity `k`.
    ///
    /// # Panics
    ///
    /// Panics if the scripted alternative is `≥ k`: a script recorded
    /// against one state never fits a different one, and silently
    /// clamping would explore a phantom branch.
    pub fn next(&mut self, k: usize) -> usize {
        let pos = self.taken.len();
        let arity = u32::try_from(k).expect("choice arity fits u32");
        let c = self.script.get(pos).copied().unwrap_or(0);
        assert!(
            c < arity,
            "scripted choice {c} at position {pos} out of range 0..{arity}"
        );
        self.taken.push(c);
        self.arities.push(arity);
        usize::try_from(c).expect("choice index fits usize")
    }

    /// The alternatives actually taken, one per choice point hit.
    pub fn taken(&self) -> &[u32] {
        &self.taken
    }

    /// The arity of each choice point hit, parallel to
    /// [`taken`](Self::taken).
    pub fn arities(&self) -> &[u32] {
        &self.arities
    }
}

/// Configuration for a [`Simulator`] run: the communication model
/// plus the round cap, seed and [`EngineMode`]. A run executes on the
/// calling thread; callers parallelize across independent runs (seeds,
/// trials).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard cap on rounds; exceeding it stops with
    /// [`StopReason::MaxRounds`].
    pub max_rounds: Round,
    /// Whether nodes know the latencies of adjacent edges (Section 5)
    /// or must measure them (Sections 3–4).
    pub latency_known: bool,
    /// The polynomial upper bound `n̂` exposed to protocols; defaults to
    /// the exact `n`.
    pub size_hint: Option<usize>,
    /// Master seed; every node derives an independent RNG from it.
    pub seed: u64,
    /// Per-round cap on the number of *new* exchanges a node may engage
    /// in (its own initiation plus accepted incoming initiations).
    /// `None` is the paper's main model (unbounded incoming); `Some(c)`
    /// is the restricted model of the conclusion / Daum et al. \[24\].
    /// Excess initiations are rejected in a seeded-random order and the
    /// initiator is notified via [`Protocol::on_rejected`].
    pub connection_cap: Option<usize>,
    /// Blocking communication: a node with one of its *own* exchanges
    /// still in flight may not initiate another (Appendix E's variant —
    /// Path Discovery tolerates it; the default Section 1 model is
    /// non-blocking). Blocked initiations are rejected (the node wastes
    /// the round): counted in [`SimMetrics::rejected`] and reported via
    /// [`Protocol::on_rejected`].
    pub blocking: bool,
    /// Execution mode for [`Scheduling::OnDemand`] protocols:
    /// [`EngineMode::Frontier`] (the default) steps only the active
    /// frontier and skips dead round gaps; [`EngineMode::Dense`] keeps
    /// the Θ(n)-per-round sweep as a reference baseline. Both modes
    /// make the identical callback sequence — byte-identical rounds,
    /// metrics, and per-node states. Ignored (the dense sweep is the
    /// only semantics) for [`Scheduling::EveryRound`] protocols.
    pub mode: EngineMode,
}

/// Round-loop strategy for [`Scheduling::OnDemand`] protocols; see
/// [`SimConfig::mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Scan all n nodes every round (reference baseline; Θ(n·rounds)).
    Dense,
    /// Step only the active frontier; skip event-free rounds.
    #[default]
    Frontier,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 10_000_000,
            latency_known: false,
            size_hint: None,
            seed: 0,
            connection_cap: None,
            blocking: false,
            mode: EngineMode::Frontier,
        }
    }
}

/// Why a simulation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The caller's stop condition returned `true`.
    Condition,
    /// Every node reported [`Protocol::is_done`].
    AllDone,
    /// The round cap was reached.
    MaxRounds,
}

/// Counters accumulated during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Exchanges initiated (edge activations).
    pub initiated: u64,
    /// Exchanges successfully delivered.
    pub delivered: u64,
    /// Exchanges lost to crashes or dropped links.
    pub lost: u64,
    /// Initiations rejected by the per-round connection cap.
    pub rejected: u64,
    /// Total payload size delivered, in protocol-defined units
    /// ([`Protocol::payload_weight`]); both directions of every
    /// delivered exchange count.
    pub payload_units: u64,
}

/// Engine-internal execution counters, reported per run. Unlike
/// [`SimMetrics`] these describe *how* the engine executed, not what
/// the protocol did, and are **not** part of the determinism contract
/// across [`EngineMode`]s (`skipped_rounds` is zero in dense mode by
/// construction). Populated for [`Scheduling::OnDemand`] protocols;
/// [`Scheduling::EveryRound`] runs report zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `on_round` callbacks executed.
    pub stepped: u64,
    /// Due wakeups consumed ([`Context::wake_at`] deliveries).
    pub woken: u64,
    /// Rounds with at least one event (delivery, wakeup, or round 0).
    pub event_rounds: u64,
    /// Dead-gap rounds skipped without being visited (frontier mode).
    pub skipped_rounds: u64,
    /// Largest single-round frontier.
    pub peak_frontier: usize,
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct Outcome<P> {
    /// Why the run stopped.
    pub reason: StopReason,
    /// The round at which it stopped (number of elapsed rounds).
    pub rounds: Round,
    /// Counters.
    pub metrics: SimMetrics,
    /// Engine execution counters (frontier occupancy, skipped rounds).
    pub stats: EngineStats,
    /// Final per-node protocol states.
    pub nodes: Vec<P>,
}

impl<P> Outcome<P> {
    /// Whether the run stopped because the caller's condition held.
    pub fn stopped_by_condition(&self) -> bool {
        self.reason == StopReason::Condition
    }

    /// Whether the run finished before hitting the round cap.
    pub fn completed(&self) -> bool {
        self.reason != StopReason::MaxRounds
    }
}

#[derive(Clone)]
struct InFlight<P> {
    a: NodeId,
    b: NodeId,
    payload_a: P,
    payload_b: P,
    initiated_at: Round,
}

/// Ring slots beyond this are not allocated; rarer, longer delays
/// spill into the overflow map. Bounds scheduler memory at ~96 KiB of
/// slot headers even for graphs with enormous `ℓ_max`.
const MAX_RING_SLOTS: u64 = 4096;

/// Calendar-queue scheduler for items due at a future round: in-flight
/// exchanges (due at `t + ℓ`) and registered wakeups (due at the round
/// [`Context::wake_at`] asked for).
///
/// A ring of `min(d_max + 1, MAX_RING_SLOTS)` reusable buckets indexed
/// by `due % slots`, where `d_max` is the longest delay the ring is
/// sized for (`ℓ_max` for exchanges). A ring entry scheduled at `now`
/// is due strictly within `(now, now + slots)`, so it is collected
/// before the ring wraps back to its slot — each slot holds items for
/// exactly one due round at a time. Slots keep their `Vec` capacity
/// across rounds, so after warm-up the scheduler allocates nothing.
/// Delays `≥ slots` (pathological latencies, long wakeups) fall back
/// to a `BTreeMap` overflow.
#[derive(Clone)]
struct CalendarQueue<T> {
    ring: Vec<Vec<T>>,
    overflow: BTreeMap<Round, Vec<T>>,
    /// Emptied overflow batches, kept for reuse: `schedule` pulls a
    /// recycled buffer instead of allocating a fresh `Vec` per
    /// overflow round, and `collect_due` pushes the drained batch
    /// back.
    spare: Vec<Vec<T>>,
    /// Items currently queued (ring + overflow); answers "is anything
    /// pending?" in O(1).
    len: usize,
}

/// Maps a due round onto its calendar-ring slot.
///
/// `slots ≤ MAX_RING_SLOTS`, so the modulo result always fits `usize`;
/// the checked conversion keeps the (impossible) truncation loud
/// instead of silent, per the tidy `narrowing-cast` rule.
#[inline]
fn round_to_slot(round: Round, slots: u64) -> usize {
    usize::try_from(round % slots).expect("ring slot index fits usize")
}

/// Widens a validated adjacency index (stored as `u32` by
/// [`Context::initiate`]) back to a `usize` for indexing the graph's
/// parallel latency array.
#[inline]
fn latency_to_index(i: u32) -> usize {
    usize::try_from(i).expect("adjacency index fits usize")
}

/// Widens a frontier node id (stored as `u32` — [`Stepper`] asserts
/// `n` fits at startup) back to a `usize` index.
#[inline]
fn frontier_index(i: u32) -> usize {
    usize::try_from(i).expect("node index fits usize")
}

/// Narrows a node index into the frontier's `u32` id space; infallible
/// after [`Stepper`]'s startup assertion.
#[inline]
fn frontier_id(i: usize) -> u32 {
    u32::try_from(i).expect("node index fits u32")
}

impl<T> CalendarQueue<T> {
    fn new(max_delay: u64) -> CalendarQueue<T> {
        let slots = max_delay.saturating_add(1).min(MAX_RING_SLOTS);
        CalendarQueue {
            ring: (0..slots).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn slots(&self) -> u64 {
        u64::try_from(self.ring.len()).expect("ring length fits u64")
    }

    /// Enqueues `x` to fall due `delay ≥ 1` rounds after `now`.
    #[inline]
    fn schedule(&mut self, now: Round, delay: u64, x: T) {
        debug_assert!(delay > 0);
        self.len += 1;
        if delay < self.slots() {
            let slot = round_to_slot(now + delay, self.slots());
            self.ring[slot].push(x);
        } else {
            self.overflow
                .entry(now + delay)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push(x);
        }
    }

    /// Appends every item due at `round` onto `due` (scheduling
    /// order), leaving the slot's capacity in place for reuse.
    fn collect_due(&mut self, round: Round, due: &mut Vec<T>) {
        let before = due.len();
        // Overflow entries carry a delay ≥ the ring length while ring
        // entries carry less, so everything in the overflow batch was
        // scheduled strictly earlier than anything in the slot —
        // draining overflow first keeps the batch chronological.
        if let Some(mut batch) = self.overflow.remove(&round) {
            due.append(&mut batch);
            // `append` leaves `batch` empty with its capacity intact;
            // recycle it so the next overflow round allocates nothing.
            self.spare.push(batch);
        }
        let slot = round_to_slot(round, self.slots());
        due.append(&mut self.ring[slot]);
        self.len -= due.len() - before;
    }

    /// Whether nothing is queued.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest round strictly after `round` with a queued item, or
    /// `None` if nothing is queued. O(slots) worst case, O(gap)
    /// typical; only consulted when the frontier engine skips ahead.
    ///
    /// Correctness rests on the slot invariant (each occupied slot
    /// holds items for exactly one due round, strictly within
    /// `(round, round + slots)` once round `round` itself has been
    /// drained), so a non-empty slot at ring distance `d` means an item
    /// due at exactly `round + d`.
    fn next_occupied_after(&self, round: Round) -> Option<Round> {
        if self.is_empty() {
            return None;
        }
        let ring = (1..self.slots())
            .find(|&d| !self.ring[round_to_slot(round + d, self.slots())].is_empty())
            .map(|d| round + d);
        let over = self.overflow.range(round + 1..).next().map(|(&r, _)| r);
        match (ring, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Every queued item with its due round, in the order
    /// [`collect_due`](Self::collect_due) will hand them out (due round
    /// ascending; within a round, overflow batch before ring slot).
    /// Due rounds are reconstructed from ring positions via the slot
    /// invariant: with nothing due before `now`, each occupied slot
    /// holds exactly one due round, within `[now, now + slots)`.
    fn in_order(&self, now: Round) -> Vec<(Round, &T)> {
        let slots = self.slots();
        let mut entries: Vec<(Round, u8, &T)> = Vec::new();
        for (&at, batch) in &self.overflow {
            entries.extend(batch.iter().map(|x| (at, 0, x)));
        }
        for (s, slot) in self.ring.iter().enumerate() {
            if slot.is_empty() {
                continue;
            }
            let s = u64::try_from(s).expect("ring slot index fits u64");
            let at = now + (s + slots - now % slots) % slots;
            entries.extend(slot.iter().map(|x| (at, 1, x)));
        }
        // Stable sort: scheduling order within a slot is preserved.
        entries.sort_by_key(|&(at, tier, _)| (at, tier));
        entries.into_iter().map(|(at, _, x)| (at, x)).collect()
    }
}

/// Drives a set of [`Protocol`] instances over a
/// [`latency_graph::Graph`] under the paper's communication
/// model.
pub struct Simulator<'g> {
    graph: &'g Graph,
    config: SimConfig,
    faults: FaultPlan,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph`. O(1): the graph's
    /// structure-of-arrays adjacency ([`Graph::neighbor_ids`] /
    /// [`Graph::neighbor_latencies`]) is borrowed directly, never
    /// copied.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Simulator<'g> {
        Simulator {
            graph,
            config,
            faults: FaultPlan::none(),
        }
    }

    /// Injects a fault plan (crashes, link drops) into the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Simulator<'g> {
        self.faults = faults;
        self
    }

    /// Runs the simulation.
    ///
    /// `factory(id, n)` builds each node's protocol instance; `stop`
    /// is evaluated after each round's deliveries over all node states
    /// and ends the run when it returns `true`. For
    /// [`Scheduling::OnDemand`] protocols it (and the
    /// [`StopReason::AllDone`] check) runs on event rounds only.
    ///
    /// This is a thin driver over [`Stepper`], the engine's one round
    /// loop, for both [`Scheduling`]s and both [`EngineMode`]s — the
    /// same machinery the model checker snapshots and branches, so
    /// checked code is shipped code. The run stays on the calling
    /// thread; parallelism belongs across independent runs (seeds,
    /// trials, bench cells), not inside one.
    pub fn run<P, F, S>(&self, factory: F, mut stop: S) -> Outcome<P>
    where
        P: Protocol,
        F: FnMut(NodeId, usize) -> P,
        S: FnMut(&[P], Round) -> bool,
    {
        let mut st = self.stepper(factory);
        loop {
            st.deliver();
            if st.event_round() {
                if stop(st.nodes(), st.round()) {
                    return st.into_outcome(StopReason::Condition);
                }
                if st.all_done() {
                    return st.into_outcome(StopReason::AllDone);
                }
            }
            if st.at_round_cap() {
                return st.into_outcome(StopReason::MaxRounds);
            }
            st.advance();
        }
    }

    /// Builds a [`Stepper`] over this simulator's graph, config, and
    /// fault plan: the round loop as an inspectable value, for callers
    /// (the `gossip-mc` model checker) that need to pause between
    /// phases, snapshot/restore the full simulation state, or inject
    /// faults and scripted choices mid-run. [`Simulator::run`] drives
    /// exactly this machinery.
    pub fn stepper<P, F>(&self, factory: F) -> Stepper<'g, P>
    where
        P: Protocol,
        F: FnMut(NodeId, usize) -> P,
    {
        Stepper::new(self.graph, self.config, self.faults.clone(), factory)
    }
}

/// One exchange completion observed by [`Stepper::deliver_observed`]:
/// who initiated (`a`), the partner (`b`), when it was initiated and
/// completed, and whether a fault swallowed it (`lost`). The model
/// checker's latency, at-most-once, and spanner-orientation properties
/// are predicates over these records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The initiating endpoint.
    pub a: NodeId,
    /// The partner endpoint.
    pub b: NodeId,
    /// The round the exchange was initiated.
    pub initiated_at: Round,
    /// The round the exchange completed (the round it was observed).
    pub completed_at: Round,
    /// Whether a crash or link fault swallowed the delivery: `true`
    /// means neither endpoint received an `on_exchange`.
    pub lost: bool,
}

/// A read-only view of one exchange still queued in a [`Stepper`],
/// with its completion round reconstructed from its calendar-ring
/// position. Yielded by [`Stepper::in_flight`] in delivery order
/// (completion round ascending; within a round, overflow batch before
/// ring slot — exactly the order `deliver` will drain them), which
/// gives the model checker a canonical encoding of the queue.
#[derive(Clone, Copy, Debug)]
pub struct InFlightView<'a, T> {
    /// The initiating endpoint.
    pub a: NodeId,
    /// The partner endpoint.
    pub b: NodeId,
    /// The round the exchange was initiated.
    pub initiated_at: Round,
    /// The round the exchange will complete.
    pub completes_at: Round,
    /// The initiator's payload snapshot (taken at initiation).
    pub payload_a: &'a T,
    /// The partner's payload snapshot (taken at initiation).
    pub payload_b: &'a T,
}

/// Builds a per-node callback view from a [`Stepper`]'s split field
/// borrows. A free function (not a method on `Stepper`) so callers can
/// hold `&mut nodes[i]` at the same time.
#[allow(clippy::too_many_arguments)] // mirrors the engine's per-node state split
fn node_ctx<'a>(
    graph: &'a Graph,
    config: &SimConfig,
    size_hint: usize,
    i: usize,
    round: Round,
    rng: &'a mut StdRng,
    pending: &'a mut Option<(NodeId, u32)>,
    wake: &'a mut Option<Round>,
    tape: Option<&'a mut ChoiceTape>,
) -> Context<'a> {
    let v = NodeId::new(i);
    Context::new(
        v,
        round,
        graph.node_count(),
        size_hint,
        graph.neighbor_ids(v),
        config.latency_known.then(|| graph.neighbor_latencies(v)),
        rng,
        pending,
        wake,
    )
    .with_tape(tape)
}

/// The engine's round loop, reified as a steppable value.
///
/// [`Simulator::run`] is a thin driver over this type, so anything a
/// verifier proves about `Stepper` transitions it proves about the
/// shipping engine — checked code is shipped code. The stepper honors
/// [`Protocol::SCHEDULING`]: an [`Scheduling::EveryRound`] protocol
/// has every live node stepped every round; an
/// [`Scheduling::OnDemand`] one has only its active frontier stepped
/// (deliveries and due wakeups), with stop checks confined to event
/// rounds and — under [`EngineMode::Frontier`] — dead round gaps
/// skipped outright.
///
/// Beyond plain stepping, the `gossip-mc` model checker:
///
/// * clones it (`Clone` is a deep snapshot — every piece of mutable
///   simulation state is plain owned data);
/// * installs a [`ChoiceTape`] so [`Context::choose`] branches are
///   enumerated instead of sampled;
/// * injects crashes and link drops mid-run
///   ([`inject_crash`](Self::inject_crash) /
///   [`inject_link_drop`](Self::inject_link_drop));
/// * observes deliveries ([`deliver_observed`](Self::deliver_observed)),
///   the queued exchanges ([`in_flight`](Self::in_flight)) and the
///   registered wakeups ([`wakeups`](Self::wakeups)) to evaluate
///   properties and encode states.
///
/// One full round is `deliver()`; then, if
/// [`event_round`](Self::event_round), the caller's stop checks (a
/// custom condition over [`nodes`](Self::nodes), then
/// [`all_done`](Self::all_done)); then
/// [`at_round_cap`](Self::at_round_cap); then
/// [`advance`](Self::advance) — the exact phase order of
/// [`Simulator::run`].
#[derive(Clone)]
pub struct Stepper<'g, P: Protocol> {
    graph: &'g Graph,
    config: SimConfig,
    faults: FaultPlan,
    size_hint: usize,
    nodes: Vec<P>,
    rngs: Vec<StdRng>,
    pending: Vec<Option<(NodeId, u32)>>,
    /// Wake-request slots written by [`Context::wake_at`]. OnDemand:
    /// drained into `wakes` at the end of each round. EveryRound:
    /// never read — every node is stepped regardless.
    wake: Vec<Option<Round>>,
    queue: CalendarQueue<InFlight<P::Payload>>,
    /// Delivery batch, reused every round.
    due: Vec<InFlight<P::Payload>>,
    /// Blocking mode: outstanding own-initiated exchanges per node.
    outstanding: Vec<u32>,
    /// Stamped engagement counters (capped model only): a counter is
    /// valid iff its mark equals `round + 1`, so per-round resets are
    /// O(touched), not O(n).
    engage_mark: Vec<Round>,
    engage_cnt: Vec<usize>,
    /// Launch candidates (stepped nodes holding an initiation), in
    /// admission order; refilled every round.
    cand: Vec<u32>,
    /// The nodes `advance` steps this round, ascending: every node for
    /// EveryRound protocols (fixed at construction), the active
    /// frontier for OnDemand ones (rebuilt by `deliver`).
    frontier: Vec<u32>,
    /// OnDemand: `stamp[i] == round` ⇔ node `i` is on this round's
    /// frontier.
    stamp: Vec<Round>,
    /// OnDemand: registered wakeups (node ids), and the due batch.
    wakes: CalendarQueue<u32>,
    wake_due: Vec<u32>,
    /// OnDemand all-done bookkeeping: protocol state changes only
    /// inside callbacks, and every callback recipient is on the
    /// frontier, so refreshing frontier members' flags keeps
    /// `done_count` exact with O(frontier) work per round.
    done_flags: Vec<bool>,
    done_count: usize,
    /// OnDemand: whether the current round is an event round (set by
    /// `deliver`).
    event: bool,
    metrics: SimMetrics,
    stats: EngineStats,
    round: Round,
    /// Checker-installed choice script threaded into every callback
    /// [`Context`]; `None` in normal runs, making [`Context::choose`]
    /// fall through to the node RNG.
    tape: Option<ChoiceTape>,
}

impl<'g, P: Protocol> Stepper<'g, P> {
    /// Whether `P` opts into frontier-sparse stepping.
    const ON_DEMAND: bool = matches!(P::SCHEDULING, Scheduling::OnDemand);

    /// Builds the round-0 state: node instances, per-node RNGs, empty
    /// queues, and the pre-round `on_start` sweep over live nodes
    /// (whose wake requests are honored like any other). `on_start`
    /// runs without a choice tape (none can be installed yet); none of
    /// the shipped protocols branch there.
    fn new<F>(
        graph: &'g Graph,
        config: SimConfig,
        faults: FaultPlan,
        mut factory: F,
    ) -> Stepper<'g, P>
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let n = graph.node_count();
        assert!(
            u32::try_from(n).is_ok(),
            "the engine indexes nodes with u32 ids"
        );
        let size_hint = config.size_hint.unwrap_or(n);
        let mut nodes: Vec<P> = (0..n).map(|i| factory(NodeId::new(i), n)).collect();
        let n_u64 = u64::try_from(n).expect("node count fits u64");
        let mut rngs: Vec<StdRng> = (0..n_u64)
            .map(|i| StdRng::seed_from_u64(splitmix64(config.seed ^ splitmix64(i))))
            .collect();
        let mut pending: Vec<Option<(NodeId, u32)>> = vec![None; n];
        let mut wake: Vec<Option<Round>> = vec![None; n];
        let l_max = graph.max_latency().map_or(0, Latency::rounds);
        let capped = config.connection_cap.is_some();
        let on_demand = Self::ON_DEMAND;
        // The wake ring is sized like the exchange ring: the shipped
        // OnDemand protocols wake one round ahead, longer waits spill
        // into the overflow map, and a checker's cloned steppers stay
        // small. EveryRound protocols never schedule a wakeup.
        let mut wakes = CalendarQueue::new(if on_demand { l_max } else { 0 });
        let mut done_flags = vec![false; if on_demand { n } else { 0 }];
        let mut done_count = 0;

        for i in 0..n {
            if !faults.is_crashed(NodeId::new(i), 0) {
                let mut ctx = node_ctx(
                    graph,
                    &config,
                    size_hint,
                    i,
                    0,
                    &mut rngs[i],
                    &mut pending[i],
                    &mut wake[i],
                    None,
                );
                nodes[i].on_start(&mut ctx);
            }
            if on_demand {
                if let Some(t) = wake[i].take() {
                    wakes.schedule(0, t, frontier_id(i));
                }
                if nodes[i].is_done() {
                    done_flags[i] = true;
                    done_count += 1;
                }
            }
        }

        Stepper {
            graph,
            config,
            faults,
            size_hint,
            nodes,
            rngs,
            pending,
            wake,
            queue: CalendarQueue::new(l_max),
            due: Vec::new(),
            outstanding: vec![0u32; if config.blocking { n } else { 0 }],
            engage_mark: vec![0; if capped { n } else { 0 }],
            engage_cnt: vec![0; if capped { n } else { 0 }],
            cand: Vec::new(),
            frontier: if on_demand {
                Vec::new()
            } else {
                (0..n).map(frontier_id).collect()
            },
            stamp: vec![Round::MAX; if on_demand { n } else { 0 }],
            wakes,
            wake_due: Vec::new(),
            done_flags,
            done_count,
            event: false,
            metrics: SimMetrics::default(),
            stats: EngineStats::default(),
            round: 0,
            tape: None,
        }
    }

    /// The current round — the one `deliver` and `advance` operate on.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The node protocol instances, in id order.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> SimMetrics {
        self.metrics
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The fault plan currently in force, including injected faults.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether the current round, as of its `deliver`, is an event
    /// round: one whose stop checks count. Always `true` for
    /// [`Scheduling::EveryRound`] protocols; for
    /// [`Scheduling::OnDemand`] ones, round 0 and any round with a
    /// completing exchange or a due wakeup.
    pub fn event_round(&self) -> bool {
        !Self::ON_DEMAND || self.event
    }

    /// Whether every node reports [`Protocol::is_done`]. O(1) for
    /// [`Scheduling::OnDemand`] protocols (a done counter), O(n)
    /// otherwise.
    pub fn all_done(&self) -> bool {
        if Self::ON_DEMAND {
            self.done_count == self.nodes.len()
        } else {
            self.nodes.iter().all(Protocol::is_done)
        }
    }

    /// Whether the round counter has reached [`SimConfig::max_rounds`].
    pub fn at_round_cap(&self) -> bool {
        self.round >= self.config.max_rounds
    }

    /// Installs a choice tape: until [taken
    /// back](Self::take_choice_tape), every [`Context::choose`] inside
    /// `deliver`/`advance` callbacks is scripted by it instead of drawn
    /// from the node RNG.
    pub fn set_choice_tape(&mut self, tape: ChoiceTape) {
        self.tape = Some(tape);
    }

    /// Removes and returns the installed choice tape, carrying its
    /// recorded `taken`/`arities` trail.
    pub fn take_choice_tape(&mut self) -> Option<ChoiceTape> {
        self.tape.take()
    }

    /// Crashes node `v` as of the current round: it is no longer
    /// stepped, and every exchange touching it from now on is lost.
    pub fn inject_crash(&mut self, v: NodeId) {
        let plan = mem::replace(&mut self.faults, FaultPlan::none());
        self.faults = plan.crash(v, self.round);
    }

    /// Permanently drops the link `{u, v}` as of the current round.
    pub fn inject_link_drop(&mut self, u: NodeId, v: NodeId) {
        let plan = mem::replace(&mut self.faults, FaultPlan::none());
        self.faults = plan.drop_link(u, v, self.round);
    }

    /// Phase 1 of the round: delivers every exchange completing now
    /// (fault-filtered), invoking `on_exchange` at both endpoints. For
    /// [`Scheduling::OnDemand`] protocols it then gathers the round's
    /// frontier (delivered endpoints plus due wakeups; every node in
    /// round 0) and decides whether this is an event round.
    pub fn deliver(&mut self) {
        self.deliver_inner(None);
    }

    /// [`deliver`](Self::deliver), additionally appending one
    /// [`DeliveryRecord`] per completing exchange — lost ones included
    /// — to `log`: the model checker's observation channel.
    pub fn deliver_observed(&mut self, log: &mut Vec<DeliveryRecord>) {
        self.deliver_inner(Some(log));
    }

    /// Delivers exchanges completing this round. Payload snapshots are
    /// moved into the `Exchange`s handed to the endpoints — the
    /// delivery path never clones a payload.
    fn deliver_inner(&mut self, mut log: Option<&mut Vec<DeliveryRecord>>) {
        let round = self.round;
        let on_demand = Self::ON_DEMAND;
        let mut due = mem::take(&mut self.due);
        self.queue.collect_due(round, &mut due);
        let had_due = !due.is_empty();
        if on_demand {
            self.frontier.clear();
            if round == 0 {
                // Round 0 is a universal wakeup: every node is stepped
                // once, so protocols can bootstrap without a wake.
                self.stamp.fill(0);
                self.frontier.extend((0..self.nodes.len()).map(frontier_id));
            }
        }
        for x in due.drain(..) {
            if self.config.blocking {
                // The initiator's slot frees at completion time,
                // whether or not the exchange is delivered.
                self.outstanding[x.a.index()] = self.outstanding[x.a.index()].saturating_sub(1);
            }
            let a_ok = !self.faults.is_crashed(x.a, round);
            let b_ok = !self.faults.is_crashed(x.b, round);
            let link_ok = !self.faults.is_link_down(x.a, x.b, round);
            let lost = !(a_ok && b_ok && link_ok);
            if let Some(log) = log.as_deref_mut() {
                log.push(DeliveryRecord {
                    a: x.a,
                    b: x.b,
                    initiated_at: x.initiated_at,
                    completed_at: round,
                    lost,
                });
            }
            if lost {
                // A lost exchange wakes no one.
                self.metrics.lost += 1;
                continue;
            }
            self.metrics.delivered += 1;
            self.metrics.payload_units +=
                P::payload_weight(&x.payload_a) + P::payload_weight(&x.payload_b);
            let InFlight {
                a,
                b,
                payload_a,
                payload_b,
                initiated_at,
            } = x;
            for (me, exchange) in [
                (
                    a,
                    Exchange {
                        peer: b,
                        payload: payload_b,
                        initiated_at,
                        completed_at: round,
                        initiated_by_me: true,
                    },
                ),
                (
                    b,
                    Exchange {
                        peer: a,
                        payload: payload_a,
                        initiated_at,
                        completed_at: round,
                        initiated_by_me: false,
                    },
                ),
            ] {
                let i = me.index();
                if on_demand && self.stamp[i] != round {
                    self.stamp[i] = round;
                    self.frontier.push(frontier_id(i));
                }
                let mut ctx = node_ctx(
                    self.graph,
                    &self.config,
                    self.size_hint,
                    i,
                    round,
                    &mut self.rngs[i],
                    &mut self.pending[i],
                    &mut self.wake[i],
                    self.tape.as_mut(),
                );
                self.nodes[i].on_exchange(&mut ctx, &exchange);
            }
        }
        self.due = due;
        if on_demand {
            self.gather_frontier(had_due);
        }
    }

    /// OnDemand: adds due wakeups to the frontier, puts it in canonical
    /// order (ascending node id), and on event rounds refreshes the
    /// done flags delivery callbacks may have changed.
    ///
    /// [`EngineMode::Dense`] pays the pre-frontier engine's Θ(n) sweep
    /// to rediscover the frontier; [`EngineMode::Frontier`] sorts the
    /// incremental list. Both yield the identical frontier.
    fn gather_frontier(&mut self, had_due: bool) {
        let round = self.round;
        self.wake_due.clear();
        self.wakes.collect_due(round, &mut self.wake_due);
        self.stats.woken += u64::try_from(self.wake_due.len()).expect("wake count fits u64");
        for &id in &self.wake_due {
            let i = frontier_index(id);
            if self.stamp[i] != round {
                self.stamp[i] = round;
                self.frontier.push(id);
            }
        }
        if self.config.mode == EngineMode::Dense {
            self.frontier.clear();
            for (i, &s) in self.stamp.iter().enumerate() {
                if s == round {
                    self.frontier.push(frontier_id(i));
                }
            }
        } else {
            self.frontier.sort_unstable();
        }
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.frontier.len());
        self.event = round == 0 || had_due || !self.frontier.is_empty();
        if self.event {
            self.stats.event_rounds += 1;
            self.refresh_done();
        }
    }

    /// OnDemand: re-reads [`Protocol::is_done`] for every frontier
    /// member, keeping `done_count` exact.
    fn refresh_done(&mut self) {
        for k in 0..self.frontier.len() {
            let i = frontier_index(self.frontier[k]);
            let now_done = self.nodes[i].is_done();
            if now_done != self.done_flags[i] {
                self.done_flags[i] = now_done;
                if now_done {
                    self.done_count += 1;
                } else {
                    self.done_count -= 1;
                }
            }
        }
    }

    /// Phases 3–4 of the round — `on_round` for every live node on the
    /// round's stepped set (all nodes, or the OnDemand frontier), then
    /// the launch of admitted initiations with payload snapshots taken
    /// now — followed by the move to the next round: the next one, or
    /// for OnDemand protocols under [`EngineMode::Frontier`] the next
    /// round with a completion or a wakeup due (clamped to
    /// [`SimConfig::max_rounds`], where the cap fires at the same
    /// round number as in dense mode).
    pub fn advance(&mut self) {
        let round = self.round;
        let on_demand = Self::ON_DEMAND;

        // 3. Per-node round logic.
        for k in 0..self.frontier.len() {
            let i = frontier_index(self.frontier[k]);
            if self.faults.is_crashed(NodeId::new(i), round) {
                self.pending[i] = None;
                continue;
            }
            if on_demand {
                self.stats.stepped += 1;
            }
            let mut ctx = node_ctx(
                self.graph,
                &self.config,
                self.size_hint,
                i,
                round,
                &mut self.rngs[i],
                &mut self.pending[i],
                &mut self.wake[i],
                self.tape.as_mut(),
            );
            self.nodes[i].on_round(&mut ctx);
        }

        // 4. Launch initiations (snapshot both endpoints now). Only
        // stepped nodes can hold one, so the sweep is O(frontier).
        // Under a connection cap, initiations are admitted in a
        // seeded-random order; an initiation counts one engagement at
        // each endpoint and is rejected when either side is full.
        self.cand.clear();
        self.cand.extend(
            self.frontier
                .iter()
                .copied()
                .filter(|&id| self.pending[frontier_index(id)].is_some()),
        );
        if self.config.connection_cap.is_some() {
            let seed = self.config.seed;
            self.cand.sort_by_key(|&id| {
                splitmix64(seed ^ round.wrapping_mul(0x5851_F42D) ^ u64::from(id))
            });
        }
        let round_mark = round + 1;
        for k in 0..self.cand.len() {
            let i = frontier_index(self.cand[k]);
            let Some((v, vi)) = self.pending[i].take() else {
                continue;
            };
            let u = NodeId::new(i);
            if self.config.blocking && self.outstanding[i] > 0 {
                self.reject(i, v);
                continue;
            }
            if let Some(cap) = self.config.connection_cap {
                let engaged = |j: usize| {
                    if self.engage_mark[j] == round_mark {
                        self.engage_cnt[j]
                    } else {
                        0
                    }
                };
                let (mine, theirs) = (engaged(i), engaged(v.index()));
                if mine >= cap || theirs >= cap {
                    self.reject(i, v);
                    continue;
                }
                self.engage_mark[i] = round_mark;
                self.engage_cnt[i] = mine + 1;
                self.engage_mark[v.index()] = round_mark;
                self.engage_cnt[v.index()] = theirs + 1;
            }
            self.metrics.initiated += 1;
            if self.config.blocking {
                self.outstanding[i] += 1;
            }
            // `vi` was validated by `Context::initiate`; the edge
            // latency comes straight from the graph's parallel
            // latency array — no binary search on the hot path.
            let lat = self.graph.neighbor_latencies(u)[latency_to_index(vi)];
            self.queue.schedule(
                round,
                lat.rounds(),
                InFlight {
                    a: u,
                    b: v,
                    payload_a: self.nodes[i].payload(),
                    payload_b: self.nodes[v.index()].payload(),
                    initiated_at: round,
                },
            );
        }

        if !on_demand {
            self.round += 1;
            return;
        }

        // End of an OnDemand round: refresh done flags (steps and
        // rejections may have changed them) and drain wake requests
        // for every callback recipient — all of whom are on the
        // frontier.
        self.refresh_done();
        for k in 0..self.frontier.len() {
            let id = self.frontier[k];
            if let Some(t) = self.wake[frontier_index(id)].take() {
                self.wakes.schedule(round, t - round, id);
            }
        }

        // Dense visits every round; frontier jumps to the next event.
        if self.config.mode == EngineMode::Dense {
            self.round += 1;
        } else {
            let next = match (
                self.queue.next_occupied_after(round),
                self.wakes.next_occupied_after(round),
            ) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) | (None, Some(a)) => a,
                // Quiescent: no exchange in flight, no wakeup
                // registered — nothing can ever happen again.
                (None, None) => self.config.max_rounds,
            }
            .min(self.config.max_rounds)
            .max(round + 1);
            self.stats.skipped_rounds += next - round - 1;
            self.round = next;
        }
    }

    /// Rejects node `i`'s initiation toward `v` (blocking or connection
    /// cap): counts it and notifies the node, which cannot re-initiate
    /// this round.
    fn reject(&mut self, i: usize, v: NodeId) {
        self.metrics.rejected += 1;
        let mut ctx = node_ctx(
            self.graph,
            &self.config,
            self.size_hint,
            i,
            self.round,
            &mut self.rngs[i],
            &mut self.pending[i],
            &mut self.wake[i],
            self.tape.as_mut(),
        );
        self.nodes[i].on_rejected(&mut ctx, v);
        self.pending[i] = None;
    }

    /// Every exchange still queued, in delivery order (completion
    /// round ascending; within a round, overflow batch before ring
    /// slot).
    pub fn in_flight(&self) -> Vec<InFlightView<'_, P::Payload>> {
        self.queue
            .in_order(self.round)
            .into_iter()
            .map(|(at, x)| InFlightView {
                a: x.a,
                b: x.b,
                initiated_at: x.initiated_at,
                completes_at: at,
                payload_a: &x.payload_a,
                payload_b: &x.payload_b,
            })
            .collect()
    }

    /// Every registered wakeup as `(due round, node)`, in the order
    /// `deliver` will consume them (due round ascending; within a
    /// round, overflow batch before ring slot). Always empty for
    /// [`Scheduling::EveryRound`] protocols, whose wake requests are
    /// never scheduled.
    pub fn wakeups(&self) -> Vec<(Round, NodeId)> {
        self.wakes
            .in_order(self.round)
            .into_iter()
            .map(|(at, &id)| (at, NodeId::new(frontier_index(id))))
            .collect()
    }

    /// Consumes the stepper into a terminal [`Outcome`].
    pub fn into_outcome(self, reason: StopReason) -> Outcome<P> {
        Outcome {
            reason,
            rounds: self.round,
            metrics: self.metrics,
            stats: self.stats,
            nodes: self.nodes,
        }
    }
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::{RumorSet, SharedRumorSet};
    use latency_graph::{generators, Graph};

    /// Flood: every round exchange with a round-robin neighbor. Uses the
    /// copy-on-write payload, so these tests double as engine-level
    /// coverage of `SharedRumorSet` snapshot semantics.
    #[derive(Clone)]
    struct Flood {
        rumors: SharedRumorSet,
        cursor: usize,
    }

    impl Protocol for Flood {
        type Payload = SharedRumorSet;
        fn payload(&self) -> SharedRumorSet {
            self.rumors.snapshot()
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            if ctx.degree() == 0 {
                return;
            }
            let i = self.cursor % ctx.degree();
            self.cursor += 1;
            ctx.initiate_nth(i);
        }
        fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<SharedRumorSet>) {
            self.rumors.union_with(&x.payload);
        }
    }

    fn flood_factory(id: NodeId, n: usize) -> Flood {
        Flood {
            rumors: SharedRumorSet::singleton(n, id),
            cursor: 0,
        }
    }

    fn all_know_source(nodes: &[Flood], src: NodeId) -> bool {
        nodes.iter().all(|f| f.rumors.contains(src))
    }

    #[test]
    fn two_nodes_unit_latency_one_round() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default()).run(flood_factory, |ns, _| {
            all_know_source(ns, NodeId::new(0)) && all_know_source(ns, NodeId::new(1))
        });
        assert_eq!(out.rounds, 1);
        assert_eq!(out.reason, StopReason::Condition);
    }

    #[test]
    fn latency_delays_delivery_exactly() {
        let g = Graph::from_edges(2, [(0, 1, 7)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[1].rumors.contains(NodeId::new(0)));
        assert_eq!(out.rounds, 7);
    }

    #[test]
    fn exchange_is_bidirectional() {
        let g = Graph::from_edges(2, [(0, 1, 3)]).unwrap();
        // Only node 0 initiates (node 1 has cursor too, but exchange from
        // 0 delivers to both; check both learned).
        let out = Simulator::new(&g, SimConfig::default()).run(flood_factory, |ns, _| {
            ns[0].rumors.is_full() && ns[1].rumors.is_full()
        });
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn snapshot_taken_at_initiation() {
        // Path 0 -1- 1 -5- 2. Node 2's exchange with 1 initiated at round
        // 0 carries 1's round-0 state, which does NOT include 0's rumor:
        // rumor 0 reaches node 1 at round 1, so node 2 can only learn it
        // from an exchange initiated at round ≥ 1, completing at ≥ 6.
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 5)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[2].rumors.contains(NodeId::new(0)));
        assert_eq!(out.rounds, 6);
    }

    #[test]
    fn non_blocking_pipelining() {
        // Star with slow spokes: hub initiates a new exchange every round
        // even though each takes 5 rounds. Rumor of spoke i (contacted at
        // round i-1... hub contacts spokes round-robin) arrives at 5, 6, 7.
        let g = Graph::from_edges(4, [(0, 1, 5), (0, 2, 5), (0, 3, 5)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[0].rumors.is_full());
        // Hub contacts 1 at round 0, 2 at round 1, 3 at round 2 ⇒ full at 7.
        // (Spokes also initiate toward the hub at round 0, delivering
        // their rumor at round 5, which can only make this earlier.)
        assert!(out.rounds <= 7, "rounds = {}", out.rounds);
        assert!(out.rounds >= 5);
    }

    #[test]
    fn flood_completes_on_cycle() {
        let g = generators::cycle(16);
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns.iter().all(|f| f.rumors.is_full()));
        assert_eq!(out.reason, StopReason::Condition);
        assert!(out.rounds <= 32);
        assert!(out.metrics.delivered > 0);
    }

    #[test]
    fn max_rounds_respected() {
        let g = generators::path(4);
        // Impossible condition.
        let cfg = SimConfig {
            max_rounds: 10,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(flood_factory, |_, _| false);
        assert_eq!(out.reason, StopReason::MaxRounds);
        assert_eq!(out.rounds, 10);
    }

    #[test]
    fn deterministic_given_seed() {
        struct RandomCall {
            rumors: RumorSet,
            log: Vec<NodeId>,
        }
        impl Protocol for RandomCall {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                use rand::Rng as _;
                let d = ctx.degree();
                let i = ctx.rng().random_range(0..d);
                let v = ctx.neighbor_ids()[i];
                self.log.push(v);
                ctx.initiate(v);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = generators::clique(10);
        let mk = |id: NodeId, n: usize| RandomCall {
            rumors: RumorSet::singleton(n, id),
            log: vec![],
        };
        let cfg = SimConfig {
            seed: 11,
            ..SimConfig::default()
        };
        let a = Simulator::new(&g, cfg).run(mk, |ns, _| ns.iter().all(|x| x.rumors.is_full()));
        let b = Simulator::new(&g, cfg).run(mk, |ns, _| ns.iter().all(|x| x.rumors.is_full()));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.nodes[0].log, b.nodes[0].log);
        let cfg2 = SimConfig {
            seed: 12,
            ..SimConfig::default()
        };
        let c = Simulator::new(&g, cfg2).run(mk, |ns, _| ns.iter().all(|x| x.rumors.is_full()));
        assert_ne!(a.nodes[0].log, c.nodes[0].log);
    }

    #[test]
    fn latency_knowledge_gated() {
        struct Peek {
            saw: Option<Latency>,
        }
        impl Protocol for Peek {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.saw = ctx.latency_to(ctx.neighbor_ids()[0]);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = Graph::from_edges(2, [(0, 1, 9)]).unwrap();
        let hidden =
            Simulator::new(&g, SimConfig::default()).run(|_, _| Peek { saw: None }, |_, r| r >= 1);
        assert_eq!(hidden.nodes[0].saw, None);
        let known = Simulator::new(
            &g,
            SimConfig {
                latency_known: true,
                ..SimConfig::default()
            },
        )
        .run(|_, _| Peek { saw: None }, |_, r| r >= 1);
        assert_eq!(known.nodes[0].saw, Some(Latency::new(9)));
    }

    #[test]
    fn measured_latency_matches_edge() {
        struct Measure {
            measured: Option<Latency>,
            fired: bool,
        }
        impl Protocol for Measure {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                if !self.fired && ctx.id() == NodeId::new(0) {
                    self.fired = true;
                    ctx.initiate(NodeId::new(1));
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<()>) {
                self.measured = Some(x.measured_latency());
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 6)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default()).run(
            |_, _| Measure {
                measured: None,
                fired: false,
            },
            |ns: &[Measure], _| ns[0].measured.is_some(),
        );
        assert_eq!(out.nodes[0].measured, Some(Latency::new(6)));
        assert_eq!(out.nodes[1].measured, Some(Latency::new(6)));
    }

    #[test]
    fn size_hint_defaults_to_n_and_overrides() {
        struct SeeHint {
            hint: usize,
        }
        impl Protocol for SeeHint {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.hint = ctx.size_hint();
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(5);
        let d =
            Simulator::new(&g, SimConfig::default()).run(|_, _| SeeHint { hint: 0 }, |_, r| r >= 1);
        assert_eq!(d.nodes[0].hint, 5);
        let h = Simulator::new(
            &g,
            SimConfig {
                size_hint: Some(25),
                ..SimConfig::default()
            },
        )
        .run(|_, _| SeeHint { hint: 0 }, |_, r| r >= 1);
        assert_eq!(h.nodes[0].hint, 25);
    }

    #[test]
    fn all_done_stops_run() {
        struct OneShot {
            done: bool,
        }
        impl Protocol for OneShot {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, _: &mut Context<'_>) {
                self.done = true;
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let g = generators::path(3);
        let out = Simulator::new(&g, SimConfig::default())
            .run(|_, _| OneShot { done: false }, |_, _| false);
        assert_eq!(out.reason, StopReason::AllDone);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn initiate_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                ctx.initiate(NodeId::new(2)); // not adjacent in a path 0-1-2
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(3);
        let _ = Simulator::new(&g, SimConfig::default()).run(|_, _| Bad, |_, _| false);
    }

    #[test]
    fn connection_cap_serializes_star_broadcast() {
        // Restricted model (conclusion / Daum et al. [24]): with cap 1,
        // the hub engages one exchange per round, so informing all n−1
        // leaves takes Θ(n) rounds instead of 1.
        let n = 32;
        let g = generators::star(n);
        let capped = SimConfig {
            connection_cap: Some(1),
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, capped).run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.contains(NodeId::new(0)))
        });
        assert!(out.rounds >= (n as u64 - 1) / 2, "rounds = {}", out.rounds);
        assert!(out.metrics.rejected > 0);
        let free = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns: &[Flood], _| {
                ns.iter().all(|f| f.rumors.contains(NodeId::new(0)))
            });
        assert_eq!(free.rounds, 1);
        assert_eq!(free.metrics.rejected, 0);
    }

    #[test]
    fn generous_cap_equals_uncapped() {
        let g = generators::cycle(12);
        let capped = SimConfig {
            connection_cap: Some(12),
            ..SimConfig::default()
        };
        let a = Simulator::new(&g, capped).run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.is_full())
        });
        let b = Simulator::new(&g, SimConfig::default()).run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.is_full())
        });
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.metrics.rejected, 0);
    }

    #[test]
    fn rejection_callback_fires() {
        struct CountReject {
            rumors: RumorSet,
            rejections: usize,
        }
        impl Protocol for CountReject {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                // Everyone hammers node 0.
                let target = NodeId::new(0);
                if ctx.id() != target && ctx.neighbor_ids().contains(&target) {
                    ctx.initiate(target);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
            fn on_rejected(&mut self, _: &mut Context<'_>, peer: NodeId) {
                assert_eq!(peer, NodeId::new(0));
                self.rejections += 1;
            }
        }
        let g = generators::star(8);
        let cfg = SimConfig {
            connection_cap: Some(1),
            max_rounds: 3,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(
            |id, n| CountReject {
                rumors: RumorSet::singleton(n, id),
                rejections: 0,
            },
            |_, _| false,
        );
        let total: usize = out.nodes.iter().map(|x| x.rejections).sum();
        assert!(total > 0, "some initiations must be rejected");
        assert_eq!(total as u64, out.metrics.rejected);
    }

    #[test]
    fn blocking_serializes_own_initiations() {
        // Only the hub initiates, over latency-5 spokes. Non-blocking:
        // probes launch at rounds 0,1,2 and the hub is full at 7.
        // Blocking: probes serialize at rounds 0,5,10 ⇒ full at 15.
        struct HubOnly {
            rumors: RumorSet,
            cursor: usize,
        }
        impl Protocol for HubOnly {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                if ctx.id() == NodeId::new(0) {
                    let v = ctx.neighbor_ids()[self.cursor % ctx.degree()];
                    self.cursor += 1;
                    ctx.initiate(v);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let mk = |id: NodeId, n: usize| HubOnly {
            rumors: RumorSet::singleton(n, id),
            cursor: 0,
        };
        let g = Graph::from_edges(4, [(0, 1, 5), (0, 2, 5), (0, 3, 5)]).unwrap();
        let free = Simulator::new(&g, SimConfig::default())
            .run(mk, |ns: &[HubOnly], _| ns[0].rumors.is_full());
        let blocked = Simulator::new(
            &g,
            SimConfig {
                blocking: true,
                ..SimConfig::default()
            },
        )
        .run(mk, |ns: &[HubOnly], _| ns[0].rumors.is_full());
        assert_eq!(free.rounds, 7, "non-blocking pipelines");
        assert_eq!(blocked.rounds, 15, "blocking serializes the probes");
        assert!(blocked.metrics.rejected > 0);
    }

    #[test]
    fn blocking_noop_on_unit_latencies() {
        // With unit latencies every exchange completes before the next
        // round, so blocking never rejects anything.
        let g = generators::cycle(10);
        let free = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns: &[Flood], _| {
                ns.iter().all(|f| f.rumors.is_full())
            });
        let blocked = Simulator::new(
            &g,
            SimConfig {
                blocking: true,
                ..SimConfig::default()
            },
        )
        .run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.is_full())
        });
        assert_eq!(free.rounds, blocked.rounds);
        assert_eq!(blocked.metrics.rejected, 0);
    }

    #[test]
    fn metrics_count_initiations_and_deliveries() {
        let g = Graph::from_edges(2, [(0, 1, 2)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns.iter().all(|f| f.rumors.is_full()));
        // Both nodes initiate at round 0 and 1; completion at round 2.
        assert_eq!(out.rounds, 2);
        assert_eq!(out.metrics.initiated, 4);
        assert_eq!(out.metrics.delivered, 2);
    }

    #[test]
    fn latency_beyond_ring_uses_overflow() {
        // One edge slower than the calendar ring has slots for: the
        // exchange must take the overflow path and still deliver at
        // exactly `latency` rounds.
        let slow = u32::try_from(MAX_RING_SLOTS + 17).unwrap();
        let g = Graph::from_edges(2, [(0, 1, slow)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[1].rumors.contains(NodeId::new(0)));
        assert_eq!(out.rounds, u64::from(slow));
    }

    #[test]
    fn calendar_queue_delivers_in_initiation_order() {
        // Schedule exchanges whose completion rounds collide across the
        // ring/overflow boundary; collection must be chronological by
        // initiation round.
        let target = MAX_RING_SLOTS + 50;
        let mut q: CalendarQueue<InFlight<u64>> = CalendarQueue::new(MAX_RING_SLOTS + 100);
        let mk = |tag: u64, initiated_at: Round| InFlight {
            a: NodeId::new(0),
            b: NodeId::new(1),
            payload_a: tag,
            payload_b: tag,
            initiated_at,
        };
        // Initiated at round 0 with huge latency (overflow)...
        q.schedule(0, target, mk(0, 0));
        // ...and at a later round with a small latency (ring), both
        // completing at `target`. Rounds advance one at a time, as in
        // the engine: collect, then schedule that round's initiations.
        let mut due = Vec::new();
        for round in 0..target {
            q.collect_due(round, &mut due);
            assert!(due.is_empty(), "nothing completes before round {target}");
            if round == target - 3 {
                q.schedule(round, 3, mk(1, round));
            }
        }
        q.collect_due(target, &mut due);
        let tags: Vec<u64> = due.iter().map(|x| x.payload_a).collect();
        assert_eq!(tags, [0, 1], "overflow (older) before ring (newer)");
        due.clear();
    }

    #[test]
    fn calendar_queue_reuses_slot_capacity() {
        let mut q: CalendarQueue<InFlight<()>> = CalendarQueue::new(1);
        assert_eq!(q.slots(), 2);
        let mk = |r: Round| InFlight {
            a: NodeId::new(0),
            b: NodeId::new(1),
            payload_a: (),
            payload_b: (),
            initiated_at: r,
        };
        let mut due = Vec::new();
        for round in 0..100u64 {
            q.schedule(round, 1, mk(round));
            q.collect_due(round, &mut due);
            due.drain(..);
        }
        // Unit-latency traffic ping-pongs between the two slots; after
        // warm-up both retain their buffers and nothing reallocates.
        assert!(q.ring.iter().all(|s| s.capacity() >= 1));
        assert!(q.overflow.is_empty());
    }

    #[test]
    fn calendar_queue_recycles_overflow_buffers() {
        // Repeated overflow rounds must reuse one recycled buffer
        // rather than allocating a fresh Vec per hit, and each batch
        // must come out in initiation order.
        let mut q: CalendarQueue<InFlight<u64>> = CalendarQueue::new(MAX_RING_SLOTS + 10);
        let mk = |tag: u64, initiated_at: Round| InFlight {
            a: NodeId::new(0),
            b: NodeId::new(1),
            payload_a: tag,
            payload_b: tag,
            initiated_at,
        };
        let mut due = Vec::new();
        for burst in 0..5u64 {
            let start = burst * (MAX_RING_SLOTS + 2);
            // Two exchanges initiated in order, completing in the same
            // overflow round.
            q.schedule(start, MAX_RING_SLOTS + 2, mk(2 * burst, start));
            q.schedule(start + 1, MAX_RING_SLOTS + 1, mk(2 * burst + 1, start + 1));
            q.collect_due(start + MAX_RING_SLOTS + 2, &mut due);
            let tags: Vec<u64> = due.drain(..).map(|x| x.payload_a).collect();
            assert_eq!(tags, [2 * burst, 2 * burst + 1], "initiation order");
            assert!(q.overflow.is_empty());
            assert_eq!(q.spare.len(), 1, "one buffer recycled, not re-allocated");
            assert!(q.spare[0].capacity() >= 2, "capacity survives recycling");
        }
    }

    #[test]
    fn shared_payload_snapshot_isolated_at_engine_level() {
        // Node 0 keeps mutating its rumor set every round while its
        // latency-4 exchange is in flight; the snapshot delivered to
        // node 1 must reflect round-0 state only. `Grow` inserts its
        // *own* id repeatedly plus marker ids it learns over time.
        struct Grow {
            rumors: SharedRumorSet,
            fired: bool,
        }
        impl Protocol for Grow {
            type Payload = SharedRumorSet;
            fn payload(&self) -> SharedRumorSet {
                self.rumors.snapshot()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                // After round 0, node 0 "learns" synthetic rumors
                // locally (ids 2..), mutating the shared buffer while a
                // snapshot is outstanding.
                if ctx.id() == NodeId::new(0) {
                    let r = usize::try_from(ctx.round()).unwrap();
                    self.rumors.insert(NodeId::new(2 + r % 8));
                    if !self.fired {
                        self.fired = true;
                        ctx.initiate(NodeId::new(1));
                    }
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<SharedRumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 4)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default()).run(
            |id, n| Grow {
                rumors: SharedRumorSet::singleton(10.max(n), id),
                fired: false,
            },
            |ns: &[Grow], _| ns[1].rumors.contains(NodeId::new(0)),
        );
        assert_eq!(out.rounds, 4);
        // The snapshot was taken at round 0, before any synthetic rumor
        // beyond id 2 existed (round 0 inserts id 2 *before* initiating,
        // in on_round order). Later inserts (ids 3, 4, 5 at rounds 1-3)
        // must NOT leak into the delivered payload.
        let n1 = &out.nodes[1].rumors;
        assert!(n1.contains(NodeId::new(0)));
        assert!(n1.contains(NodeId::new(2)), "round-0 state travels");
        for later in 3..6 {
            assert!(
                !n1.contains(NodeId::new(later)),
                "rumor {later} inserted after initiation leaked into the snapshot"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not after the current round")]
    fn wake_at_current_round_panics() {
        // Boundary case pinned by the `Context::wake_at` docs: a wakeup
        // at (or before) the current round is a programming error, not
        // a clamp-to-next-round.
        struct BadWaker;
        impl Protocol for BadWaker {
            const SCHEDULING: Scheduling = Scheduling::OnDemand;
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                let now = ctx.round();
                ctx.wake_at(now);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(2);
        let _ = Simulator::new(&g, SimConfig::default()).run(|_, _| BadWaker, |_, _| false);
    }

    #[test]
    fn wake_at_next_round_fires_exactly_once() {
        // The other boundary: `wake_at(round + 1)` is the earliest legal
        // wakeup, and it steps the node exactly once, in both engine
        // modes.
        struct Waker {
            steps: Vec<Round>,
        }
        impl Protocol for Waker {
            const SCHEDULING: Scheduling = Scheduling::OnDemand;
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.steps.push(ctx.round());
                if ctx.round() == 0 {
                    ctx.wake_at(1);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(2);
        for mode in [EngineMode::Dense, EngineMode::Frontier] {
            let cfg = SimConfig {
                max_rounds: 5,
                mode,
                ..SimConfig::default()
            };
            let out = Simulator::new(&g, cfg).run(|_, _| Waker { steps: vec![] }, |_, _| false);
            assert_eq!(out.reason, StopReason::MaxRounds);
            for node in &out.nodes {
                assert_eq!(
                    node.steps,
                    vec![0, 1],
                    "wakeup for round 1 must fire exactly once ({mode:?})"
                );
            }
        }
    }

    #[test]
    fn choice_tape_scripts_and_records() {
        // With a tape installed, `Context::choose` plays back the script
        // (defaulting to branch 0 past its end) and records every
        // arity — the discovery loop the model checker runs.
        struct Choosy {
            rumors: RumorSet,
            picks: Vec<usize>,
        }
        impl Protocol for Choosy {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                let i = ctx.choose(ctx.degree());
                self.picks.push(i);
                ctx.initiate_nth(i);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = generators::clique(4);
        let mk = |id: NodeId, n: usize| Choosy {
            rumors: RumorSet::singleton(n, id),
            picks: vec![],
        };
        let sim = Simulator::new(&g, SimConfig::default());
        let mut st = sim.stepper(mk);
        st.set_choice_tape(ChoiceTape::new(vec![2, 0, 1]));
        st.deliver();
        st.advance();
        let tape = st.take_choice_tape().expect("tape still installed");
        // One choice point per node, in id order; the script covers the
        // first three, the fourth defaults to 0.
        assert_eq!(tape.taken(), &[2, 0, 1, 0]);
        assert_eq!(tape.arities(), &[3, 3, 3, 3]);
        assert_eq!(st.nodes()[0].picks, vec![2]);
        assert_eq!(st.nodes()[3].picks, vec![0]);
    }

    #[test]
    fn stepper_in_flight_view_and_observed_delivery() {
        struct OneShot {
            rumors: RumorSet,
            fired: bool,
        }
        impl Protocol for OneShot {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                if !self.fired {
                    self.fired = true;
                    ctx.initiate_nth(0);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 7)]).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let mut st = sim.stepper(|id, n| OneShot {
            rumors: RumorSet::singleton(n, id),
            fired: false,
        });
        st.deliver();
        st.advance();
        // Both endpoints initiated at round 0 over the latency-7 edge.
        let queued = st.in_flight();
        assert_eq!(queued.len(), 2);
        for x in &queued {
            assert_eq!(x.initiated_at, 0);
            assert_eq!(x.completes_at, 7, "ring position maps back to round 7");
        }
        while st.round() < 7 {
            st.deliver();
            st.advance();
        }
        let mut log = Vec::new();
        st.deliver_observed(&mut log);
        assert_eq!(log.len(), 2);
        for d in &log {
            assert_eq!((d.initiated_at, d.completed_at, d.lost), (0, 7, false));
        }
        // The initiator field distinguishes the two directions.
        assert_eq!(log[0].a, NodeId::new(0));
        assert_eq!(log[1].a, NodeId::new(1));
        assert!(st.in_flight().is_empty());
        assert!(st.nodes().iter().all(|x| x.rumors.is_full()));
    }

    #[test]
    fn stepper_honors_on_demand_scheduling() {
        // Node 0 sleeps after round 0; node 1 wakes itself at round 3
        // and then at round 4100 (both beyond the wake ring, which
        // ℓ_max = 1 sizes at two slots, so both take the overflow).
        // The stepper must step only round 0 and the due wakeups, list
        // the pending wakeups in due order, skip the dead gaps, and
        // report the stepping in `stats`.
        struct Sleeper {
            steps: Vec<Round>,
        }
        impl Protocol for Sleeper {
            const SCHEDULING: Scheduling = Scheduling::OnDemand;
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.steps.push(ctx.round());
                if ctx.id() == NodeId::new(1) && ctx.round() == 0 {
                    ctx.wake_at(3);
                } else if ctx.id() == NodeId::new(1) && ctx.round() == 3 {
                    ctx.wake_at(4100);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(2);
        let cfg = SimConfig {
            max_rounds: 5000,
            ..SimConfig::default()
        };
        let sim = Simulator::new(&g, cfg);
        let mut st = sim.stepper(|_, _| Sleeper { steps: vec![] });
        st.deliver();
        assert!(st.event_round());
        st.advance();
        assert_eq!(st.wakeups(), vec![(3, NodeId::new(1))]);
        assert_eq!(st.round(), 3, "frontier mode skips the dead gap");
        st.deliver();
        st.advance();
        assert_eq!(st.wakeups(), vec![(4100, NodeId::new(1))]);
        assert_eq!(st.round(), 4100);
        st.deliver();
        st.advance();
        assert!(st.wakeups().is_empty());
        assert!(st.at_round_cap(), "quiescent: jump straight to the cap");
        let out = st.into_outcome(StopReason::MaxRounds);
        assert_eq!(out.nodes[0].steps, vec![0]);
        assert_eq!(out.nodes[1].steps, vec![0, 3, 4100]);
        let stats = out.stats;
        assert_eq!((stats.stepped, stats.woken, stats.event_rounds), (4, 2, 3));
        // Rounds 0, 3, 4100 and the cap 5000 are visited.
        assert_eq!(stats.skipped_rounds, 5001 - 4);

        // An EveryRound protocol never schedules a wakeup and reports
        // zero stats, whatever it asks for.
        let mut every = sim.stepper(flood_factory);
        every.deliver();
        every.advance();
        assert!(every.wakeups().is_empty());
        let out = every.into_outcome(StopReason::MaxRounds);
        assert_eq!(out.stats, EngineStats::default());
    }

    #[test]
    fn stepper_injected_crash_loses_exchange() {
        let g = Graph::from_edges(2, [(0, 1, 3)]).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let mut st = sim.stepper(flood_factory);
        st.deliver();
        st.advance();
        // Crash node 1 while the round-0 exchanges are in flight: both
        // are lost at completion time.
        st.inject_crash(NodeId::new(1));
        let mut log = Vec::new();
        while st.round() < 3 {
            st.deliver();
            st.advance();
        }
        st.deliver_observed(&mut log);
        let completions: Vec<_> = log.iter().filter(|d| d.initiated_at == 0).collect();
        assert_eq!(completions.len(), 2);
        assert!(completions.iter().all(|d| d.lost));
        assert!(!st.nodes()[0].rumors.contains(NodeId::new(1)));
    }

    #[test]
    fn stepper_clone_branches_independently() {
        // The checker's snapshot/restore: a cloned stepper explores a
        // different future without perturbing the original.
        let g = generators::cycle(5);
        let sim = Simulator::new(&g, SimConfig::default());
        let mut a = sim.stepper(flood_factory);
        a.deliver();
        let mut b = a.clone();
        b.inject_crash(NodeId::new(2));
        for st in [&mut a, &mut b] {
            for _ in 0..12 {
                st.advance();
                st.deliver();
            }
        }
        assert!(a.nodes().iter().all(|x| x.rumors.is_full()));
        assert!(!b.nodes().iter().all(|x| x.rumors.is_full()));
        assert_eq!(a.metrics().lost, 0);
        assert!(b.metrics().lost > 0);
    }
}
