//! Outside-in tracing: spans recorded around calls *into* the library
//! layers, from this package's own delegates. No library code changes.
//!
//! * [`Traced`] is a [`Protocol`] delegate. It forwards every callback
//!   to the wrapped node and times it, so the engine (`sim`) and the
//!   net runner (`net`) see an unchanged protocol while the `core`
//!   layer's share of their wall time is measured.
//! * [`Wire`] is a [`WirePayload`] newtype that does the same for the
//!   payload codec (`encode_payload`/`decode_payload`) and the delta
//!   machinery (`encode_delta`/`decode_delta`/`merge_basis`).
//! * [`span`] opens a span of one [`Kind`]. Spans nest on a
//!   thread-local stack; a span's raw self time is its wall time minus
//!   the wall time of the spans opened inside it.
//!
//! A span costs time of its own — two clock reads and two thread-local
//! accesses — which would land in its own and its parent's self time.
//! [`calibrate`] measures that cost on the host, and [`Trace::self_s`]
//! moves it out of every layer into [`Trace::tracer_s`], so the layers'
//! self times estimate what the untraced call spends in each layer.
//!
//! The engine runs single-threaded (`SimConfig::threads == 1`) and the
//! reactor hosts every node on the calling thread, so one thread-local
//! tracer sees every span of a run.

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

use gossip_core::push_pull::PushPullNode;
use gossip_core::sparse::SparseFloodNode;
use gossip_core::stream::RlcStreamNode;
use gossip_net::{CodecError, WirePayload};
use gossip_sim::{Context, Exchange, Protocol, Scheduling};
use latency_graph::NodeId;

use crate::workloads::to_u64;

/// What a span measures. The prefix names the layer it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Simulator::run` — the engine's round loop (root).
    SimCall,
    /// The benchmark's stop predicate, called by the engine each round.
    SimStop,
    /// `Protocol::payload`.
    Payload,
    /// `Protocol::on_round`.
    OnRound,
    /// `Protocol::on_exchange`.
    OnExchange,
    /// `on_start`, `on_rejected`, `is_done` and `payload_weight`.
    CoreOther,
    /// The delegates' own bookkeeping (usefulness counters, payload
    /// unwrapping): tracing overhead, kept out of every layer.
    Bookkeeping,
    /// `run_reactor_mode_with_stats` — runner, reactor and framing (root).
    NetCall,
    /// `WirePayload::encode_payload`.
    CodecEncode,
    /// `WirePayload::decode_payload`.
    CodecDecode,
    /// `WirePayload::encode_delta`.
    DeltaEncode,
    /// `WirePayload::decode_delta`.
    DeltaDecode,
    /// `WirePayload::merge_basis`.
    DeltaMerge,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 13;

/// Wall time, raw self time and call counts of one [`Kind`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Acc {
    /// Seconds inside spans of this kind.
    pub total_s: f64,
    /// `total_s` minus the seconds of spans opened inside them.
    pub self_s: f64,
    /// Spans closed.
    pub calls: u64,
    /// Spans closed directly inside spans of this kind.
    pub children: u64,
}

/// What one span costs the tracer, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    /// Added to the span's own raw self time (an empty span's self time).
    pub inside_s: f64,
    /// Added to its parent's raw self time.
    pub outside_s: f64,
}

/// Everything one traced run recorded.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-[`Kind`] accumulators, indexed by `Kind as usize`.
    pub acc: [Acc; KINDS],
    /// `on_exchange` calls after which the receiver knew more.
    pub useful_exchanges: u64,
    /// Progress gained in `on_exchange` (rumors learned, rank gained).
    pub progress_gained: u64,
    /// Payload units received by `on_exchange` (`payload_weight`).
    pub units_received: u64,
}

impl Trace {
    /// The accumulator of `kind`.
    pub fn get(&self, kind: Kind) -> Acc {
        self.acc[kind as usize]
    }

    /// Self time of `kind` less the tracer's cost: its own spans' and
    /// that of the spans opened directly inside them.
    pub fn self_s(&self, kind: Kind, cost: SpanCost) -> f64 {
        let a = self.get(kind);
        a.self_s - a.calls as f64 * cost.inside_s - a.children as f64 * cost.outside_s
    }

    /// The tracer's own time: every span's cost, plus the delegates'
    /// bookkeeping.
    pub fn tracer_s(&self, cost: SpanCost) -> f64 {
        let spans: f64 = self
            .acc
            .iter()
            .map(|a| a.calls as f64 * cost.inside_s + a.children as f64 * cost.outside_s)
            .sum();
        spans + self.self_s(Kind::Bookkeeping, cost)
    }

    /// The layers' self times summed, bookkeeping and span costs left
    /// out: the trace's estimate of the untraced call's wall time.
    pub fn layer_sum(&self, cost: SpanCost) -> f64 {
        let raw: f64 = self.acc.iter().map(|a| a.self_s).sum();
        raw - self.tracer_s(cost)
    }
}

/// Measures [`SpanCost`] on this host: the median, over a few batches,
/// of the raw self times an empty span and its parent gain per span.
/// Clears this thread's trace.
pub fn calibrate() -> SpanCost {
    const SPANS: u32 = 100_000;
    const BATCHES: usize = 9;
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        reset();
        span(Kind::SimCall, || {
            for _ in 0..SPANS {
                span(Kind::OnRound, || std::hint::black_box(()));
            }
        });
        let t = take();
        inside.push(t.get(Kind::OnRound).self_s / f64::from(SPANS));
        outside.push(t.get(Kind::SimCall).self_s / f64::from(SPANS));
    }
    SpanCost {
        inside_s: crate::median(&inside),
        outside_s: crate::median(&outside),
    }
}

/// Deepest span nesting the tracer supports (the workloads nest at
/// most four deep: root, bookkeeping, callback, codec).
const MAX_DEPTH: usize = 16;

/// An open span's children so far.
#[derive(Clone, Copy)]
struct Open {
    secs: f64,
    spans: u64,
}

struct Tracer {
    /// The open spans, innermost last.
    open: [Open; MAX_DEPTH],
    depth: usize,
    trace: Trace,
}

impl Tracer {
    const fn new() -> Tracer {
        const ZERO: Acc = Acc {
            total_s: 0.0,
            self_s: 0.0,
            calls: 0,
            children: 0,
        };
        const CLOSED: Open = Open {
            secs: 0.0,
            spans: 0,
        };
        Tracer {
            open: [CLOSED; MAX_DEPTH],
            depth: 0,
            trace: Trace {
                acc: [ZERO; KINDS],
                useful_exchanges: 0,
                progress_gained: 0,
                units_received: 0,
            },
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::new()) };
}

/// Clears this thread's trace.
pub fn reset() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Takes this thread's trace, leaving an empty one.
///
/// # Panics
///
/// Panics if a span is still open — a tracer bug.
pub fn take() -> Trace {
    TRACER.with(|t| {
        let t = std::mem::replace(&mut *t.borrow_mut(), Tracer::new());
        assert_eq!(t.depth, 0, "trace taken with a span open");
        t.trace
    })
}

/// Runs `f` inside a span of `kind`.
///
/// # Panics
///
/// Panics if spans nest deeper than [`MAX_DEPTH`].
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let d = t.depth;
        assert!(d < MAX_DEPTH, "spans nest too deep");
        t.open[d] = Open {
            secs: 0.0,
            spans: 0,
        };
        t.depth = d + 1;
    });
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let d = t.depth - 1;
        t.depth = d;
        let children = t.open[d];
        if d > 0 {
            t.open[d - 1].secs += secs;
            t.open[d - 1].spans += 1;
        }
        let acc = &mut t.trace.acc[kind as usize];
        acc.total_s += secs;
        acc.self_s += secs - children.secs;
        acc.calls += 1;
        acc.children += children.spans;
    });
    out
}

fn count_exchange(gained: u64, units: u64) {
    TRACER.with(|t| {
        let tr = &mut t.borrow_mut().trace;
        tr.useful_exchanges += u64::from(gained > 0);
        tr.progress_gained += gained;
        tr.units_received += units;
    });
}

/// A node's monotone progress measure: what an exchange is useful for.
pub trait Progress {
    /// Rumors known, or decoder rank for algebraic gossip.
    fn progress(&self) -> u64;
}

impl Progress for PushPullNode {
    fn progress(&self) -> u64 {
        to_u64(self.rumors.len())
    }
}

impl Progress for SparseFloodNode {
    fn progress(&self) -> u64 {
        to_u64(self.rumors.len())
    }
}

impl Progress for RlcStreamNode {
    fn progress(&self) -> u64 {
        to_u64(self.rank())
    }
}

/// How a [`Traced`] node presents its payload to the layer that runs it.
pub trait Shim<T: Clone> {
    /// The payload type the layer sees.
    type Out: Clone;
    /// Wraps a payload the node produced.
    fn wrap(payload: T) -> Self::Out;
    /// The node's payload inside a wrapped one.
    fn inner(payload: &Self::Out) -> &T;
    /// The exchange as the node expects it.
    fn exchange(x: &Exchange<Self::Out>) -> Cow<'_, Exchange<T>>;
}

/// The payload passes through unchanged (engine runs).
pub struct Plain;

impl<T: Clone> Shim<T> for Plain {
    type Out = T;

    fn wrap(payload: T) -> T {
        payload
    }

    fn inner(payload: &T) -> &T {
        payload
    }

    fn exchange(x: &Exchange<T>) -> Cow<'_, Exchange<T>> {
        Cow::Borrowed(x)
    }
}

/// The payload travels as a [`Wire`], so codec calls are traced (net runs).
pub struct OnWire;

impl<T: Clone + WirePayload> Shim<T> for OnWire {
    type Out = Wire<T>;

    fn wrap(payload: T) -> Wire<T> {
        Wire(payload)
    }

    fn inner(payload: &Wire<T>) -> &T {
        &payload.0
    }

    fn exchange(x: &Exchange<Wire<T>>) -> Cow<'_, Exchange<T>> {
        Cow::Owned(Exchange {
            peer: x.peer,
            payload: x.payload.0.clone(),
            initiated_at: x.initiated_at,
            completed_at: x.completed_at,
            initiated_by_me: x.initiated_by_me,
        })
    }
}

/// The [`Protocol`] delegate: forwards every callback to `inner`,
/// timing and counting it.
pub struct Traced<P, S = Plain> {
    /// The wrapped node.
    pub inner: P,
    shim: PhantomData<S>,
}

impl<P, S> Traced<P, S> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Traced<P, S> {
        Traced {
            inner,
            shim: PhantomData,
        }
    }
}

impl<P, S> Protocol for Traced<P, S>
where
    P: Protocol + Progress,
    S: Shim<P::Payload>,
{
    const SCHEDULING: Scheduling = P::SCHEDULING;

    type Payload = S::Out;

    fn payload(&self) -> S::Out {
        S::wrap(span(Kind::Payload, || self.inner.payload()))
    }

    fn payload_weight(payload: &S::Out) -> u64 {
        span(Kind::CoreOther, || P::payload_weight(S::inner(payload)))
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        span(Kind::CoreOther, || self.inner.on_start(ctx));
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        span(Kind::OnRound, || self.inner.on_round(ctx));
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, x: &Exchange<S::Out>) {
        span(Kind::Bookkeeping, || {
            let x = S::exchange(x);
            let before = self.inner.progress();
            span(Kind::OnExchange, || self.inner.on_exchange(ctx, &x));
            let gained = self.inner.progress() - before;
            count_exchange(gained, P::payload_weight(&x.payload));
        });
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        span(Kind::CoreOther, || self.inner.on_rejected(ctx, peer));
    }

    fn is_done(&self) -> bool {
        span(Kind::CoreOther, || self.inner.is_done())
    }
}

/// The [`WirePayload`] newtype: forwards every method to the wrapped
/// payload, timing the codec and delta calls.
#[derive(Clone, Debug)]
pub struct Wire<T>(pub T);

impl<T: WirePayload> WirePayload for Wire<T> {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        span(Kind::CodecEncode, || self.0.encode_payload(out));
    }

    fn decode_payload(bytes: &[u8]) -> Result<Self, CodecError> {
        span(Kind::CodecDecode, || T::decode_payload(bytes)).map(Wire)
    }

    fn supports_delta() -> bool {
        T::supports_delta()
    }

    fn encode_delta(&self, basis: Option<&Self>, out: &mut Vec<u8>) -> bool {
        span(Kind::DeltaEncode, || {
            self.0.encode_delta(basis.map(|b| &b.0), out)
        })
    }

    fn decode_delta(bytes: &[u8], basis: Option<&Self>) -> Result<Self, CodecError> {
        span(Kind::DeltaDecode, || {
            T::decode_delta(bytes, basis.map(|b| &b.0))
        })
        .map(Wire)
    }

    fn merge_basis(&self, other: &Self) -> Option<Self> {
        span(Kind::DeltaMerge, || self.0.merge_basis(&other.0)).map(Wire)
    }

    fn snapshot_len(&self) -> usize {
        self.0.snapshot_len()
    }

    fn caps() -> u32 {
        T::caps()
    }

    fn stream_units(&self) -> u64 {
        self.0.stream_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        reset();
        span(Kind::SimCall, || {
            span(Kind::OnRound, || {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let t = take();
        let call = t.get(Kind::SimCall);
        let round = t.get(Kind::OnRound);
        assert_eq!((call.calls, round.calls), (1, 1));
        assert_eq!((call.children, round.children), (1, 0));
        assert!(round.total_s >= 0.005);
        assert!((call.self_s + round.self_s - call.total_s).abs() < 1e-9);
    }

    /// Moving span costs out of the layers loses no time: layers plus
    /// tracer still add up to the root's wall time.
    #[test]
    fn span_costs_move_to_the_tracer() {
        let cost = calibrate();
        assert!(cost.inside_s > 0.0 && cost.outside_s > 0.0, "{cost:?}");
        reset();
        span(Kind::SimCall, || {
            for _ in 0..100_000 {
                span(Kind::Bookkeeping, || span(Kind::OnExchange, || ()));
            }
        });
        let t = take();
        let root = t.get(Kind::SimCall).total_s;
        assert!((t.layer_sum(cost) + t.tracer_s(cost) - root).abs() < 1e-9);
        // Without any work inside, nearly all of the root is tracer cost.
        assert!(t.tracer_s(cost) > 0.5 * root, "{t:?} {cost:?}");
    }
}
