//! The four workloads: inputs from a seed, one trial, and the output
//! check of each trial. README.md says why each was chosen.
//!
//! A trial calls one layer's public entry point and is timed around
//! that call only: `Simulator::new(..).run(..)` for the engine
//! workloads, `run_reactor_mode_with_stats` for the net one. Both run
//! on the calling thread (the engine with `threads == 1`, the reactor
//! hosting every node), so the thread's on-CPU time covers all of a
//! trial's work; [`Stopwatch`] records it beside the wall time. With
//! `traced` the same call runs over the [`Traced`] delegate and inside
//! a root [`span`]; the trial's [`Observed`] outcome must not change.

use std::cmp::Reverse;
use std::time::Instant;

use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_core::sparse::SparseFloodNode;
use gossip_core::stream::RlcStreamNode;
use gossip_net::{
    run_reactor_mode_with_stats, PayloadMode, TransportStats, WireAccounting, WirePayload,
};
use gossip_sim::{
    all_delivered_round, completion_rounds, EngineMode, EngineStats, Outcome, Protocol, Round,
    RumorSet, SimConfig, SimMetrics, Simulator, StopReason, StreamPayload, StreamSpec,
};
use latency_graph::metrics::bfs_hops;
use latency_graph::{generators, Graph, NodeId};

use crate::trace::{span, Kind, OnWire, Progress, Traced};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "clique-pushpull",
    "geo-flood",
    "reactor-delta-soak",
    "stream-rlc",
];

/// Input sizes and trials per pass. [`Sizes::full`] is the benchmark;
/// [`Sizes::small`] keeps the tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `clique-pushpull`: clique order.
    pub clique_n: usize,
    /// `clique-pushpull`: trials (protocol seeds) per pass.
    pub clique_trials: usize,
    /// `geo-flood`: node count.
    pub geo_n: usize,
    /// `geo-flood`: expected degree of the random-geometric graph.
    pub geo_degree: f64,
    /// `geo-flood`: largest edge latency (the longest possible edge).
    pub geo_max_latency: f64,
    /// `geo-flood`: trials (flood sources) per pass.
    pub geo_trials: usize,
    /// `reactor-delta-soak`: clique order.
    pub soak_n: usize,
    /// `reactor-delta-soak`: fixed horizon in rounds.
    pub soak_rounds: u64,
    /// `reactor-delta-soak`: trials (protocol seeds) per pass.
    pub soak_trials: usize,
    /// `stream-rlc`: clique order.
    pub stream_n: usize,
    /// `stream-rlc`: rumors streamed.
    pub stream_k: usize,
    /// `stream-rlc`: trials (protocol seeds) per pass.
    pub stream_trials: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            clique_n: 4096,
            clique_trials: 16,
            geo_n: 262_144,
            geo_degree: 18.0,
            geo_max_latency: 8.0,
            geo_trials: 1,
            soak_n: 1024,
            soak_rounds: 128,
            soak_trials: 1,
            stream_n: 64,
            stream_k: 256,
            stream_trials: 16,
        }
    }

    /// Sizes small enough for a unit test.
    #[cfg(test)]
    pub fn small() -> Sizes {
        Sizes {
            clique_n: 64,
            clique_trials: 2,
            geo_n: 2048,
            geo_degree: 18.0,
            geo_max_latency: 8.0,
            geo_trials: 2,
            soak_n: 32,
            soak_rounds: 16,
            soak_trials: 2,
            stream_n: 16,
            stream_k: 32,
            stream_trials: 2,
        }
    }
}

/// Per-exchange payload budget of `stream-rlc` (the `BENCH_stream.json`
/// headline cell).
const STREAM_BUDGET: usize = 1;
/// Round caps of the workloads that run to completion: about two orders
/// of magnitude above what each needs (≈12, ≈3,700 and ≈150 rounds), so
/// reaching one is a failure, yet a run that never converges still ends
/// within the benchmark's time limit.
const CLIQUE_CAP: Round = 1_000;
const GEO_CAP: Round = 200_000;
const STREAM_CAP: Round = 10_000;
/// Random-geometric samples tried before giving up on connectivity.
const GEO_ATTEMPTS: u64 = 8;

/// SplitMix64: derives independent seeds from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// A count as `u64`.
pub fn to_u64(x: usize) -> u64 {
    u64::try_from(x).expect("count fits u64")
}

/// Builds the graph of `name` from `seed` — the `graph` layer's part of
/// set-up.
///
/// # Panics
///
/// Panics on an unknown name, or if no connected geometric sample turns
/// up (far below one in a million at the benchmark's degree).
pub fn build_graph(name: &str, sizes: &Sizes, seed: u64) -> Graph {
    match name {
        "clique-pushpull" => generators::clique(sizes.clique_n),
        "geo-flood" => {
            let n = sizes.geo_n;
            let radius = (sizes.geo_degree / (std::f64::consts::PI * n as f64)).sqrt();
            let scale = sizes.geo_max_latency / radius;
            (0..GEO_ATTEMPTS)
                .map(|a| generators::random_geometric(n, radius, scale, mix(seed, a)))
                .find(Graph::is_connected)
                .expect("a connected random-geometric sample")
        }
        "reactor-delta-soak" => generators::clique(sizes.soak_n),
        "stream-rlc" => generators::clique(sizes.stream_n),
        other => panic!("unknown workload {other}"),
    }
}

/// The node farthest in hops from `start` (lowest id among ties): a
/// node on the graph's periphery, so a flood from it crosses the whole
/// graph and its round count tracks the diameter rather than where a
/// random source happened to fall. The graph is connected, so every
/// distance is finite.
fn farthest(graph: &Graph, start: NodeId) -> NodeId {
    let (far, _) = bfs_hops(graph, start)
        .into_iter()
        .enumerate()
        .max_by_key(|&(v, d)| (d, Reverse(v)))
        .expect("a graph with nodes");
    NodeId::new(far)
}

/// What a reference run predicts for one `reactor-delta-soak` trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    metrics: SimMetrics,
    fingerprints: Vec<u64>,
}

/// A workload's inputs, built from the seed.
pub struct Input {
    /// Workload name.
    pub name: &'static str,
    /// The sizes it was built with.
    pub sizes: Sizes,
    /// The topology.
    pub graph: Graph,
    /// On-CPU seconds [`build_graph`] took.
    pub graph_s: f64,
    /// One protocol seed per trial of a pass.
    pub seeds: Vec<u64>,
    /// `geo-flood`: one flood source per trial.
    pub sources: Vec<NodeId>,
    /// `stream-rlc`: the injection schedule.
    pub spec: Option<StreamSpec>,
    /// `reactor-delta-soak`: the engine's outcome per trial, filled by
    /// [`Input::prepare_check`].
    pub references: Vec<Reference>,
}

impl Input {
    /// Builds the inputs of `name` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    pub fn build(name: &str, sizes: Sizes, seed: u64) -> Input {
        let name = NAMES
            .into_iter()
            .find(|&w| w == name)
            .unwrap_or_else(|| panic!("unknown workload {name}"));
        let watch = Stopwatch::start();
        let graph = build_graph(name, &sizes, seed);
        let graph_s = watch.stop().cpu_s;
        let trials = match name {
            "clique-pushpull" => sizes.clique_trials,
            "geo-flood" => sizes.geo_trials,
            "reactor-delta-soak" => sizes.soak_trials,
            _ => sizes.stream_trials,
        };
        let seeds: Vec<u64> = (0..to_u64(trials))
            .map(|i| mix(seed, 1 << 32 | i))
            .collect();
        let n = to_u64(graph.node_count());
        let sources = if name == "geo-flood" {
            let index = |s: u64| usize::try_from(s % n).expect("node index fits usize");
            seeds
                .iter()
                .map(|&s| farthest(&graph, NodeId::new(index(mix(s, 0)))))
                .collect()
        } else {
            Vec::new()
        };
        let spec = (name == "stream-rlc")
            .then(|| StreamSpec::spread(sizes.stream_k, STREAM_BUDGET, sizes.stream_n));
        Input {
            name,
            sizes,
            graph,
            graph_s,
            seeds,
            sources,
            spec,
            references: Vec::new(),
        }
    }

    /// Trials per pass.
    pub fn trials(&self) -> usize {
        self.seeds.len()
    }

    /// Runs whatever the output check compares against, outside the
    /// timed section: for `reactor-delta-soak`, a same-seed in-process
    /// engine run per trial.
    pub fn prepare_check(&mut self) {
        if self.name != "reactor-delta-soak" {
            return;
        }
        self.references = self
            .seeds
            .iter()
            .map(|&seed| {
                let o = Simulator::new(&self.graph, self.soak_config(seed)).run(
                    |id, n| PushPullNode::new(id, n, Mode::PushPull),
                    |_: &[PushPullNode], _| false,
                );
                Reference {
                    metrics: o.metrics,
                    fingerprints: o.nodes.iter().map(|p| p.rumors.fingerprint()).collect(),
                }
            })
            .collect();
    }

    fn soak_config(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            max_rounds: self.sizes.soak_rounds,
            ..SimConfig::default()
        }
    }

    /// Runs trial `i`, then checks its outputs.
    pub fn run_trial(&self, i: usize, traced: bool) -> Trial {
        match self.name {
            "clique-pushpull" => self.clique_trial(i, traced),
            "geo-flood" => self.geo_trial(i, traced),
            "reactor-delta-soak" => self.soak_trial(i, traced),
            _ => self.stream_trial(i, traced),
        }
    }

    fn clique_trial(&self, i: usize, traced: bool) -> Trial {
        let config = SimConfig {
            seed: self.seeds[i],
            max_rounds: CLIQUE_CAP,
            mode: EngineMode::Dense,
            ..SimConfig::default()
        };
        let (o, times) = simulate(
            &self.graph,
            config,
            |id, n| PushPullNode::new(id, n, Mode::PushPull),
            Some(|p: &PushPullNode| p.rumors.is_full()),
            traced,
        );
        let mut failure = None;
        if o.reason != StopReason::Condition {
            failure = Some(format!("stopped by {:?} at round {}", o.reason, o.rounds));
        } else if let Some(v) = o.nodes.iter().position(|p| !p.rumors.is_full()) {
            failure = Some(format!("node {v} is not full"));
        }
        // Every delivered exchange carries one snapshot each way.
        let snapshot = to_u64(o.nodes[0].rumors.snapshot_len());
        let wire_bytes = 2 * o.metrics.delivered * snapshot;
        let fingerprint = o
            .nodes
            .iter()
            .fold(0, |h, p| fold(h, p.rumors.fingerprint()));
        Trial::new(&o, times, fingerprint, wire_bytes, failure)
    }

    fn geo_trial(&self, i: usize, traced: bool) -> Trial {
        let source = self.sources[i];
        let config = SimConfig {
            seed: self.seeds[i],
            max_rounds: GEO_CAP,
            mode: EngineMode::Frontier,
            ..SimConfig::default()
        };
        let (o, times) = simulate(
            &self.graph,
            config,
            |id, n| SparseFloodNode::new(id, n, source),
            None,
            traced,
        );
        let n = self.graph.node_count();
        let informed = o.nodes.iter().filter(|p| p.rumors.contains(source)).count();
        let failure = if o.reason != StopReason::AllDone {
            Some(format!("stopped by {:?} at round {}", o.reason, o.rounds))
        } else if informed != n {
            Some(format!("{informed} of {n} nodes informed"))
        } else {
            None
        };
        // The flood's compact sets have no wire form of their own; price
        // each delivered payload as the `RumorSet` snapshot it stands for.
        let snapshot = to_u64(RumorSet::new(n).snapshot_len());
        let wire_bytes = 2 * o.metrics.delivered * snapshot;
        // A flood's node state is a subset of `{source}`: hash which
        // nodes hold it (`CompactRumorSet::fingerprint` would walk all
        // n/64 words of every node).
        let fingerprint = o.nodes.iter().fold(0, |h, p| {
            fold(
                h,
                to_u64(p.rumors.len()) << 1 | u64::from(p.rumors.contains(source)),
            )
        });
        Trial::new(&o, times, fingerprint, wire_bytes, failure)
    }

    fn stream_trial(&self, i: usize, traced: bool) -> Trial {
        let spec = self.spec.as_ref().expect("stream-rlc has a spec");
        let config = SimConfig {
            seed: self.seeds[i],
            max_rounds: STREAM_CAP,
            mode: EngineMode::Frontier,
            ..SimConfig::default()
        };
        let (o, times) = simulate(
            &self.graph,
            config,
            |id, _| RlcStreamNode::new(id, spec),
            None,
            traced,
        );
        let curve = completion_rounds(o.nodes.iter().map(RlcStreamNode::log));
        let failure = if o.reason != StopReason::AllDone {
            Some(format!("stopped by {:?} at round {}", o.reason, o.rounds))
        } else {
            check_curve(spec, &o.nodes, &curve, o.rounds).err()
        };
        // With budget 1 a payload carries zero rows or one; price each
        // as the net codec's encoding of such a payload.
        let encoded = |rows: Vec<Vec<u64>>| {
            let mut out = Vec::new();
            let k = u32::try_from(spec.k).expect("universe fits u32");
            StreamPayload::Rows { k, rows }.encode_payload(&mut out);
            to_u64(out.len())
        };
        let (empty, one) = (
            encoded(Vec::new()),
            encoded(vec![vec![0; spec.k.div_ceil(64)]]),
        );
        let units = o.metrics.payload_units;
        let wire_bytes = (2 * o.metrics.delivered - units) * empty + units * one;
        let fingerprint = o.nodes.iter().fold(0, |h, p| {
            fold(fold(h, p.log().fingerprint()), to_u64(p.rank()))
        });
        Trial::new(&o, times, fingerprint, wire_bytes, failure)
    }

    fn soak_trial(&self, i: usize, traced: bool) -> Trial {
        let config = self.soak_config(self.seeds[i]);
        let node = |id, n| PushPullNode::new(id, n, Mode::PushPull);
        let mut peak_threads = 0;
        let watch = Stopwatch::start();
        let (o, transport, wire, times) = if traced {
            let (o, transport, wire) = span(Kind::NetCall, || {
                run_reactor_mode_with_stats(
                    &self.graph,
                    &config,
                    PayloadMode::Delta,
                    |id, n| Traced::<_, OnWire>::new(node(id, n)),
                    |_: &[&Traced<PushPullNode, OnWire>], _| {
                        span(Kind::Bookkeeping, || {
                            peak_threads = peak_threads.max(proc_status("Threads:"));
                        });
                        false // a soak never stops early
                    },
                )
            });
            let times = watch.stop();
            (untrace(o), transport, wire, times)
        } else {
            let (o, transport, wire) = run_reactor_mode_with_stats(
                &self.graph,
                &config,
                PayloadMode::Delta,
                node,
                |_: &[&PushPullNode], _| false,
            );
            (o, transport, wire, watch.stop())
        };
        let failure = self.check_soak(i, &o, &wire);
        let fingerprint = o
            .nodes
            .iter()
            .fold(0, |h, p| fold(h, p.rumors.fingerprint()));
        let mut trial = Trial::new(&o, times, fingerprint, transport.bytes_sent, failure);
        trial.observed.net = Some(NetObserved { transport, wire });
        trial.peak_threads = peak_threads;
        trial
    }

    fn check_soak(
        &self,
        i: usize,
        o: &Outcome<PushPullNode>,
        wire: &WireAccounting,
    ) -> Option<String> {
        let Some(reference) = self.references.get(i) else {
            return Some("no reference run to compare with".to_owned());
        };
        let snapshot = to_u64(o.nodes[0].rumors.snapshot_len());
        let frames = wire.delta_frames + wire.snapshot_frames;
        if o.reason != StopReason::MaxRounds || o.rounds != self.sizes.soak_rounds {
            Some(format!("stopped by {:?} at round {}", o.reason, o.rounds))
        } else if o.metrics.lost > 0 {
            Some(format!("{} exchanges lost to peer losses", o.metrics.lost))
        } else if o.metrics != reference.metrics {
            Some(format!(
                "metrics {:?} differ from the engine's {:?}",
                o.metrics, reference.metrics
            ))
        } else if let Some(v) = (0..o.nodes.len())
            .find(|&v| o.nodes[v].rumors.fingerprint() != reference.fingerprints[v])
        {
            Some(format!("node {v}'s rumor set differs from the engine's"))
        } else if frames != 2 * o.metrics.initiated || wire.snapshot_bytes != frames * snapshot {
            Some(format!(
                "{} snapshot-equivalent bytes over {frames} payload frames of {snapshot} bytes",
                wire.snapshot_bytes
            ))
        } else {
            None
        }
    }
}

/// Checks a completion curve (`curve[r]`: the round every node held
/// rumor `r`) against the per-node logs it was folded from. The curve's
/// cumulative form — rumors complete by round t — is monotone when each
/// rumor completes once, no earlier than its injection and no later
/// than the last round, and it reaches `k` exactly when the run stopped.
/// Every node's first-heard round must also lie between the rumor's
/// injection and its completion.
fn check_curve(
    spec: &StreamSpec,
    nodes: &[RlcStreamNode],
    curve: &[Option<Round>],
    rounds: Round,
) -> Result<(), String> {
    for (rumor, c) in curve.iter().enumerate() {
        let done = c.ok_or_else(|| format!("rumor {rumor} never completed"))?;
        let injected = spec.origin(rumor).round;
        if done < injected || done > rounds {
            return Err(format!(
                "rumor {rumor} completed in round {done}, injected in {injected}"
            ));
        }
        for (v, p) in nodes.iter().enumerate() {
            match p.log().first_heard(rumor) {
                Some(r) if (injected..=done).contains(&r) => {}
                heard => {
                    return Err(format!(
                        "node {v} heard rumor {rumor} in round {heard:?}, \
                         injected in {injected}, complete in {done}"
                    ))
                }
            }
        }
    }
    match all_delivered_round(curve) {
        Some(last) if last == rounds => Ok(()),
        last => Err(format!("curve ends in round {last:?}, the run in {rounds}")),
    }
}

/// Runs `Simulator::run`, plain or over the [`Traced`] delegate, and
/// returns the outcome with plain nodes and the call's times.
/// `goal` stops the run once every node meets it; `None` runs until
/// every node is done.
fn simulate<P, F>(
    graph: &Graph,
    config: SimConfig,
    mut factory: F,
    goal: Option<fn(&P) -> bool>,
    traced: bool,
) -> (Outcome<P>, Times)
where
    P: Protocol + Progress + Send,
    P::Payload: Send,
    F: FnMut(NodeId, usize) -> P,
{
    let watch = Stopwatch::start();
    if !traced {
        let o = Simulator::new(graph, config).run(factory, |nodes: &[P], _| {
            goal.is_some_and(|g| nodes.iter().all(g))
        });
        return (o, watch.stop());
    }
    let o = span(Kind::SimCall, || {
        Simulator::new(graph, config).run(
            |id, n| Traced::new(factory(id, n)),
            |nodes: &[Traced<P>], _| {
                span(Kind::SimStop, || {
                    goal.is_some_and(|g| nodes.iter().all(|t| g(&t.inner)))
                })
            },
        )
    });
    (untrace(o), watch.stop())
}

fn untrace<P, S>(o: Outcome<Traced<P, S>>) -> Outcome<P> {
    Outcome {
        reason: o.reason,
        rounds: o.rounds,
        metrics: o.metrics,
        stats: o.stats,
        nodes: o.nodes.into_iter().map(|t| t.inner).collect(),
    }
}

/// Wall and on-CPU seconds of one timed section.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Times {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds the calling thread ran on a CPU.
    pub cpu_s: f64,
}

/// Times a section of the calling thread's work on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        let cpu_ns = thread_cpu_ns();
        Stopwatch {
            wall: Instant::now(),
            cpu_ns,
        }
    }

    /// The times since [`Stopwatch::start`].
    pub fn stop(&self) -> Times {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_ns = thread_cpu_ns() - self.cpu_ns;
        Times {
            wall_s,
            cpu_s: cpu_ns as f64 * 1e-9,
        }
    }
}

/// Nanoseconds the calling thread has run on a CPU: the first field of
/// `/proc/thread-self/schedstat`. Time spent waiting for a CPU, and time
/// the hypervisor took from the guest, are not in it.
///
/// # Panics
///
/// Panics if the file cannot be read or parsed (not Linux, or no
/// `/proc`): a timing the benchmark cannot take.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("a readable /proc/thread-self/schedstat")
}

/// A numeric field of `/proc/self/status` (0 where absent).
pub fn proc_status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// What the net layer reported for one trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetObserved {
    /// Socket-level totals.
    pub transport: TransportStats,
    /// Payload byte accounting.
    pub wire: WireAccounting,
}

/// Everything a trial's outcome is compared on, traced or not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    /// Simulated rounds.
    pub rounds: Round,
    /// Engine (or runner) counters.
    pub metrics: SimMetrics,
    /// Engine execution counters.
    pub stats: EngineStats,
    /// Hash of every node's final state.
    pub fingerprint: u64,
    /// Bytes on the wire: sent on sockets (net), or the net codec's
    /// size of every delivered payload (engine).
    pub wire_bytes: u64,
    /// Net-layer counters (net workload only).
    pub net: Option<NetObserved>,
}

/// One trial's result.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Times of the layer call.
    pub times: Times,
    /// The outcome.
    pub observed: Observed,
    /// Why the output check failed, if it did.
    pub failure: Option<String>,
    /// Peak OS threads seen during a traced net trial.
    pub peak_threads: u64,
}

impl Trial {
    fn new<P>(
        o: &Outcome<P>,
        times: Times,
        fingerprint: u64,
        wire_bytes: u64,
        failure: Option<String>,
    ) -> Trial {
        Trial {
            times,
            observed: Observed {
                rounds: o.rounds,
                metrics: o.metrics,
                stats: o.stats,
                fingerprint,
                wire_bytes,
                net: None,
            },
            failure,
            peak_threads: 0,
        }
    }
}
