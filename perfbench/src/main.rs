//! The benchmark binary: runs one workload for a fixed wall time and
//! prints its metrics. `run.py` builds it and is the command to use;
//! README.md describes the workloads and metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds the workload's inputs several times (set-up), runs the
//! output check's reference runs, then repeats *passes* — every trial
//! of the workload once — until `S` seconds have gone by. Every pass
//! does the same work, so each must observe the same outcomes; the
//! reported times are medians over passes, taken on the thread's
//! on-CPU clock so that time spent waiting for a CPU on a shared host
//! stays out. With `--trace 1` passes alternate untraced and traced,
//! traced outcomes must equal untraced ones, and the per-layer metrics
//! are printed instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! is a JSON detail block: host, seed, pass times, failures.

#![forbid(unsafe_code)]

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Kind, SpanCost, Trace};
use workloads::{Input, Observed, Sizes, Stopwatch, Times, Trial, NAMES};

/// Largest allowed gap between the layers' summed self times in a
/// traced pass (span costs and bookkeeping taken out) and the wall time
/// of the untraced pass before it, as a share of the latter (median
/// over such pairs).
const LAYER_SUM_BOUND: f64 = 0.25;
/// The layer sum is checked only where the tracer's own time is at most
/// this share of the untraced pass. Denser tracing perturbs the code it
/// measures beyond the spans' calibrated cost — clock reads stall the
/// pipeline, and calls through the delegate are no longer inlined — so
/// there the gap is reported but says little about the layers.
const TRACER_SHARE_MAX: f64 = 0.25;
/// Set-up is repeated until this many samples and `SETUP_BUDGET_S`
/// seconds are reached (or `SETUP_MAX` samples).
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;
/// A set-up sample shorter than this is repeated in a batch and
/// divided, so the on-CPU clock's granularity (one scheduler tick, a
/// few milliseconds) stays small beside it.
const SETUP_SAMPLE_S: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".to_owned()),
        },
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[m],
        _ => (v[m - 1] + v[m]) / 2.0,
    }
}

/// Builds the inputs repeatedly; returns the last build and the median
/// on-CPU seconds per build, overall and for the graph alone.
fn measure_setup(name: &str, seed: u64) -> (Input, f64, f64, Vec<f64>) {
    let started = Instant::now();
    let mut input = Input::build(name, Sizes::full(), seed);
    // The first build, on the wall clock, sizes the batch.
    let first = started.elapsed().as_secs_f64();
    let batch = if first < SETUP_SAMPLE_S {
        (SETUP_SAMPLE_S / first.max(1e-9)).ceil() as usize
    } else {
        1
    };
    let (mut samples, mut graph) = (Vec::new(), Vec::new());
    while samples.len() < SETUP_MIN
        || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && samples.len() < SETUP_MAX)
    {
        let mut graph_s = 0.0;
        let watch = Stopwatch::start();
        for _ in 0..batch {
            drop(input);
            input = Input::build(name, Sizes::full(), seed);
            graph_s += input.graph_s;
        }
        samples.push(watch.stop().cpu_s / batch as f64);
        graph.push(graph_s / batch as f64);
    }
    let setup = median(&samples);
    (input, setup, median(&graph), samples)
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The first pass's outcomes, which every later pass must repeat.
    expected: Vec<Observed>,
    untraced: Vec<Times>,
    traced: Vec<Times>,
    traces: Vec<Trace>,
    peak_threads: u64,
}

impl Run {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn pass(&mut self, input: &Input, traced: bool) {
        if traced {
            trace::reset();
        }
        let mut secs = Times::default();
        for i in 0..input.trials() {
            let t: Trial = input.run_trial(i, traced);
            self.attempted += 1;
            secs.wall_s += t.times.wall_s;
            secs.cpu_s += t.times.cpu_s;
            self.peak_threads = self.peak_threads.max(t.peak_threads);
            let tag = if traced { "traced" } else { "untraced" };
            // The first pass records what every later pass must repeat.
            let differs = match self.expected.get(i) {
                Some(first) => *first != t.observed,
                None => {
                    self.expected.push(t.observed.clone());
                    false
                }
            };
            if let Some(why) = t.failure {
                self.fail(format!("trial {i} ({tag}): {why}"));
            } else if differs {
                self.fail(format!(
                    "trial {i} ({tag}) observed {:?}, the first pass {:?}",
                    t.observed, self.expected[i]
                ));
            }
        }
        if traced {
            self.traces.push(trace::take());
            self.traced.push(secs);
        } else {
            self.untraced.push(secs);
        }
    }

    /// Median over traced passes of a figure of their traces.
    fn traced_median(&self, f: impl Fn(&Trace) -> f64) -> f64 {
        median(&self.traces.iter().map(f).collect::<Vec<_>>())
    }

    /// Median seconds of the untraced or traced passes on one clock.
    fn pass_median(&self, traced: bool, clock: fn(&Times) -> f64) -> f64 {
        let passes = if traced { &self.traced } else { &self.untraced };
        median(&passes.iter().map(clock).collect::<Vec<_>>())
    }

    /// The layer-sum check: the layers' self times in each traced
    /// pass, with the tracer's own time taken out, against the wall time
    /// of the untraced pass just before it (passes alternate, so the
    /// two share the host's state). A wrong span cost, or tracing that
    /// slows the layers themselves, opens a gap. Returns the median gap
    /// as a share of the untraced time, and whether it was checked (see
    /// [`TRACER_SHARE_MAX`]).
    fn check_layer_sum(&mut self, cost: SpanCost) -> (f64, bool) {
        let pairs = || self.traces.iter().zip(&self.untraced);
        let share = |f: &dyn Fn(&Trace) -> f64| {
            median(&pairs().map(|(t, u)| f(t) / u.wall_s).collect::<Vec<_>>())
        };
        let err = (share(&|t| t.layer_sum(cost)) - 1.0).abs();
        let checked = share(&|t| t.tracer_s(cost)) <= TRACER_SHARE_MAX;
        if checked && err > LAYER_SUM_BOUND {
            self.fail(format!(
                "layers miss the untraced pass's wall time by {err:.3} of it"
            ));
        }
        (err, checked)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps (non-finite values, which JSON cannot hold, become 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(", "))
}

fn host_block() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_default();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "{{\"nproc\": {cores}, \"rustc\": {}, \"commit\": {}, \"source_hash\": {}}}",
        json_str(&rustc),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_HASH"))
    )
}

/// Metric values in `BENCHMARK.json` order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(run: &Run, setup_s: f64) -> Metrics {
    let run_s = run.pass_median(false, |t| t.cpu_s);
    let rounds: u64 = run.expected.iter().map(|o| o.rounds).sum();
    let wire: u64 = run.expected.iter().map(|o| o.wire_bytes).sum();
    let rss_mb = workloads::proc_status("VmHWM:") as f64 / 1024.0;
    vec![
        ("setup_s", setup_s, "s"),
        ("run_s", run_s, "s"),
        ("rounds", rounds as f64, "count"),
        ("wire_bytes", wire as f64, "bytes"),
        ("peak_rss_mb", rss_mb, "MiB"),
    ]
}

fn per_layer(
    run: &Run,
    input: &Input,
    graph_s: f64,
    cost: SpanCost,
    layer_sum_err: f64,
) -> Metrics {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // Times: median over traced passes, span costs taken out. A call
    // span's time is the layer sum (every other span is inside it); a
    // callback or codec span has no spans inside, so its time is its
    // self time. Counts repeat exactly, so the first traced pass (or
    // the first pass's outcomes) gives them.
    let own = |k: Kind| run.traced_median(|t| t.self_s(k, cost));
    let root = |k: Kind| {
        run.traced_median(|t| {
            if t.get(k).calls > 0 {
                t.layer_sum(cost)
            } else {
                0.0
            }
        })
    };
    let first = run.traces.first().cloned().unwrap_or_default();
    let calls = |k: Kind| first.get(k).calls;
    let sum = |f: &dyn Fn(&Observed) -> u64| run.expected.iter().map(f).sum::<u64>();
    let net = |f: &dyn Fn(&workloads::NetObserved) -> u64| sum(&|o| o.net.map_or(0, |n| f(&n)));
    let delta = net(&|n| n.wire.delta_frames);
    let fallback = net(&|n| n.wire.snapshot_frames);
    let peak_frontier = run.expected.iter().map(|o| o.stats.peak_frontier).max();
    let stream_useful = if input.name == "stream-rlc" {
        ratio(first.progress_gained, first.units_received)
    } else {
        0.0
    };
    let wall = |t: &Times| t.wall_s;
    let (untraced, traced) = (run.pass_median(false, wall), run.pass_median(true, wall));
    let s = |name, v: f64| (name, v, "s");
    let n = |name, v: u64| (name, v as f64, "count");
    let b = |name, v: u64| (name, v as f64, "bytes");
    let frac = |name, v: f64| (name, v, "ratio");
    vec![
        s("graph.build_s", graph_s),
        n("graph.edges", workloads::to_u64(input.graph.edge_count())),
        s("sim.call_s", root(Kind::SimCall)),
        s("sim.self_s", own(Kind::SimCall)),
        s("sim.stop_s", own(Kind::SimStop)),
        n("sim.initiated", sum(&|o| o.metrics.initiated)),
        n("sim.delivered", sum(&|o| o.metrics.delivered)),
        n("sim.payload_units", sum(&|o| o.metrics.payload_units)),
        n("sim.stepped", sum(&|o| o.stats.stepped)),
        n("sim.woken", sum(&|o| o.stats.woken)),
        n("sim.event_rounds", sum(&|o| o.stats.event_rounds)),
        n("sim.skipped_rounds", sum(&|o| o.stats.skipped_rounds)),
        n(
            "sim.peak_frontier",
            workloads::to_u64(peak_frontier.unwrap_or(0)),
        ),
        s("core.payload_s", own(Kind::Payload)),
        n("core.payload_calls", calls(Kind::Payload)),
        s("core.on_round_s", own(Kind::OnRound)),
        n("core.on_round_calls", calls(Kind::OnRound)),
        s("core.on_exchange_s", own(Kind::OnExchange)),
        n("core.on_exchange_calls", calls(Kind::OnExchange)),
        s("core.other_s", own(Kind::CoreOther)),
        n("core.other_calls", calls(Kind::CoreOther)),
        frac(
            "core.useful_exchange_frac",
            ratio(first.useful_exchanges, calls(Kind::OnExchange)),
        ),
        frac("core.stream.useful_frac", stream_useful),
        s("net.call_s", root(Kind::NetCall)),
        s("net.self_s", own(Kind::NetCall)),
        s("net.codec.encode_s", own(Kind::CodecEncode)),
        n("net.codec.encode_calls", calls(Kind::CodecEncode)),
        s("net.codec.decode_s", own(Kind::CodecDecode)),
        n("net.codec.decode_calls", calls(Kind::CodecDecode)),
        s("net.delta.encode_s", own(Kind::DeltaEncode)),
        n("net.delta.encode_calls", calls(Kind::DeltaEncode)),
        s("net.delta.decode_s", own(Kind::DeltaDecode)),
        n("net.delta.decode_calls", calls(Kind::DeltaDecode)),
        s("net.delta.merge_s", own(Kind::DeltaMerge)),
        n("net.delta.merge_calls", calls(Kind::DeltaMerge)),
        n("net.frames_sent", net(&|n| n.transport.frames_sent)),
        b("net.payload_bytes", net(&|n| n.wire.payload_bytes)),
        b("net.snapshot_equiv_bytes", net(&|n| n.wire.snapshot_bytes)),
        n("net.delta_frames", delta),
        n("net.fallback_frames", fallback),
        frac("net.delta_frac", ratio(delta, delta + fallback)),
        n("net.peak_threads", run.peak_threads),
        n("net.peer_losses", sum(&|o| o.metrics.lost)),
        s(
            "trace.bookkeeping_s",
            run.traced_median(|t| t.tracer_s(cost)),
        ),
        s("trace.run_s", traced),
        s("trace.untraced_run_s", untraced),
        s("trace.overhead_s", traced - untraced),
        frac("trace.overhead_frac", (traced - untraced) / untraced),
        frac("trace.layer_sum_err", layer_sum_err),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut input, setup_s, graph_s, setup_samples) = measure_setup(&args.workload, args.seed);
    let check_start = Instant::now();
    input.prepare_check();
    let check_s = check_start.elapsed().as_secs_f64();
    let cost = if args.trace {
        trace::calibrate()
    } else {
        SpanCost::default()
    };

    let mut run = Run::default();
    let start = Instant::now();
    let mut traced = false;
    loop {
        run.pass(&input, traced);
        // Three passes at least, for a median — unless passes are so
        // slow (a broken build) that three would overrun twice the time.
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if args.trace {
            !run.traced.is_empty()
        } else {
            run.untraced.len() >= 3 || elapsed >= 2.0 * args.seconds
        };
        if enough && elapsed >= args.seconds {
            break;
        }
        traced = args.trace && !traced;
    }

    let (layer_sum_err, layer_sum_checked) = if args.trace {
        run.check_layer_sum(cost)
    } else {
        (0.0, false)
    };
    let metrics = if args.trace {
        per_layer(&run, &input, graph_s, cost, layer_sum_err)
    } else {
        end_to_end(&run, setup_s)
    };
    let failures: Vec<String> = run.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \
         \"trials_per_pass\": {}, \"untraced_pass_cpu_s\": {}, \"untraced_pass_wall_s\": {}, \
         \"traced_pass_wall_s\": {}, \"span_cost_ns\": {{\"inside\": {}, \"outside\": {}}}, \"layer_sum_checked\": {}, \
         \"setup_cpu_s_samples\": {}, \"check_s\": {}, \"failures\": [{}]}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        host_block(),
        input.trials(),
        json_list(&run.untraced.iter().map(|t| t.cpu_s).collect::<Vec<_>>()),
        json_list(&run.untraced.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
        json_list(&run.traced.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
        json_num(cost.inside_s * 1e9),
        json_num(cost.outside_s * 1e9),
        layer_sum_checked,
        json_list(&setup_samples),
        json_num(check_s),
        failures.join(", ")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The delegates must not change behaviour: at a small size, every
    /// workload's traced trials observe exactly what untraced ones do.
    /// And the tracer loses no time: every span runs on this thread
    /// inside the root, so layers plus tracer make up the traced call.
    #[test]
    fn traced_and_untraced_trials_agree() {
        let cost = trace::calibrate();
        for name in NAMES {
            let mut input = Input::build(name, Sizes::small(), 7);
            input.prepare_check();
            for i in 0..input.trials() {
                let plain = input.run_trial(i, false);
                trace::reset();
                let traced = input.run_trial(i, true);
                let tr = trace::take();
                assert_eq!(plain.failure, None, "{name} trial {i}");
                assert_eq!(traced.failure, None, "{name} trial {i} traced");
                assert_eq!(plain.observed, traced.observed, "{name} trial {i}");
                assert!(plain.observed.rounds > 0, "{name} trial {i} ran no rounds");
                assert!(
                    tr.get(Kind::OnExchange).calls > 0,
                    "{name}: no exchanges traced"
                );
                let call = traced.times.wall_s;
                let err = (tr.layer_sum(cost) + tr.tracer_s(cost) - call).abs() / call;
                assert!(err < 0.01, "{name}: spans miss {err:.4} of the call");
            }
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        for name in NAMES {
            let a = Input::build(name, Sizes::small(), 3);
            let b = Input::build(name, Sizes::small(), 3);
            assert_eq!(a.graph.topology_hash(), b.graph.topology_hash(), "{name}");
            assert_eq!(a.seeds, b.seeds, "{name}");
            assert_eq!(a.sources, b.sources, "{name}");
        }
    }

    #[test]
    fn a_broken_outcome_fails_the_check() {
        let mut input = Input::build("reactor-delta-soak", Sizes::small(), 5);
        input.prepare_check();
        input.references.swap(0, 1);
        assert!(input.run_trial(0, false).failure.is_some());
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
