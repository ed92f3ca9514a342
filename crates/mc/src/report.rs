//! Per-instance run reports and the `mc-report.json` serialization
//! consumed by CI and emitted by `gossip check --format json`.
//!
//! A [`RunReport`] aggregates one instance × fault budget across every
//! model the property selection touches; lemma 18's per-configuration
//! models are folded into a single entry (their counts sum, the first
//! violation wins) so the report stays readable. JSON is hand-rolled,
//! like `cargo xtask tidy --format json` — the workspace has no serde.

use crate::checker::{check, CheckConfig, CheckOutcome};
use crate::models;
use crate::mutants::MutantRun;
use crate::{Instance, PropSelect};

/// One checked model (or aggregated model family) on one instance.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// Model display name (`nd-broadcast`, `rr-flood`,
    /// `sparse-flood`, `lemma18`, `spanner`, `rr-stream`).
    pub model: String,
    /// Distinct states explored (summed across aggregated configs).
    pub explored: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Terminal observations.
    pub terminals: u64,
    /// Whether any run tripped the state valve (counts are lower
    /// bounds then).
    pub truncated: bool,
    /// The first violation, if any.
    pub violation: Option<ViolationReport>,
}

/// A violation in report form.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// The violated property.
    pub property: String,
    /// The violation message.
    pub message: String,
    /// The serialized counterexample case (golden-trace style).
    pub case: String,
}

/// Everything `gossip check` learned about one instance at one budget.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Instance name (`cycle4`, …).
    pub instance: String,
    /// The fault budget the models were explored under (models with a
    /// smaller soundness cap clamp it individually).
    pub fault_budget: u32,
    /// One entry per model family run.
    pub models: Vec<ModelReport>,
}

impl RunReport {
    /// Whether every model verified its properties exhaustively: no
    /// violation and no truncation.
    pub fn ok(&self) -> bool {
        self.models
            .iter()
            .all(|m| m.violation.is_none() && !m.truncated)
    }

    /// Total states explored across all models.
    pub fn explored(&self) -> u64 {
        self.models.iter().map(|m| m.explored).sum()
    }
}

fn model_report(name: &str, outcomes: Vec<CheckOutcome>) -> ModelReport {
    let mut report = ModelReport {
        model: name.to_string(),
        explored: 0,
        transitions: 0,
        terminals: 0,
        truncated: false,
        violation: None,
    };
    for out in outcomes {
        report.explored += out.explored;
        report.transitions += out.transitions;
        report.terminals += out.terminals;
        report.truncated |= out.truncated;
        if report.violation.is_none() {
            if let Some(cx) = out.violation {
                report.violation = Some(ViolationReport {
                    property: cx.property.to_string(),
                    message: cx.message,
                    case: cx.case,
                });
            }
        }
    }
    report
}

/// Runs every model family whose properties the selection touches on
/// one instance, exhaustively, and aggregates the results.
pub fn run_instance(inst: &Instance, fault_budget: u32, select: &PropSelect) -> RunReport {
    run_instance_models(inst, fault_budget, select, None)
}

/// Like [`run_instance`], additionally restricted to the named model
/// families when `models` is `Some` (property selection alone cannot
/// single out a model — `nd-broadcast` and `rr-flood` share
/// properties). The regression corpus uses this to re-measure one
/// expensive model without re-running its siblings.
pub fn run_instance_models(
    inst: &Instance,
    fault_budget: u32,
    select: &PropSelect,
    model_filter: Option<&[&str]>,
) -> RunReport {
    let wanted = |model: &str| model_filter.is_none_or(|ms| ms.contains(&model));
    let cfg = CheckConfig {
        fault_budget,
        ..CheckConfig::default()
    };
    let g = &inst.graph;
    let mut reports = Vec::new();

    if wanted("nd-broadcast")
        && (select.wants("latency-respected") || select.wants("at-most-once-delivery"))
    {
        let m = models::nd_broadcast(g, select.clone());
        reports.push(model_report("nd-broadcast", vec![check(&m, &cfg)]));
    }
    if wanted("rr-flood")
        && (select.wants("latency-respected")
            || select.wants("at-most-once-delivery")
            || select.wants("termination"))
    {
        let m = models::rr_flood(g, select.clone());
        reports.push(model_report("rr-flood", vec![check(&m, &cfg)]));
    }
    if wanted("sparse-flood")
        && (select.wants("latency-respected")
            || select.wants("at-most-once-delivery")
            || select.wants("termination"))
    {
        let m = models::sparse_flood(g, select.clone());
        reports.push(model_report("sparse-flood", vec![check(&m, &cfg)]));
    }
    if wanted("lemma18")
        && (select.wants("lemma18-no-early-stop") || select.wants("same-round-termination"))
    {
        let mut outcomes = Vec::new();
        for m in models::lemma18_models(g, select) {
            let out = check(&m, &cfg);
            let stop = out.violation.is_some();
            outcomes.push(out);
            if stop {
                break;
            }
        }
        reports.push(model_report("lemma18", outcomes));
    }
    if wanted("spanner") && select.wants("spanner-out-degree") {
        let m = models::spanner_model(g, select);
        reports.push(model_report("spanner", vec![check(&m, &cfg)]));
    }
    if wanted("rr-stream") && select.wants("no-phantom-rumor") {
        let m = models::rr_stream_model(g, select.clone());
        reports.push(model_report("rr-stream", vec![check(&m, &cfg)]));
    }

    RunReport {
        instance: inst.name.clone(),
        fault_budget,
        models: reports,
    }
}

/// RFC 8259 string escaping (same contract as the tidy JSON reporter).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn push_model(buf: &mut String, m: &ModelReport) {
    buf.push_str(&format!(
        "      {{\"model\": \"{}\", \"explored\": {}, \"transitions\": {}, \"terminals\": {}, \"truncated\": {}",
        escape(&m.model),
        m.explored,
        m.transitions,
        m.terminals,
        m.truncated
    ));
    match &m.violation {
        None => buf.push_str(", \"violation\": null}"),
        Some(v) => {
            buf.push_str(&format!(
                ", \"violation\": {{\"property\": \"{}\", \"message\": \"{}\", \"case\": \"{}\"}}}}",
                escape(&v.property),
                escape(&v.message),
                escape(&v.case)
            ));
        }
    }
}

/// Serializes runs (and, when present, the mutation suite) as the
/// `mc-report.json` document:
///
/// ```json
/// {
///   "version": 1,
///   "runs": [ {"instance": …, "fault_budget": …, "models": […]}, … ],
///   "mutants": [ {"name": …, "property": …, "killed": …}, … ],
///   "summary": {"runs": N, "ok": M, "violations": K}
/// }
/// ```
pub fn to_json(runs: &[RunReport], mutants: &[MutantRun]) -> String {
    let mut buf = String::from("{\n  \"version\": 1,\n  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
            "\n    {{\"instance\": \"{}\", \"fault_budget\": {}, \"models\": [\n",
            escape(&r.instance),
            r.fault_budget
        ));
        for (j, m) in r.models.iter().enumerate() {
            if j > 0 {
                buf.push_str(",\n");
            }
            push_model(&mut buf, m);
        }
        buf.push_str("\n    ]}");
    }
    buf.push_str("\n  ],\n  \"mutants\": [");
    for (i, m) in mutants.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"property\": \"{}\", \"killed\": {}}}",
            escape(m.name),
            escape(m.property),
            m.killed()
        ));
    }
    let ok = runs.iter().filter(|r| r.ok()).count();
    let violations = runs
        .iter()
        .flat_map(|r| &r.models)
        .filter(|m| m.violation.is_some())
        .count();
    buf.push_str(&format!(
        "\n  ],\n  \"summary\": {{\"runs\": {}, \"ok\": {ok}, \"violations\": {violations}}}\n}}\n",
        runs.len()
    ));
    buf
}

/// Human-readable rendering of one run.
pub fn human(r: &RunReport) -> String {
    let mut buf = format!(
        "{} (fault budget {}): {} states\n",
        r.instance,
        r.fault_budget,
        r.explored()
    );
    for m in &r.models {
        buf.push_str(&format!(
            "  {:<14} explored={} transitions={} terminals={}{}",
            m.model,
            m.explored,
            m.transitions,
            m.terminals,
            if m.truncated { " TRUNCATED" } else { "" }
        ));
        match &m.violation {
            None => buf.push_str("  ok\n"),
            Some(v) => {
                buf.push_str(&format!("  VIOLATION [{}]: {}\n", v.property, v.message));
                for line in v.case.lines() {
                    buf.push_str(&format!("    | {line}\n"));
                }
            }
        }
    }
    buf
}
