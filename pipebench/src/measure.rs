//! Measurement loop: set-up, checked warm-up, timed runs, and the traced
//! run that yields the per-layer metrics.

use crate::checks::{check_output, check_replay, check_root_share};
use crate::pipeline::{self, RunOutput, Setup, Workload};
use crate::stats::{median, p90};
use crate::trace::{self, Span, Tracer};
use cs_core::json::JsonValue;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per process; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("run_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Span names whose self time is a per-layer `<name>_ms` metric.
const SELF_TIME_SPANS: [&str; 18] = [
    "embed.encode",
    "core.scope",
    "core.fit",
    "core.assess",
    "core.streamline",
    "core.sweep_prepare",
    "core.sweep_grid",
    "core.threshold",
    "oda.zscore",
    "oda.lof",
    "oda.pca",
    "match.sim",
    "match.cluster",
    "match.lsh",
    "match.ann",
    "match.original",
    "metrics.evaluate",
    "metrics.curves",
];

/// The streamlined-schema matcher spans, each with its candidate and PQ
/// metric names.
const MATCHERS: [(&str, &str, &str); 4] = [
    ("match.sim", "match.sim.candidates", "match.sim.pq"),
    (
        "match.cluster",
        "match.cluster.candidates",
        "match.cluster.pq",
    ),
    ("match.lsh", "match.lsh.candidates", "match.lsh.pq"),
    ("match.ann", "match.ann.candidates", "match.ann.pq"),
];

/// Per-layer metrics (traced run): name and unit. A metric of a layer a
/// workload does not run reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = vec![("datasets.generate_ms".to_string(), "ms")];
    out.extend(SELF_TIME_SPANS.iter().map(|s| (format!("{s}_ms"), "ms")));
    out.push(("core.fit_slowest_model_ms".into(), "ms"));
    out.push(("match.saved_ms".into(), "ms"));
    for (name, unit) in [
        ("embed.elements", "count"),
        ("core.components", "count"),
        ("core.pass_operations", "count"),
        ("core.kept", "count"),
        ("core.pool_batches", "count"),
    ] {
        out.push((name.into(), unit));
    }
    for (_, candidates, pq) in MATCHERS {
        out.push((candidates.into(), "count"));
        out.push((pq.into(), "ratio"));
    }
    out.push(("trace.overhead_ms".into(), "ms"));
    out.push(("trace.root_self_share".into(), "ratio"));
    out
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload; `None` runs every workload in its own process.
    pub workload: Option<Workload>,
    /// Input seed (used by `synth-1300`; recorded for every workload).
    pub seed: u64,
    /// Measuring time per process.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str = "usage: pipebench --workload <paper-oc3fo|sweep-oc3fo|synth-1300|all> \
--seed <n> --seconds <n> --trace <0|1>";

/// Parses `--workload W --seed N --seconds N --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if values.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let workload = match get("workload")? {
        "all" => None,
        name => Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?),
    };
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds = match get("seconds")?.parse() {
        Ok(s) if (1..=3600).contains(&s) => s,
        _ => return Err("--seconds must be an integer in 1..=3600".into()),
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's result for one workload.
#[derive(Debug)]
pub struct Report {
    /// No run failed and every check passed.
    pub correct: bool,
    /// Pipeline runs attempted (warm-ups included).
    pub attempted: usize,
    /// Runs that returned an error, panicked or failed a check.
    pub failed: usize,
    /// `(name, value, unit)`: end-to-end or per-layer metrics.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts, tail, quality guards, digest and seed.
    pub detail: JsonValue,
    /// The recorded spans (traced run only).
    pub spans: Option<JsonValue>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = JsonValue::object(vec![
                    ("value", JsonValue::Number(*value)),
                    ("unit", JsonValue::String(unit.to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Number(self.attempted as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one attempted run; a failure is logged and yields `None`.
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, error: String) {
        eprintln!("pipebench: run failed: {error}");
        self.failed += 1;
        self.errors.push(error);
    }
}

/// Runs `work`, turning a panic into an error.
fn guarded<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// One pipeline run, timed; the output check runs after the clock stops.
fn checked_run(
    t: &mut Tracer,
    setup: &Setup,
    reference: Option<u64>,
) -> (Duration, Result<(RunOutput, u64), String>) {
    let start = Instant::now();
    let out = guarded(|| pipeline::run(t, setup));
    let elapsed = start.elapsed();
    let checked = out.and_then(|o| check_output(setup.workload, &o, reference).map(|d| (o, d)));
    (elapsed, checked)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in process status")?;
    Ok(kb / 1024.0)
}

/// Measures one workload. `start` is the process start; the first
/// set-up is timed from it. An `Err` means no result can be reported.
pub fn bench(workload: Workload, args: &Args, start: Instant) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace);

    // Set-up: dataset, lexicon (and sweep signatures), then a checked
    // warm-up run; repeated so `setup_s` is a median.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut reference = None;
    let mut setup = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { start } else { Instant::now() };
        drop(setup.take());
        tracer.set_run(i as u64);
        let s = guarded(|| pipeline::set_up(&mut tracer, workload, args.seed))
            .map_err(|e| format!("set-up: {e}"))?;
        let (_, checked) = checked_run(&mut tracer, &s, reference);
        if let Some((_, d)) = tally.record(checked) {
            reference.get_or_insert(d);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.ok_or("no set-up")?;

    // Untraced timed runs: all of the time, or half of it when traced.
    let budget = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    let mut off = Tracer::new(false);
    let mut samples = Vec::new();
    let mut last = None;
    let loop_start = Instant::now();
    loop {
        let (elapsed, checked) = checked_run(&mut off, &setup, reference);
        if let Some((out, d)) = tally.record(checked) {
            reference.get_or_insert(d);
            samples.push(ms(elapsed));
            last = Some(out);
        }
        if loop_start.elapsed() >= budget {
            break;
        }
    }
    let p50 = median(&samples);

    let mut detail = vec![
        ("workload", JsonValue::String(workload.name().into())),
        ("seed", JsonValue::Number(args.seed as f64)),
        ("trace", JsonValue::Bool(args.trace)),
        (
            "threads",
            JsonValue::Number(cs_core::pool::global().workers() as f64),
        ),
        ("setups", JsonValue::Number(SETUPS as f64)),
        ("setup_s_each", JsonValue::numbers(&setup_s)),
        ("samples", JsonValue::Number(samples.len() as f64)),
        ("run_ms_p50", JsonValue::Number(p50)),
    ];
    match p90(&samples) {
        Some(p) => detail.push(("run_ms_p90", JsonValue::Number(p))),
        None => detail.push((
            "run_ms_p90",
            JsonValue::String(format!(
                "omitted: {} samples, p90 needs 100 (ten beyond it)",
                samples.len()
            )),
        )),
    }
    detail.push((
        "digest",
        JsonValue::String(reference.map_or("none".into(), |d| format!("{d:016x}"))),
    ));
    if let Some(out) = &last {
        detail.push(("quality", quality_json(out)));
    }

    let (metrics, spans) = if args.trace {
        let traced = traced_runs(&mut tracer, &setup, budget, reference, &mut tally);
        let overhead = median(&traced.wall_ms) - p50;
        detail.push((
            "traced_samples",
            JsonValue::Number(traced.wall_ms.len() as f64),
        ));
        detail.push((
            "run_ms_p50_traced",
            JsonValue::Number(median(&traced.wall_ms)),
        ));
        let by_run = trace::self_ms_by_run(tracer.spans());
        detail.push(("self_ms", self_ms_json(&traced, &by_run)));
        let metrics = layer_metrics(&traced, tracer.spans(), &by_run, overhead);
        (metrics, Some(trace::spans_json(tracer.spans())))
    } else {
        let metrics = vec![
            ("run_ms_p50".to_string(), p50, "ms"),
            ("setup_s".to_string(), median(&setup_s), "s"),
            ("peak_rss_mb".to_string(), peak_rss_mb()?, "MiB"),
        ];
        (metrics, None)
    };

    let error_rate = tally.failed as f64 / tally.attempted as f64;
    detail.push(("attempted", JsonValue::Number(tally.attempted as f64)));
    detail.push(("error_rate", JsonValue::Number(error_rate)));
    if !tally.errors.is_empty() {
        let errors = tally
            .errors
            .iter()
            .cloned()
            .map(JsonValue::String)
            .collect();
        detail.push(("errors", JsonValue::Array(errors)));
    }
    Ok(Report {
        correct: tally.failed == 0 && !samples.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail: JsonValue::object(detail),
        spans,
    })
}

/// The quality guards of one run's output.
fn quality_json(out: &RunOutput) -> JsonValue {
    match out {
        RunOutput::Scope(s) => {
            let mut pairs = vec![("scope_f1", JsonValue::Number(s.scope.f1()))];
            for m in &s.matchers {
                pairs.push((
                    m.span,
                    JsonValue::object(vec![
                        ("matcher", JsonValue::String(m.name.clone())),
                        ("match_f1", JsonValue::Number(m.quality.f1)),
                        ("match_pc", JsonValue::Number(m.quality.pc)),
                    ]),
                ));
            }
            JsonValue::object(pairs)
        }
        RunOutput::Sweep(rows) => {
            let collab = rows.last();
            JsonValue::object(vec![
                (
                    "method",
                    JsonValue::String(collab.map_or("", |r| &r.method).into()),
                ),
                (
                    "auc_pr",
                    JsonValue::Number(collab.map_or(f64::NAN, |r| r.auc_pr)),
                ),
                (
                    "auc_roc_smoothed",
                    JsonValue::Number(collab.map_or(f64::NAN, |r| r.auc_roc_smoothed)),
                ),
            ])
        }
    }
}

/// What the traced runs measured, per successful run.
#[derive(Debug, Default)]
struct Traced {
    run_ids: Vec<u64>,
    wall_ms: Vec<f64>,
    counts: Vec<BTreeMap<&'static str, f64>>,
    root_share: Vec<f64>,
}

/// Traced runs for `budget`: each is a checked pipeline run followed,
/// outside its root span, by the scoping replay and the unscoped matchers.
fn traced_runs(
    tracer: &mut Tracer,
    setup: &Setup,
    budget: Duration,
    reference: Option<u64>,
    tally: &mut Tally,
) -> Traced {
    let pool = cs_core::pool::global();
    let mut traced = Traced::default();
    let mut run_id = SETUPS as u64;
    let loop_start = Instant::now();
    loop {
        tracer.set_run(run_id);
        let batches = pool.batches_dispatched();
        let (elapsed, checked) = checked_run(tracer, setup, reference);
        let batches = pool.batches_dispatched() - batches;
        let extras = checked.and_then(|(out, _)| {
            if let RunOutput::Scope(scope) = &out {
                let replay = guarded(|| pipeline::replay(tracer, &scope.signatures))?;
                check_replay(scope, &replay)?;
                guarded(|| {
                    pipeline::match_original(tracer, setup, &scope.signatures);
                    Ok(())
                })?;
            }
            Ok(out)
        });
        if let Some(out) = tally.record(extras) {
            traced.run_ids.push(run_id);
            traced.wall_ms.push(ms(elapsed));
            traced.counts.push(counts(&out, setup, batches));
        }
        run_id += 1;
        if loop_start.elapsed() >= budget {
            break;
        }
    }

    // Every pipeline step must sit in a child span of the root.
    let self_ns = trace::self_times_ns(tracer.spans());
    for &run in &traced.run_ids {
        let share = trace::root_self_share(tracer.spans(), &self_ns, "run", run);
        if let Err(e) = check_root_share(share) {
            tally.fail(format!("traced run {run}: {e}"));
        }
        traced.root_share.push(share);
    }
    traced
}

/// Deterministic counts of one run.
fn counts(out: &RunOutput, setup: &Setup, pool_batches: usize) -> BTreeMap<&'static str, f64> {
    let mut c = BTreeMap::new();
    c.insert("core.pool_batches", pool_batches as f64);
    match out {
        RunOutput::Scope(s) => {
            c.insert("embed.elements", s.signatures.total_len() as f64);
            c.insert("core.components", s.components as f64);
            c.insert("core.pass_operations", s.pass_operations as f64);
            c.insert("core.kept", s.kept() as f64);
            for m in &s.matchers {
                if let Some(&(_, candidates, pq)) = MATCHERS.iter().find(|x| x.0 == m.span) {
                    c.insert(candidates, m.quality.candidates as f64);
                    c.insert(pq, m.quality.pq);
                }
            }
        }
        RunOutput::Sweep(_) => {
            let encoded = setup.signatures.as_ref().map_or(0, |s| s.total_len());
            c.insert("embed.elements", encoded as f64);
        }
    }
    c
}

type SelfMs = BTreeMap<u64, BTreeMap<&'static str, f64>>;

/// Median self time over the traced runs of every span name they record,
/// roots and replay parts included.
fn self_ms_json(traced: &Traced, by_run: &SelfMs) -> JsonValue {
    let runs: Vec<&BTreeMap<&str, f64>> = traced
        .run_ids
        .iter()
        .filter_map(|r| by_run.get(r))
        .collect();
    let mut names: Vec<&str> = runs.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let medians = names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = runs
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect();
            (name.to_string(), JsonValue::Number(median(&values)))
        })
        .collect();
    JsonValue::Object(medians)
}

/// Per-layer metrics: medians over the traced runs (over the set-ups for
/// `datasets.generate_ms`).
fn layer_metrics(
    traced: &Traced,
    spans: &[Span],
    by_run: &SelfMs,
    overhead_ms: f64,
) -> Vec<(String, f64, &'static str)> {
    let self_ms = |run: u64, span: &str| {
        by_run
            .get(&run)
            .and_then(|m| m.get(span))
            .copied()
            .unwrap_or(0.0)
    };
    let over_runs = |f: &dyn Fn(usize, u64) -> f64| -> f64 {
        let values: Vec<f64> = traced
            .run_ids
            .iter()
            .enumerate()
            .map(|(i, &r)| f(i, r))
            .collect();
        median(&values)
    };
    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "datasets.generate_ms" => {
                    let setups: Vec<f64> = (0..SETUPS as u64)
                        .map(|r| self_ms(r, "datasets.generate"))
                        .collect();
                    median(&setups)
                }
                "core.fit_slowest_model_ms" => over_runs(&|_, r| {
                    spans
                        .iter()
                        .filter(|s| s.run == r && s.name == "core.fit_model")
                        .map(|s| s.duration_ns() as f64 / 1e6)
                        .fold(0.0, f64::max)
                }),
                "match.saved_ms" => over_runs(&|_, r| {
                    let streamlined: f64 = MATCHERS.iter().map(|m| self_ms(r, m.0)).sum();
                    self_ms(r, "match.original") - streamlined
                }),
                "trace.overhead_ms" => overhead_ms,
                "trace.root_self_share" => median(&traced.root_share),
                n => match n.strip_suffix("_ms") {
                    Some(span) => over_runs(&|_, r| self_ms(r, span)),
                    None => over_runs(&|i, _| traced.counts[i].get(n).copied().unwrap_or(0.0)),
                },
            };
            (name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload synth-1300 --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some(Workload::Synth1300),
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        let all = parse_args(&args("--trace 0 --seconds 1 --seed 0 --workload all")).unwrap();
        assert_eq!(all.workload, None);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload synth-1300 --seed -1 --seconds 1 --trace 0",
            "--workload synth-1300 --seed 1 --seconds 0 --trace 0",
            "--workload synth-1300 --seed 1 --seconds 1 --trace 2",
            "--workload synth-1300 --seed 1 --seconds 1",
            "--workload synth-1300 --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload synth-1300 --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let spec = cs_core::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
