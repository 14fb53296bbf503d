//! The three workloads: set-up, one pipeline run, and the traced-only
//! extras (the scoping replay and matching on the unscoped schemas).
//!
//! Every call into a library crate sits inside a span named after the
//! crate (`datasets`, `embed`, `core`, `oda`, `match`, `metrics`), so the
//! traced run can split a run's wall time by layer.

use crate::trace::Tracer;
use cs_core::scoping::scope_from_scores;
use cs_core::{
    encode_catalog, CollaborativeScoper, CollaborativeSweep, CombinationRule, GlobalScoper,
    LocalModel, SchemaSignatures,
};
use cs_datasets::synthetic::{try_generate, SyntheticConfig};
use cs_datasets::Dataset;
use cs_embed::{EncoderConfig, Lexicon, SignatureEncoder};
use cs_linalg::pca::ExplainedVariance;
use cs_match::{
    dedup_pairs, AnnMatcher, ClusterMatcher, ElementSet, LshMatcher, Matcher, SimMatcher,
};
use cs_metrics::{match_quality, BinaryConfusion, MatchQuality, SweepCurve};
use cs_oda::OutlierDetector;
use cs_schema::{Catalog, ElementId};
use std::collections::HashSet;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// OC3-FO at the Fig 7 grid point: encode, scope, streamline, match
    /// with SIM(0.6) / CLUSTER(5) / LSH(5), evaluate.
    PaperOc3fo,
    /// The Table 4 experiment on OC3-FO: collaborative sweep over the
    /// 50-point v grid plus the global detectors over the p grid.
    SweepOc3fo,
    /// A seeded 1297-element generated catalog through the paper
    /// pipeline, with ANN(5) matching.
    Synth1300,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Self::PaperOc3fo, Self::SweepOc3fo, Self::Synth1300];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperOc3fo => "paper-oc3fo",
            Self::SweepOc3fo => "sweep-oc3fo",
            Self::Synth1300 => "synth-1300",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Explained variance of the scoping workloads: point 5 of Fig 7's
/// 20-point v grid (printed as 0.732105 in `results/fig7.csv`).
pub const PAPER_V: f64 = 0.99 - 0.98 * (5.0 / 19.0);

/// Grid resolution of the Table 4 sweep.
pub const SWEEP_STEPS: usize = 50;

/// Element count of every `synth-1300` catalog, whatever the seed.
pub const SYNTH_ELEMENTS: usize = 1297;

/// The generator configuration of `synth-1300`.
pub fn synth_config(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        schemas: 4,
        shared_concepts: 1000,
        concepts_per_schema: 125,
        private_per_schema: 125,
        table_width: 8,
        alien_elements: 150,
        linkable_ratio: Some(0.5),
        seed,
        ..SyntheticConfig::default()
    }
}

/// Everything a run needs that set-up builds once.
#[derive(Debug)]
pub struct Setup {
    /// Which workload this set-up serves.
    pub workload: Workload,
    /// The catalog and its annotated linkages.
    pub dataset: Dataset,
    /// Linkability labels in unified element order.
    pub labels: Vec<bool>,
    /// The encoder lexicon; scoping runs clone it into a fresh encoder.
    pub lexicon: Lexicon,
    /// Signatures encoded once in set-up (`sweep-oc3fo` only: the scope
    /// workloads pay the cold encode inside every run, as users do).
    pub signatures: Option<SchemaSignatures>,
}

/// Builds the dataset and lexicon (and, for the sweep, the signatures).
pub fn set_up(t: &mut Tracer, workload: Workload, seed: u64) -> Result<Setup, String> {
    t.span("setup", |t| {
        let dataset = t.span("datasets.generate", |_| match workload {
            Workload::PaperOc3fo | Workload::SweepOc3fo => Ok(cs_datasets::oc3_fo()),
            Workload::Synth1300 => try_generate(&synth_config(seed)).map_err(|e| e.to_string()),
        })?;
        let lexicon = t.span("embed.lexicon", |_| Lexicon::default_lexicon());
        let signatures = (workload == Workload::SweepOc3fo)
            .then(|| t.span("embed.encode", |_| encode(&lexicon, &dataset.catalog)));
        let labels = dataset.labels();
        Ok(Setup {
            workload,
            dataset,
            labels,
            lexicon,
            signatures,
        })
    })
}

fn encode(lexicon: &Lexicon, catalog: &Catalog) -> SchemaSignatures {
    let encoder = SignatureEncoder::new(EncoderConfig::default(), lexicon.clone());
    encode_catalog(&encoder, catalog)
}

/// One matcher's outcome on the streamlined schemas.
#[derive(Debug, Clone)]
pub struct MatcherResult {
    /// Span (and per-layer metric) name, e.g. `match.sim`.
    pub span: &'static str,
    /// Display name, e.g. `SIM(0.6)`.
    pub name: String,
    /// PQ / PC / F1 / RR and the candidate count.
    pub quality: MatchQuality,
}

/// Output of one scoping run (`paper-oc3fo`, `synth-1300`).
#[derive(Debug, Clone)]
pub struct ScopeOutput {
    /// The run's signatures, kept for the traced replay.
    pub signatures: SchemaSignatures,
    /// Keep/prune per element, unified order.
    pub decisions: Vec<bool>,
    /// Foreign models accepting each element.
    pub accept_votes: Vec<usize>,
    /// Attributes and tables in the streamlined catalog.
    pub streamlined: (usize, usize),
    /// Kept attributes and tables handed to the matchers.
    pub matched: (usize, usize),
    /// Σ `n_components` over the local models.
    pub components: usize,
    /// `(element, foreign model)` reconstruction passes.
    pub pass_operations: usize,
    /// Scoping decisions against the dataset's labels.
    pub scope: BinaryConfusion,
    /// One entry per matcher, in roster order.
    pub matchers: Vec<MatcherResult>,
}

impl ScopeOutput {
    /// Elements kept by scoping.
    pub fn kept(&self) -> usize {
        self.decisions.iter().filter(|&&d| d).count()
    }

    /// FNV-1a over the decisions, votes and every matcher's candidate and
    /// true-positive counts: equal digests mean equal pipeline outputs.
    pub fn digest(&self) -> u64 {
        let mut bytes: Vec<u8> = self.decisions.iter().map(|&d| u8::from(d)).collect();
        for &v in &self.accept_votes {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for m in &self.matchers {
            bytes.extend_from_slice(&(m.quality.candidates as u64).to_le_bytes());
            bytes.extend_from_slice(&(m.quality.true_positives as u64).to_le_bytes());
        }
        cs_embed::hash::fnv1a(&bytes)
    }
}

/// One Table 4 row: AUC summaries ×100, as the paper reports them.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Method display name, e.g. `Scoping LOF (n=20)`.
    pub method: String,
    /// AUC of F1 over the parameter grid.
    pub auc_f1: f64,
    /// AUC-ROC over the observed FPR range.
    pub auc_roc: f64,
    /// Smoothed AUC-ROC′.
    pub auc_roc_smoothed: f64,
    /// AUC of the precision-recall curve.
    pub auc_pr: f64,
}

/// The output of one pipeline run.
#[derive(Debug, Clone)]
pub enum RunOutput {
    /// `paper-oc3fo` / `synth-1300`.
    Scope(ScopeOutput),
    /// `sweep-oc3fo`: the six Table 4 rows in table order.
    Sweep(Vec<SweepRow>),
}

/// Runs the workload's pipeline once, inside a `run` root span.
pub fn run(t: &mut Tracer, setup: &Setup) -> Result<RunOutput, String> {
    t.span("run", |t| match setup.workload {
        Workload::PaperOc3fo | Workload::Synth1300 => scope_run(t, setup).map(RunOutput::Scope),
        Workload::SweepOc3fo => sweep_run(t, setup).map(RunOutput::Sweep),
    })
}

/// The workload's matchers with their span names.
fn roster(workload: Workload) -> Vec<(&'static str, Box<dyn Matcher>)> {
    match workload {
        Workload::Synth1300 => vec![("match.ann", Box::new(AnnMatcher::new(5)))],
        _ => vec![
            ("match.sim", Box::new(SimMatcher::new(0.6))),
            ("match.cluster", Box::new(ClusterMatcher::new(5))),
            ("match.lsh", Box::new(LshMatcher::new(5))),
        ],
    }
}

/// Per-schema attribute and table element sets, optionally restricted to
/// a kept set. Attributes and tables are matched in separate passes, as
/// in Fig 7.
fn element_sets(
    catalog: &Catalog,
    signatures: &SchemaSignatures,
    keep: Option<&HashSet<ElementId>>,
) -> (Vec<ElementSet>, Vec<ElementSet>) {
    let mut attrs = Vec::new();
    let mut tables = Vec::new();
    for k in 0..signatures.schema_count() {
        let schema = catalog.schema(k);
        let ids = |range: std::ops::Range<usize>| -> HashSet<ElementId> {
            range
                .map(|e| ElementId::new(k, e))
                .filter(|id| keep.is_none_or(|set| set.contains(id)))
                .collect()
        };
        let n_attrs = schema.attribute_count();
        attrs.push(ElementSet::filtered(
            k,
            signatures.schema(k),
            &ids(0..n_attrs),
        ));
        tables.push(ElementSet::filtered(
            k,
            signatures.schema(k),
            &ids(n_attrs..schema.element_count()),
        ));
    }
    (attrs, tables)
}

fn match_both(
    matcher: &dyn Matcher,
    sets: &(Vec<ElementSet>, Vec<ElementSet>),
) -> Vec<cs_match::CandidatePair> {
    let mut pairs = matcher.match_pairs(&sets.0);
    pairs.extend(matcher.match_pairs(&sets.1));
    dedup_pairs(pairs)
}

fn scope_run(t: &mut Tracer, setup: &Setup) -> Result<ScopeOutput, String> {
    let dataset = &setup.dataset;
    let signatures = t.span("embed.encode", |_| encode(&setup.lexicon, &dataset.catalog));
    let run = t
        .span("core.scope", |_| {
            CollaborativeScoper::new(PAPER_V).run(&signatures)
        })
        .map_err(|e| format!("collaborative run: {e}"))?;
    let (streamlined, sets) = t.span("core.streamline", |_| {
        let streamlined = run.outcome.streamlined(&dataset.catalog);
        let kept = run.outcome.kept();
        let sets = element_sets(&dataset.catalog, &signatures, Some(&kept));
        (streamlined, sets)
    });
    let matched: Vec<_> = roster(setup.workload)
        .into_iter()
        .map(|(span, matcher)| {
            let pairs = t.span(span, |_| match_both(matcher.as_ref(), &sets));
            (span, matcher.name(), pairs)
        })
        .collect();
    let (matchers, scope) = t.span("metrics.evaluate", |_| {
        let matchers = matched
            .into_iter()
            .map(|(span, name, pairs)| {
                let tp = pairs
                    .iter()
                    .filter(|p| dataset.linkages.contains_pair(p.a, p.b))
                    .count();
                let quality = match_quality(
                    pairs.len(),
                    tp,
                    dataset.linkages.len(),
                    dataset.catalog.cartesian_element_pairs(),
                );
                MatcherResult {
                    span,
                    name,
                    quality,
                }
            })
            .collect();
        let scope = BinaryConfusion::from_labels(&run.outcome.decisions, &setup.labels);
        (matchers, scope)
    });
    let count = |sets: &[ElementSet]| sets.iter().map(ElementSet::len).sum::<usize>();
    Ok(ScopeOutput {
        streamlined: (
            streamlined
                .schemas()
                .iter()
                .map(|s| s.attribute_count())
                .sum(),
            streamlined.schemas().iter().map(|s| s.table_count()).sum(),
        ),
        matched: (count(&sets.0), count(&sets.1)),
        components: run.models.iter().map(LocalModel::n_components).sum(),
        pass_operations: run.cost.pass_operations,
        decisions: run.outcome.decisions,
        accept_votes: run.accept_votes,
        scope,
        matchers,
        signatures,
    })
}

/// The descending v grid, endpoints pulled just inside `(0, 1)`.
fn v_grid(steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| 0.99 - 0.98 * (i as f64 / (steps - 1) as f64))
        .collect()
}

/// The ascending p grid over `[0, 1]`.
fn p_grid(steps: usize) -> Vec<f64> {
    (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect()
}

fn sweep_run(t: &mut Tracer, setup: &Setup) -> Result<Vec<SweepRow>, String> {
    let signatures = setup
        .signatures
        .as_ref()
        .ok_or("sweep set-up has no signatures")?;
    let labels = &setup.labels;
    let mut rows = vec![
        global_row(
            t,
            "oda.zscore",
            "Scoping Z-Score",
            cs_oda::ZScoreDetector,
            signatures,
            labels,
        )?,
        global_row(
            t,
            "oda.lof",
            "Scoping LOF (n=20)",
            cs_oda::LofDetector::default(),
            signatures,
            labels,
        )?,
    ];
    for v in [0.3, 0.5, 0.7] {
        let pca = cs_oda::PcaDetector::with_variance(v);
        let method = format!("Scoping PCA (v={v})");
        rows.push(global_row(t, "oda.pca", &method, pca, signatures, labels)?);
    }

    let sweep = t
        .span("core.sweep_prepare", |_| {
            CollaborativeSweep::prepare(signatures)
        })
        .map_err(|e| format!("sweep prepare: {e}"))?;
    let vs = v_grid(SWEEP_STEPS);
    let outcomes = t
        .span("core.sweep_grid", |_| {
            sweep.assess_grid(&vs, CombinationRule::Any)
        })
        .map_err(|e| format!("sweep grid: {e}"))?;
    let points = vs
        .iter()
        .zip(&outcomes)
        .map(|(&v, o)| (v, o.decisions.as_slice()));
    rows.push(t.span("metrics.curves", |_| {
        curve_row("Collaborative PCA", points, labels)
    }));
    Ok(rows)
}

/// One global-scoping row: score once under `span`, threshold over the p
/// grid, and summarise the curve.
fn global_row<D: OutlierDetector>(
    t: &mut Tracer,
    span: &'static str,
    method: &str,
    detector: D,
    signatures: &SchemaSignatures,
    labels: &[bool],
) -> Result<SweepRow, String> {
    let name = detector.name();
    let scores = t
        .span(span, |_| GlobalScoper::new(detector).scores(signatures))
        .map_err(|e| format!("{method} scores: {e}"))?;
    let ps = p_grid(SWEEP_STEPS);
    let outcomes: Vec<_> = t.span("core.threshold", |_| {
        ps.iter()
            .map(|&p| scope_from_scores(name.as_str(), signatures, &scores, p))
            .collect()
    });
    let points = ps
        .iter()
        .zip(&outcomes)
        .map(|(&p, o)| (p, o.decisions.as_slice()));
    Ok(t.span("metrics.curves", |_| curve_row(method, points, labels)))
}

/// Scores each grid point's decisions against the labels and summarises
/// the curve as a Table 4 row.
fn curve_row<'a>(
    method: &str,
    points: impl Iterator<Item = (f64, &'a [bool])>,
    labels: &[bool],
) -> SweepRow {
    let mut curve = SweepCurve::new();
    for (param, decisions) in points {
        curve.push(param, BinaryConfusion::from_labels(decisions, labels));
    }
    SweepRow {
        method: method.to_string(),
        auc_f1: 100.0 * curve.auc_f1(),
        auc_roc: 100.0 * curve.auc_roc(),
        auc_roc_smoothed: 100.0 * curve.auc_roc_smoothed(),
        auc_pr: 100.0 * curve.auc_pr(),
    }
}

/// What the traced replay of a scoping run found.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Foreign models accepting each element.
    pub accept_votes: Vec<usize>,
    /// Keep/prune per element under the ANY rule.
    pub decisions: Vec<bool>,
}

/// Replays `CollaborativeScoper::run` from its public parts, one span per
/// part: `train_models` (`core.fit`), each schema's `LocalModel` alone
/// (`core.fit_model`), and every foreign-model reconstruction pass
/// (`core.assess`). Runs outside the `run` root span.
pub fn replay(t: &mut Tracer, signatures: &SchemaSignatures) -> Result<Replay, String> {
    t.span("replay", |t| {
        let scoper = CollaborativeScoper::new(PAPER_V);
        let models = t
            .span("core.fit", |_| scoper.train_models(signatures))
            .map_err(|e| format!("train_models: {e}"))?;
        let v = ExplainedVariance::new(PAPER_V).ok_or("invalid explained variance")?;
        for (k, model) in models.iter().enumerate() {
            let alone = t
                .span("core.fit_model", |_| {
                    LocalModel::train_with(k, signatures.schema(k), v, scoper.pca_solver())
                })
                .map_err(|e| format!("LocalModel::train schema {k}: {e}"))?;
            if alone.n_components() != model.n_components()
                || alone.linkability_range().to_bits() != model.linkability_range().to_bits()
            {
                return Err(format!("schema {k}: train_models and train disagree"));
            }
        }
        let mut accept_votes = Vec::with_capacity(signatures.total_len());
        for k in 0..signatures.schema_count() {
            let own = signatures.schema(k);
            let mut votes = vec![0usize; own.rows()];
            for model in models.iter().filter(|m| m.schema_index() != k) {
                t.span("core.assess", |_| {
                    let errors = model.reconstruction_errors(own);
                    for (vote, e) in votes.iter_mut().zip(errors) {
                        if e - model.linkability_range() <= 0.0 {
                            *vote += 1;
                        }
                    }
                });
            }
            accept_votes.extend(votes);
        }
        let decisions = accept_votes
            .iter()
            .map(|&a| CombinationRule::Any.decide(a, models.len() - 1))
            .collect();
        Ok(Replay {
            accept_votes,
            decisions,
        })
    })
}

/// Runs the workload's matchers on the unscoped schemas, one
/// `match.original` span each: what matching costs without scoping.
pub fn match_original(t: &mut Tracer, setup: &Setup, signatures: &SchemaSignatures) {
    t.span("original", |t| {
        let sets = element_sets(&setup.dataset.catalog, signatures, None);
        for (_, matcher) in roster(setup.workload) {
            t.span("match.original", |_| match_both(matcher.as_ref(), &sets));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_datasets::codec::dataset_digest;

    #[test]
    fn synth_seeds_give_distinct_catalogs_of_fixed_size() {
        let a = try_generate(&synth_config(1)).unwrap();
        let b = try_generate(&synth_config(2)).unwrap();
        assert_eq!(a.catalog.element_count(), SYNTH_ELEMENTS);
        assert_eq!(b.catalog.element_count(), SYNTH_ELEMENTS);
        assert_ne!(dataset_digest(&a), dataset_digest(&b));
        assert_eq!(
            dataset_digest(&a),
            dataset_digest(&try_generate(&synth_config(1)).unwrap())
        );
    }

    #[test]
    fn paper_v_is_the_fig7_grid_point() {
        assert_eq!(format!("{PAPER_V:.6}"), "0.732105");
        assert_eq!(v_grid(20)[5].to_bits(), PAPER_V.to_bits());
        assert_eq!(
            workload_names(),
            ["paper-oc3fo", "sweep-oc3fo", "synth-1300"]
        );
    }

    fn workload_names() -> Vec<&'static str> {
        Workload::ALL.iter().map(|w| w.name()).collect()
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }
}
