//! Output checks. Every run is checked; a failed check counts the run as
//! failed in `error_rate` and makes the benchmark exit non-zero.
//!
//! - `paper-oc3fo` reproduces the OC3-FO rows of `results/fig7.csv` at the
//!   workload's v (checked-in copy: `golden/fig7_oc3fo.csv`).
//! - `sweep-oc3fo` reproduces the six non-autoencoder OC3-FO rows of
//!   `results/table4.csv` (copy: `golden/table4_oc3fo.csv`).
//! - Every workload's output digest is identical on every run of a
//!   process; `synth-1300` has no golden, so this is its main check.
//! - The traced replay reproduces the run's votes and decisions exactly.

use crate::pipeline::{
    Replay, RunOutput, ScopeOutput, SweepRow, Workload, PAPER_V, SYNTH_ELEMENTS,
};

/// The Fig 7 rows `paper-oc3fo` must reproduce (header line first).
pub const FIG7_GOLDEN: &str = include_str!("../golden/fig7_oc3fo.csv");

/// The Table 4 rows `sweep-oc3fo` must reproduce (header line first).
pub const TABLE4_GOLDEN: &str = include_str!("../golden/table4_oc3fo.csv");

/// Largest share of the `run` root span's duration that may fall outside
/// every child span before a pipeline step counts as untimed.
pub const MAX_ROOT_SELF_SHARE: f64 = 0.10;

/// The matcher results as `results/fig7.csv` lines.
pub fn fig7_lines(out: &ScopeOutput) -> Vec<String> {
    out.matchers
        .iter()
        .map(|m| {
            let q = &m.quality;
            format!(
                "OC3-FO,{},{PAPER_V:.6},{:.6},{:.6},{:.6},{:.6},{}",
                m.name, q.pq, q.pc, q.f1, q.rr, q.candidates
            )
        })
        .collect()
}

/// The sweep rows as `results/table4.csv` lines.
pub fn table4_lines(rows: &[SweepRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "OC3-FO,{},{:.6},{:.6},{:.6},{:.6}",
                r.method, r.auc_f1, r.auc_roc, r.auc_roc_smoothed, r.auc_pr
            )
        })
        .collect()
}

fn against_golden(produced: &[String], golden: &str, what: &str) -> Result<(), String> {
    let expected: Vec<&str> = golden.lines().skip(1).collect();
    if produced.len() != expected.len() {
        return Err(format!(
            "{what}: {} rows, golden has {}",
            produced.len(),
            expected.len()
        ));
    }
    for (got, want) in produced.iter().zip(expected) {
        if got != want {
            return Err(format!("{what}: got `{got}`, golden `{want}`"));
        }
    }
    Ok(())
}

/// FNV-1a digest of a run's output, for the identical-on-every-run check.
pub fn digest(out: &RunOutput) -> u64 {
    match out {
        RunOutput::Scope(scope) => scope.digest(),
        RunOutput::Sweep(rows) => {
            let mut bytes = Vec::new();
            for r in rows {
                bytes.extend_from_slice(r.method.as_bytes());
                for x in [r.auc_f1, r.auc_roc, r.auc_roc_smoothed, r.auc_pr] {
                    bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            cs_embed::hash::fnv1a(&bytes)
        }
    }
}

/// Checks one run's output; `reference` is the digest of the process's
/// first run (`None` for that first run itself). Returns the digest.
pub fn check_output(
    workload: Workload,
    out: &RunOutput,
    reference: Option<u64>,
) -> Result<u64, String> {
    match (workload, out) {
        (Workload::PaperOc3fo, RunOutput::Scope(scope)) => {
            check_streamlined(scope)?;
            against_golden(&fig7_lines(scope), FIG7_GOLDEN, "fig7 OC3-FO")?;
        }
        (Workload::Synth1300, RunOutput::Scope(scope)) => {
            if scope.decisions.len() != SYNTH_ELEMENTS {
                return Err(format!(
                    "synth-1300 has {} elements, expected {SYNTH_ELEMENTS}",
                    scope.decisions.len()
                ));
            }
            check_streamlined(scope)?;
        }
        (Workload::SweepOc3fo, RunOutput::Sweep(rows)) => {
            against_golden(&table4_lines(rows), TABLE4_GOLDEN, "table4 OC3-FO")?;
        }
        _ => {
            return Err(format!(
                "{} produced the wrong output kind",
                workload.name()
            ))
        }
    }
    let got = digest(out);
    match reference {
        Some(want) if want != got => Err(format!(
            "output digest {got:016x} differs from the first run's {want:016x}"
        )),
        _ => Ok(got),
    }
}

/// The streamlined catalog and the matcher inputs agree with the kept
/// set: every kept element is matched, the catalog holds exactly the kept
/// attributes, and it retains every kept table (plus the tables of kept
/// attributes).
fn check_streamlined(scope: &ScopeOutput) -> Result<(), String> {
    let (attrs, tables) = scope.matched;
    let (catalog_attrs, catalog_tables) = scope.streamlined;
    if attrs + tables != scope.kept() || catalog_attrs != attrs || catalog_tables < tables {
        return Err(format!(
            "kept {} elements, matched {attrs} attributes + {tables} tables, \
             streamlined catalog has {catalog_attrs} attributes + {catalog_tables} tables",
            scope.kept()
        ));
    }
    Ok(())
}

/// The replay must reproduce `run`'s votes and decisions bit for bit.
pub fn check_replay(out: &ScopeOutput, replay: &Replay) -> Result<(), String> {
    if replay.accept_votes != out.accept_votes {
        return Err("replay accept_votes differ from the run's".into());
    }
    if replay.decisions != out.decisions {
        return Err("replay decisions differ from the run's".into());
    }
    Ok(())
}

/// The `run` root span's self time must stay under
/// [`MAX_ROOT_SELF_SHARE`] of its duration.
pub fn check_root_share(share: f64) -> Result<(), String> {
    if share.is_finite() && share < MAX_ROOT_SELF_SHARE {
        Ok(())
    } else {
        Err(format!(
            "run root self time is {:.1}% of its duration (limit {:.0}%): a step is untimed",
            100.0 * share,
            100.0 * MAX_ROOT_SELF_SHARE
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MatcherResult;
    use cs_core::SchemaSignatures;
    use cs_metrics::{match_quality, BinaryConfusion};

    /// Match quality of `candidates` pairs, `tp` of them true, on OC3-FO.
    fn oc3fo_quality(candidates: usize, tp: usize) -> cs_metrics::MatchQuality {
        let ds = cs_datasets::oc3_fo();
        let pairs = ds.catalog.cartesian_element_pairs();
        match_quality(candidates, tp, ds.linkages.len(), pairs)
    }

    /// The paper output the golden describes, rebuilt from its counts.
    fn paper_output() -> ScopeOutput {
        let matcher = |span, name: &str, candidates, tp| MatcherResult {
            span,
            name: name.to_string(),
            quality: oc3fo_quality(candidates, tp),
        };
        ScopeOutput {
            signatures: SchemaSignatures::from_matrices(Vec::new(), Vec::new()),
            decisions: vec![true, false, true],
            accept_votes: vec![2, 0, 1],
            streamlined: (1, 2),
            matched: (1, 1),
            components: 9,
            pass_operations: 9,
            scope: BinaryConfusion::from_labels(&[true, false, true], &[true, true, false]),
            matchers: vec![
                matcher("match.sim", "SIM(0.6)", 207, 43),
                matcher("match.cluster", "CLUSTER(5)", 671, 42),
                matcher("match.lsh", "LSH(5)", 909, 49),
            ],
        }
    }

    fn table4_rows() -> Vec<SweepRow> {
        TABLE4_GOLDEN
            .lines()
            .skip(1)
            .map(|line| {
                let cells: Vec<&str> = line.split(',').collect();
                let num = |i: usize| cells[i].parse::<f64>().unwrap();
                SweepRow {
                    method: cells[1].to_string(),
                    auc_f1: num(2),
                    auc_roc: num(3),
                    auc_roc_smoothed: num(4),
                    auc_pr: num(5),
                }
            })
            .collect()
    }

    #[test]
    fn goldens_are_rows_of_the_results_csvs() {
        let fig7 = include_str!("../../results/fig7.csv");
        let table4 = include_str!("../../results/table4.csv");
        for (golden, source) in [(FIG7_GOLDEN, fig7), (TABLE4_GOLDEN, table4)] {
            assert_eq!(golden.lines().next(), source.lines().next(), "header");
            for row in golden.lines().skip(1) {
                assert!(source.lines().any(|l| l == row), "{row} not in results");
            }
        }
        assert_eq!(FIG7_GOLDEN.lines().count(), 4);
        assert_eq!(TABLE4_GOLDEN.lines().count(), 7);
    }

    #[test]
    fn paper_golden_accepts_the_reference_output() {
        let out = RunOutput::Scope(paper_output());
        let d = check_output(Workload::PaperOc3fo, &out, None).unwrap();
        assert_eq!(check_output(Workload::PaperOc3fo, &out, Some(d)), Ok(d));
    }

    #[test]
    fn paper_golden_rejects_one_candidate_more() {
        let mut out = paper_output();
        out.matchers[1].quality = oc3fo_quality(672, 42);
        let err = check_output(Workload::PaperOc3fo, &RunOutput::Scope(out), None).unwrap_err();
        assert!(err.contains("CLUSTER(5)"), "{err}");
    }

    #[test]
    fn paper_check_rejects_a_streamlined_count_mismatch() {
        for (streamlined, matched) in [((2, 2), (1, 1)), ((1, 0), (1, 1)), ((1, 2), (2, 1))] {
            let mut out = paper_output();
            out.streamlined = streamlined;
            out.matched = matched;
            assert!(check_output(Workload::PaperOc3fo, &RunOutput::Scope(out), None).is_err());
        }
    }

    #[test]
    fn sweep_golden_accepts_the_table_and_rejects_an_auc_off_by_1e3() {
        let rows = table4_rows();
        assert!(check_output(Workload::SweepOc3fo, &RunOutput::Sweep(rows.clone()), None).is_ok());
        // An AUC off by 1e-3 moves the ×100 table value by 0.1.
        let mut off = rows.clone();
        off[5].auc_pr += 100.0 * 1e-3;
        assert!(check_output(Workload::SweepOc3fo, &RunOutput::Sweep(off), None).is_err());
        let mut short = rows;
        short.pop();
        assert!(check_output(Workload::SweepOc3fo, &RunOutput::Sweep(short), None).is_err());
    }

    #[test]
    fn digest_check_rejects_one_flipped_decision() {
        let mut out = paper_output();
        let reference = digest(&RunOutput::Scope(out.clone()));
        out.decisions[1] = !out.decisions[1];
        out.matched = (2, 1);
        out.streamlined = (2, 1);
        let err = check_output(
            Workload::PaperOc3fo,
            &RunOutput::Scope(out),
            Some(reference),
        )
        .unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn synth_check_rejects_a_wrong_element_count() {
        let out = paper_output();
        let err = check_output(Workload::Synth1300, &RunOutput::Scope(out), None).unwrap_err();
        assert!(err.contains("1297"), "{err}");
    }

    #[test]
    fn replay_check_rejects_one_changed_vote_or_decision() {
        let out = paper_output();
        let exact = Replay {
            accept_votes: out.accept_votes.clone(),
            decisions: out.decisions.clone(),
        };
        assert!(check_replay(&out, &exact).is_ok());
        let mut vote = exact.clone();
        vote.accept_votes[0] += 1;
        assert!(check_replay(&out, &vote).is_err());
        let mut decision = exact;
        decision.decisions[1] = true;
        assert!(check_replay(&out, &decision).is_err());
    }

    #[test]
    fn root_share_check_rejects_an_untimed_tenth() {
        assert!(check_root_share(0.02).is_ok());
        assert!(check_root_share(0.10).is_err());
        assert!(check_root_share(f64::NAN).is_err());
    }
}
