//! Integration tests for the experiment harness: every experiment table can be
//! generated at a tiny scale and has the expected shape, and the headline
//! qualitative conclusions of the paper hold in the generated numbers.

use analysis::Table;
use experiments::{specs, ExperimentConfig};
use sweeps::{ProtocolRegistry, SweepRunner};

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        trials: 2,
        base_seed: 99,
        ..ExperimentConfig::quick()
    }
}

/// Runs the named builtin sweep in memory and renders its table, as
/// `full_report <name>` does.
fn table(name: &str, cfg: &ExperimentConfig) -> Table {
    let spec = specs::builtin(name, cfg).expect("a builtin sweep");
    let outcome = SweepRunner::new()
        .run(&spec, &ProtocolRegistry::builtin(), None)
        .unwrap_or_else(|e| panic!("sweep `{name}` failed: {e}"));
    let grid = spec.expand().expect("a spec that ran also expands");
    specs::render(name, &grid.into_iter().zip(outcome.cells).collect())
}

#[test]
fn e01_success_rates_are_high_everywhere() {
    let table = table("e01", &tiny());
    // Last row is the fit; the others carry an all-correct rate in column 4.
    for row in &table.rows()[..table.len() - 1] {
        let fraction: f64 = row[3].parse().unwrap();
        assert!(fraction > 0.9, "row = {row:?}");
    }
    assert!(table.to_markdown().contains("E1"));
}

#[test]
fn e03_normalised_message_cost_is_bounded() {
    let table = table("e03", &tiny());
    for row in table.rows() {
        let normalised: f64 = row[3].parse().unwrap();
        assert!(
            normalised > 0.1 && normalised < 500.0,
            "normalised messages out of range: {row:?}"
        );
    }
}

#[test]
fn e07_sampling_table_shows_the_boost_growing_with_delta() {
    let sampling = &table("e07a", &tiny());
    let measured: Vec<f64> = sampling
        .rows()
        .iter()
        .map(|r| r[2].parse().unwrap())
        .collect();
    // Larger population bias gives a larger majority-correct probability.
    assert!(measured.last().unwrap() > measured.first().unwrap());
    assert!(measured.iter().all(|&m| m >= 0.4));
}

#[test]
fn e08_largest_most_biased_committee_reaches_near_consensus() {
    let table = table("e08", &tiny());
    let last = table.rows().last().unwrap();
    let fraction: f64 = last[3].parse().unwrap();
    assert!(fraction > 0.8, "row = {last:?}");
}

#[test]
fn e10_breathe_rows_dominate_the_failing_baselines() {
    let table = table("e10", &tiny());
    // Rows come in blocks of six per epsilon: breathe first, then baselines.
    let rows = table.rows();
    assert_eq!(rows.len() % 6, 0);
    for block in rows.chunks(6) {
        let breathe: f64 = block[0][3].parse().unwrap();
        let forwarding: f64 = block[1][3].parse().unwrap();
        let voter: f64 = block[5][3].parse().unwrap();
        assert!(breathe > forwarding, "block = {block:?}");
        assert!(breathe > voter, "block = {block:?}");
    }
}

#[test]
fn e12_sample_counts_scale_like_inverse_epsilon_squared() {
    let table = table("e12", &tiny());
    let normalised: Vec<f64> = table.rows().iter().map(|r| r[2].parse().unwrap()).collect();
    let max = normalised.iter().cloned().fold(f64::MIN, f64::max);
    let min = normalised.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 10.0,
        "samples * eps^2 should be roughly constant: {normalised:?}"
    );
}
