//! The migration contract: every registry-backed sweep reproduces its
//! original hand-rolled experiment **digit for digit**.
//!
//! The golden markdown under `tests/golden/` was captured from the legacy
//! runners (`scaling::e01_rounds_vs_n`, `stage_claims::e04_phase0_seeding`,
//! …) immediately before they were deleted, with the sweep specs pinned
//! equal in the same commit.  The specs (`specs::e01_sweep`, …) must keep
//! constructing the same protocols, walking the grid in the same order and
//! deriving the same `(base_seed, point, trial)` seeds — so the rendered
//! tables stay equal *as strings*.  Any drift in seed numbering, grid
//! order, aggregation arithmetic or formatting fails here.
//!
//! The golden tables are also where the paper's qualitative conclusions
//! are checked (breathe informs everyone, its message cost stays on the
//! `n ln n / ε²` scale, it beats the failing baselines, …): each golden test
//! asserts them on the table it just pinned, so no second run is needed.
//!
//! To re-bless after an *intentional* change, run with `BLESS_GOLDEN=1` and
//! review the diff:
//!
//! ```sh
//! BLESS_GOLDEN=1 cargo test -p experiments --test spec_equivalence
//! ```

use std::path::PathBuf;

use analysis::Table;
use experiments::{specs, ExperimentConfig};
use sweeps::{ProtocolRegistry, SweepRunner};

fn tiny(trials: u32) -> ExperimentConfig {
    ExperimentConfig {
        trials,
        base_seed: 0xBEA7_4E5E,
        ..ExperimentConfig::quick()
    }
}

/// Runs the named builtin sweep in memory and renders its table.
fn table(name: &str, cfg: &ExperimentConfig) -> Table {
    let spec = specs::builtin(name, cfg).expect("a builtin sweep");
    let outcome = SweepRunner::new()
        .run(&spec, &ProtocolRegistry::builtin(), None)
        .unwrap_or_else(|e| panic!("sweep `{name}` failed: {e}"));
    assert!(outcome.completed, "in-memory sweeps run the full grid");
    let grid = spec.expand().expect("a spec that ran also expands");
    specs::render(name, &grid.into_iter().zip(outcome.cells).collect())
}

/// Runs the named builtin sweep, asserts its rendered markdown equals the
/// golden file, and returns the table for further checks.
fn check(name: &str, cfg: &ExperimentConfig) -> Table {
    let table = table(name, cfg);
    let markdown = table.to_markdown();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.md"));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &markdown).expect("golden file is writable");
        return table;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden table {}; run with BLESS_GOLDEN=1 to capture it",
            path.display()
        )
    });
    assert_eq!(markdown, expected, "sweep `{name}` drifted from its golden");
    table
}

/// Column `col` of every row, parsed as a number.
fn column(table: &Table, col: usize) -> Vec<f64> {
    table
        .rows()
        .iter()
        .map(|row| {
            row[col]
                .parse()
                .unwrap_or_else(|_| panic!("not a number: {row:?}"))
        })
        .collect()
}

#[test]
fn e01_sweep_reproduces_the_golden_table_digit_for_digit() {
    let table = check("e01", &tiny(2));
    // Breathe informs everyone at every n: the all-correct rate is high in
    // every row but the last (the fit).
    for row in &table.rows()[..table.len() - 1] {
        let all_correct: f64 = row[4].parse().unwrap();
        assert!(all_correct > 0.9, "row = {row:?}");
    }
}

#[test]
fn e01_dense_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e01-dense", &tiny(1));
}

#[test]
fn e01_hybrid_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e01-hybrid", &tiny(1));
}

#[test]
fn e02_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e02", &tiny(2));
}

#[test]
fn e03_sweep_reproduces_the_golden_table_digit_for_digit() {
    let table = check("e03", &tiny(2));
    // The message cost stays on the `n ln n / eps^2` scale.
    for normalised in column(&table, 3) {
        assert!(
            normalised > 0.1 && normalised < 500.0,
            "normalised messages out of range: {normalised}"
        );
    }
}

#[test]
fn e04_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e04", &tiny(3));
}

#[test]
fn e05_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e05", &tiny(2));
}

#[test]
fn e06_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e06", &tiny(2));
}

#[test]
fn e07_sweeps_reproduce_both_golden_tables_digit_for_digit() {
    let cfg = tiny(2);
    let sampling = check("e07a", &cfg);
    check("e07b", &cfg);
    // Lemma 2.11: a larger population bias gives a larger probability that
    // the majority of the noisy samples is correct.
    let measured = column(&sampling, 2);
    assert!(
        measured.windows(2).all(|pair| pair[0] <= pair[1]),
        "the boost must grow with delta: {measured:?}"
    );
    assert!(measured.iter().all(|&m| m >= 0.4), "{measured:?}");
}

#[test]
fn e08_sweep_reproduces_the_golden_table_digit_for_digit() {
    let table = check("e08", &tiny(2));
    // The largest, most biased committee reaches near-consensus.
    let fraction = *column(&table, 3).last().unwrap();
    assert!(fraction > 0.8, "largest committee: {fraction}");
}

#[test]
fn e08_dense_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e08-dense", &tiny(1));
}

#[test]
fn e09_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e09", &tiny(2));
}

#[test]
fn e10_sweep_reproduces_the_golden_table_digit_for_digit() {
    let table = check("e10", &tiny(2));
    // Rows come in blocks of six per epsilon: breathe first, then the
    // baselines; breathe beats immediate forwarding and the noisy voter.
    let fractions = column(&table, 3);
    assert_eq!(fractions.len() % 6, 0);
    for block in fractions.chunks(6) {
        assert!(block[0] > block[1], "breathe vs forwarding: {block:?}");
        assert!(block[0] > block[5], "breathe vs the voter: {block:?}");
    }
}

#[test]
fn e11_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e11", &tiny(2));
}

#[test]
fn e12_sweep_reproduces_the_golden_table_digit_for_digit() {
    let table = check("e12", &tiny(2));
    // Two parties need Theta(1/eps^2) channel uses: `samples * eps^2`
    // stays within a small constant factor across epsilon.
    let normalised = column(&table, 2);
    let max = normalised.iter().copied().fold(f64::MIN, f64::max);
    let min = normalised.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max / min < 10.0,
        "samples * eps^2 should be roughly constant: {normalised:?}"
    );
}

#[test]
fn e13_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e13", &tiny(2));
}

#[test]
fn e13_fractions_stay_in_the_unit_interval_under_faults() {
    // Ben-Or and the majority run draw separate fault plans, so each
    // fraction must be over its own engine's honest agents; dividing by the
    // other engine's count pushed Ben-Or's decided fraction to 1.03 here.
    let spec = specs::builtin("e13", &tiny(2)).expect("a builtin sweep");
    let outcome = SweepRunner::new()
        .run(&spec, &ProtocolRegistry::builtin(), None)
        .unwrap();
    let grid = spec.expand().unwrap();
    let mut checked = 0;
    for (cell, record) in grid.iter().zip(&outcome.cells) {
        if cell.param_or("fault_fraction", 0.0) == 0.0 {
            continue;
        }
        for (name, aggregate) in &record.metrics {
            if name.contains("_fraction") {
                let (min, max) = (aggregate.moments.min, aggregate.moments.max);
                assert!(
                    (0.0..=1.0).contains(&min) && (0.0..=1.0).contains(&max),
                    "point {}: {name} spans [{min}, {max}]",
                    cell.point
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 8 * 3, "faulty cells and their fraction metrics");
}

#[test]
fn a1_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("a1", &tiny(2));
}

#[test]
fn a2_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("a2", &tiny(2));
}

#[test]
fn a3_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("a3", &tiny(2));
}

#[test]
fn base_seed_changes_flow_through_deterministically() {
    // The pinned digits are not an accident of the default seed: a different
    // base seed reproduces itself exactly and differs from the default.
    let cfg = ExperimentConfig {
        trials: 2,
        base_seed: 0x1234_5678,
        ..ExperimentConfig::quick()
    };
    let markdown = |cfg: &ExperimentConfig| table("a2", cfg).to_markdown();
    assert_eq!(markdown(&cfg), markdown(&cfg));
    let other = ExperimentConfig {
        base_seed: 0x8765_4321,
        ..cfg
    };
    assert_ne!(markdown(&other), markdown(&cfg));
}
