//! Smoke tests: every builtin experiment sweep that `full_report` can name
//! (`e01`–`e12`, `a1`–`a3`, and the whole report when no name is given)
//! runs end-to-end at a tiny scale and produces a well-formed, non-empty
//! table.  Each one goes through the same registry-backed path as the
//! binary: `specs::builtin` → runner → `specs::render`.
//!
//! The point is rot prevention, not statistics — a sweep whose trial
//! function panics, loops or renders an empty table fails here within
//! seconds instead of rotting silently until someone runs `cargo run`.

use analysis::Table;
use experiments::report::{Report, REPORT_PREAMBLE, REPORT_TITLE};
use experiments::{cli, specs, ExperimentConfig};
use sweeps::{ProtocolRegistry, ReportRunner, SweepRunner};

/// The smallest configuration every sweep accepts: one trial per point,
/// quick-mode grids.
fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        trials: 1,
        base_seed: 0x0005_40CE,
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
    assert!(outcome.completed, "in-memory sweeps run the full grid");
    let grid = spec.expand().expect("a spec that ran also expands");
    specs::render(name, &grid.into_iter().zip(outcome.cells).collect())
}

/// A table is well-formed when it has a title, at least one column and at
/// least one row, and every row matches the column count.
fn assert_well_formed(table: &Table) {
    assert!(!table.title().is_empty(), "table has an empty title");
    assert!(
        !table.columns().is_empty(),
        "table `{}` has no columns",
        table.title()
    );
    assert!(
        !table.is_empty(),
        "table `{}` produced no rows",
        table.title()
    );
    for row in table.rows() {
        assert_eq!(
            row.len(),
            table.columns().len(),
            "table `{}` has a ragged row",
            table.title()
        );
    }
    let markdown = table.to_markdown();
    assert!(markdown.contains(table.title()));
}

#[test]
fn e01_rounds_vs_n_smoke() {
    assert_well_formed(&table("e01", &smoke_config()));
}

#[test]
fn e02_rounds_vs_epsilon_smoke() {
    assert_well_formed(&table("e02", &smoke_config()));
}

#[test]
fn e03_message_complexity_smoke() {
    assert_well_formed(&table("e03", &smoke_config()));
}

#[test]
fn e04_phase0_seeding_smoke() {
    assert_well_formed(&table("e04", &smoke_config()));
}

#[test]
fn e05_layer_growth_smoke() {
    assert_well_formed(&table("e05", &smoke_config()));
}

#[test]
fn e06_bias_decay_smoke() {
    assert_well_formed(&table("e06", &smoke_config()));
}

#[test]
fn e07_stage2_boost_smoke() {
    for name in ["e07a", "e07b"] {
        assert_well_formed(&table(name, &smoke_config()));
    }
}

#[test]
fn e08_majority_consensus_smoke() {
    assert_well_formed(&table("e08", &smoke_config()));
}

#[test]
fn e09_async_overhead_smoke() {
    assert_well_formed(&table("e09", &smoke_config()));
}

#[test]
fn e10_baseline_comparison_smoke() {
    assert_well_formed(&table("e10", &smoke_config()));
}

#[test]
fn e11_path_deterioration_smoke() {
    assert_well_formed(&table("e11", &smoke_config()));
}

#[test]
fn e12_two_party_lower_bound_smoke() {
    assert_well_formed(&table("e12", &smoke_config()));
}

#[test]
fn ablations_smoke() {
    for name in ["a1", "a2", "a3"] {
        assert_well_formed(&table(name, &smoke_config()));
    }
}

#[test]
fn full_report_smoke() {
    // With no names, `full_report` runs every report member as one composed
    // sweep and stitches their tables into one document.
    let spec = specs::report_spec(&smoke_config());
    let outcome = ReportRunner::new()
        .run(&spec, &ProtocolRegistry::builtin(), None)
        .expect("the composed report runs");
    assert!(outcome.completed, "in-memory reports run every member");
    let mut report = Report::new(REPORT_TITLE).with_preamble(REPORT_PREAMBLE);
    for (member, result) in spec.members.iter().zip(&outcome.members) {
        let grid = member.expand().expect("a member that ran also expands");
        let pairs: specs::CellPairs = grid.into_iter().zip(result.outcome.cells.clone()).collect();
        report.push(specs::render(&result.name, &pairs));
    }
    assert!(!report.tables().is_empty(), "report has no tables");
    for table in report.tables() {
        assert_well_formed(table);
    }
    let markdown = report.to_markdown();
    for table in report.tables() {
        assert!(
            markdown.contains(table.title()),
            "report markdown is missing table `{}`",
            table.title()
        );
    }
}

#[test]
fn config_from_args_matches_binary_convention() {
    // The binaries all parse flags through this helper; pin its contract.
    let quick = cli::parse_config(std::iter::empty::<String>());
    assert!(quick.quick);
    let full = cli::parse_config(["--full".to_string()]);
    assert!(!full.quick);
    assert!(full.trials > quick.trials);
}

#[test]
fn experiments_are_deterministic_for_a_fixed_seed() {
    // Two runs of the same sweep with the same config must be
    // byte-identical; this is the property that makes `full_report` a
    // reproducible report generator rather than a one-off sample.
    let first = table("e01", &smoke_config());
    let second = table("e01", &smoke_config());
    assert_eq!(first.to_csv(), second.to_csv());
}
