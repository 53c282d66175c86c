//! Registry-backed sweep specs for the experiment families.
//!
//! Every experiment family — the scaling sweeps E1/E1-D/E1-H/E2/E3, the
//! per-stage claims E4–E7, the consensus sweeps E8/E8-D, the async/baseline
//! comparisons E9–E12, the ablations A1–A3 and the fault-injection family
//! E13 — is expressed here as a declarative [`SweepSpec`]
//! instead of a hand-rolled loop.  `full_report <name>…` composes the named
//! specs ([`builtin`]) into one run through the [`sweeps`] orchestrator and
//! renders each table from the streamed aggregates ([`render`]).
//!
//! **The migration contract:** for every migrated experiment, the sweep uses
//! the same protocol constructions, the same grid order and the same
//! `(base_seed, point, trial)` seed derivation as the legacy loop — so the
//! rendered table is digit-for-digit identical to the legacy function's
//! (`tests/spec_equivalence.rs` pins this).  The same specs serialized to
//! `specs/*.json` drive the standalone `sweep` binary, which adds
//! persistence, resume and CSV/JSON export on top.

use std::collections::BTreeMap;

use analysis::estimators::SuccessRate;
use analysis::fitting::fit_linear;
use analysis::stirling::{exact_majority_boost, lemma_2_11_lower_bound};
use analysis::tables::fmt_float;
use analysis::theory;
use analysis::Table;
use baselines::chain_correct_probability;
use breathe::{InitialSet, Multipliers, Params, Schedule};
use flip_model::{Backend, DEFAULT_HYBRID_TRACKED};
use sweeps::{Axis, CellRecord, MetricAggregate, ReportSpec, ScenarioSpec, SweepError, SweepSpec};

use crate::{consensus, scaling, ExperimentConfig};

/// A sweep result in grid order: each cell's resolved spec with its record.
pub type CellPairs = Vec<(ScenarioSpec, CellRecord)>;

/// The names accepted by [`builtin`] (and the `sweep gen`/`sweep list`
/// subcommands), in presentation order.
pub const BUILTIN_SWEEPS: [&str; 20] = [
    "e01",
    "e01-dense",
    "e01-hybrid",
    "e02",
    "e03",
    "e04",
    "e05",
    "e06",
    "e07a",
    "e07b",
    "e08",
    "e08-dense",
    "e09",
    "e10",
    "e11",
    "e12",
    "a1",
    "a2",
    "a3",
    "e13",
];

/// The builtin sweeps grouped by experiment family, in presentation order —
/// the structure behind `sweep list`.  Together the groups cover
/// [`BUILTIN_SWEEPS`] exactly (pinned by a test below).
pub const SWEEP_FAMILIES: [(&str, &[&str]); 6] = [
    (
        "scaling (E1-E3)",
        &["e01", "e01-dense", "e01-hybrid", "e02", "e03"],
    ),
    (
        "stage claims (E4-E7)",
        &["e04", "e05", "e06", "e07a", "e07b"],
    ),
    ("consensus (E8)", &["e08", "e08-dense"]),
    ("comparisons (E9-E12)", &["e09", "e10", "e11", "e12"]),
    ("ablations (A1-A3)", &["a1", "a2", "a3"]),
    ("fault injection (E13)", &["e13"]),
];

/// The name of the composed full-report spec accepted by `sweep run` and
/// built by [`report_spec`].
pub const REPORT_SPEC_NAME: &str = "report";

/// The composed full report: every member of
/// [`crate::report::REPORT_MEMBERS`] (E1–E12) as one [`ReportSpec`], run and
/// resumed as a single unit by the `full_report` binary and
/// `sweep run report`.
///
/// # Panics
///
/// Panics if a report member is not a builtin sweep — a bug
/// (`report::tests` pins the membership).
#[must_use]
pub fn report_spec(cfg: &ExperimentConfig) -> ReportSpec {
    let members = crate::report::REPORT_MEMBERS
        .iter()
        .map(|name| builtin(name, cfg).expect("report members are builtin sweeps"))
        .collect();
    ReportSpec::new(REPORT_SPEC_NAME, members).expect("builtin member names are valid and unique")
}

/// Builds the named builtin sweep for the given configuration; `None` for
/// unknown names.
#[must_use]
pub fn builtin(name: &str, cfg: &ExperimentConfig) -> Option<SweepSpec> {
    match name {
        "e01" => Some(e01_sweep(cfg)),
        "e01-dense" => Some(e01_dense_sweep(cfg)),
        "e01-hybrid" => Some(e01_hybrid_sweep(cfg)),
        "e02" => Some(e02_sweep(cfg)),
        "e03" => Some(e03_sweep(cfg)),
        "e04" => Some(e04_sweep(cfg)),
        "e05" => Some(e05_sweep(cfg)),
        "e06" => Some(e06_sweep(cfg)),
        "e07a" => Some(e07a_sweep(cfg)),
        "e07b" => Some(e07b_sweep(cfg)),
        "e08" => Some(e08_sweep(cfg)),
        "e08-dense" => Some(e08_dense_sweep(cfg)),
        "e09" => Some(e09_sweep(cfg)),
        "e10" => Some(e10_sweep(cfg)),
        "e11" => Some(e11_sweep(cfg)),
        "e12" => Some(e12_sweep(cfg)),
        "a1" => Some(a1_sweep(cfg)),
        "a2" => Some(a2_sweep(cfg)),
        "a3" => Some(a3_sweep(cfg)),
        "e13" => Some(e13_sweep(cfg)),
        _ => None,
    }
}

/// [`builtin`], or a spec error naming the unknown sweep with the nearest
/// builtin as a suggestion — the unknown-name error of `sweep gen` and
/// `full_report`.
///
/// # Errors
///
/// [`SweepError::Spec`] when `name` is not a builtin sweep.
pub fn require_builtin(name: &str, cfg: &ExperimentConfig) -> Result<SweepSpec, SweepError> {
    builtin(name, cfg).ok_or_else(|| {
        let suggestion = nearest_builtin(name)
            .filter(|near| *near != REPORT_SPEC_NAME)
            .map(|near| format!(" did you mean `{near}`?"))
            .unwrap_or_default();
        SweepError::Spec(format!(
            "unknown builtin sweep `{name}`;{suggestion} available: {}",
            BUILTIN_SWEEPS.join(", ")
        ))
    })
}

/// The closest builtin name (including the composed [`REPORT_SPEC_NAME`])
/// within a small edit distance of `name` — the "did you mean" suggestion
/// behind the `sweep` CLI's unknown-spec errors.  `None` when nothing is
/// plausibly close, so a garbled path never draws a misleading suggestion.
#[must_use]
pub fn nearest_builtin(name: &str) -> Option<&'static str> {
    let candidates = BUILTIN_SWEEPS.iter().copied().chain([REPORT_SPEC_NAME]);
    candidates
        .map(|candidate| (edit_distance(name, candidate), candidate))
        .filter(|(distance, candidate)| {
            // A prefix of a builtin is always a plausible typo (`e0`, `rep`);
            // otherwise the edit distance must be small relative to the
            // name's length, so `nonexistent.json` suggests nothing.
            (!name.is_empty() && candidate.starts_with(name))
                || *distance <= 2.min(name.len().saturating_sub(1))
        })
        .min_by_key(|(distance, _)| *distance)
        .map(|(_, candidate)| candidate)
}

/// Levenshtein distance, small-string implementation (two rolling rows).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitute.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Renders the named builtin sweep's table from its aggregates.
///
/// # Panics
///
/// Panics on a name with no renderer — a bug in the caller's dispatch.
#[must_use]
pub fn render(name: &str, cells: &CellPairs) -> Table {
    match name {
        "e01" => render_e01(cells),
        "e01-dense" | "e01-hybrid" => render_e01_dense(cells),
        "e02" => render_e02(cells),
        "e03" => render_e03(cells),
        "e04" => render_e04(cells),
        "e05" => render_e05(cells),
        "e06" => render_e06(cells),
        "e07a" => render_e07a(cells),
        "e07b" => render_e07b(cells),
        "e08" => render_e08(cells),
        "e08-dense" => render_e08_dense(cells),
        "e09" => render_e09(cells),
        "e10" => render_e10(cells),
        "e11" => render_e11(cells),
        "e12" => render_e12(cells),
        "a1" => render_a1(cells),
        "a2" => render_a2(cells),
        "a3" => render_a3(cells),
        "e13" => render_e13(cells),
        other => panic!("no renderer for sweep `{other}`"),
    }
}

fn params_map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

/// A metric aggregate or a loud failure naming what is missing.
fn metric<'a>(record: &'a CellRecord, name: &str) -> &'a MetricAggregate {
    record
        .metrics
        .get(name)
        .unwrap_or_else(|| panic!("cell {} has no `{name}` metric", record.point))
}

/// Success-rate estimator from a 0/1 metric (the sum counts the successes).
fn success_rate(record: &CellRecord, name: &str) -> SuccessRate {
    let agg = metric(record, name);
    SuccessRate::from_counts(agg.moments.sum as u64, agg.moments.count)
}

/// An integer-valued metric that is constant across a cell's trials (round
/// counts fixed by the protocol schedule).
fn constant_u64(record: &CellRecord, name: &str) -> u64 {
    let agg = metric(record, name);
    agg.moments.min as u64
}

/// The `--faults` directive as a sweep-spec string: empty when the
/// configuration carries no directive, so fault-free specs (and their
/// hashes) are byte-identical to the pre-fault era.
fn faults_directive(cfg: &ExperimentConfig) -> String {
    cfg.faults.map(|f| f.to_string()).unwrap_or_default()
}

/// The protocol [`Params`] a cell resolves to — the renderer-side mirror of
/// the registry's construction, so renderers can quote schedule-derived
/// quantities (`beta_s`, `gamma`, round budgets) the metrics do not carry.
fn spec_params(spec: &ScenarioSpec) -> Params {
    let practical = Multipliers::practical();
    let multipliers = Multipliers {
        s_mult: spec.param_or("s_mult", practical.s_mult),
        beta_mult: spec.param_or("beta_mult", practical.beta_mult),
        f_mult: spec.param_or("f_mult", practical.f_mult),
        gamma_mult: spec.param_or("gamma_mult", practical.gamma_mult),
        extra_boost_phases: spec.param_or("extra_boost_phases", practical.extra_boost_phases as f64)
            as usize,
        final_mult: spec.param_or("final_mult", practical.final_mult),
    };
    Params::with_multipliers(
        usize::try_from(spec.n()).expect("n fits in usize"),
        spec.epsilon(),
        multipliers,
    )
    .expect("grid parameters are valid")
}

// ---------------------------------------------------------------------------
// E1: broadcast rounds vs n (Theorem 2.17)
// ---------------------------------------------------------------------------

/// The migrated E1 sweep: `broadcast` over [`scaling::population_grid`] at
/// `ε = 0.2`, seed points `0, 1, …` — the legacy loop's numbering.
#[must_use]
pub fn e01_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e01".into(),
        protocol: "broadcast".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 0,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("epsilon", 0.2)]),
        axes: vec![Axis {
            key: "n".into(),
            values: scaling::population_grid(cfg)
                .into_iter()
                .map(|n| n as f64)
                .collect(),
        }],
    }
}

/// Renders E1 from sweep aggregates (also used on persisted stores).
#[must_use]
pub fn render_e01(cells: &CellPairs) -> Table {
    let epsilon = 0.2;
    let mut table = Table::new(
        "E1: broadcast rounds vs n (epsilon = 0.2, Theorem 2.17)",
        &[
            "n",
            "rounds",
            "rounds / (ln n / eps^2)",
            "mean fraction correct",
            "all-correct rate",
            "wilson 95% low",
        ],
    );
    let mut ln_ns = Vec::new();
    let mut rounds_list = Vec::new();
    for (spec, record) in cells {
        let n = spec.n();
        let rounds = constant_u64(record, "total_rounds");
        let success = success_rate(record, "all_correct");
        let scale = (n as f64).ln() / (epsilon * epsilon);
        ln_ns.push((n as f64).ln());
        rounds_list.push(rounds as f64);
        table.push_row(&[
            n.to_string(),
            rounds.to_string(),
            fmt_float(rounds as f64 / scale),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success.estimate()),
            fmt_float(success.wilson_interval(1.96).0),
        ]);
    }
    if let Some(fit) = fit_linear(&ln_ns, &rounds_list) {
        table.push_row(&[
            "fit: rounds ~ a*ln n + b".to_string(),
            format!("a = {}", fmt_float(fit.slope)),
            format!("b = {}", fmt_float(fit.intercept)),
            format!("R^2 = {}", fmt_float(fit.r_squared)),
            String::new(),
            String::new(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E1-D: dense-engine rumor spreading at large n
// ---------------------------------------------------------------------------

/// The migrated E1-D sweep: dense `rumor` over
/// [`scaling::dense_population_grid`], 1000 informed agents, `ε = 0.2`,
/// capped at 500 rounds, seed points `1300, 1301, …`.
#[must_use]
pub fn e01_dense_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e01-dense".into(),
        protocol: "rumor".into(),
        backend: Backend::Dense,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 1_300,
        rounds: 500,
        faults: faults_directive(cfg),
        defaults: params_map(&[("epsilon", 0.2), ("informed", 1_000.0)]),
        axes: vec![Axis {
            key: "n".into(),
            values: scaling::dense_population_grid(cfg)
                .into_iter()
                .map(|n| n as f64)
                .collect(),
        }],
    }
}

/// The E1-H sweep: the same grid as [`e01_dense_sweep`] on the hybrid
/// backend — `DEFAULT_HYBRID_TRACKED` agents simulated exactly against the
/// dense bulk.  Seed points `2600, 2601, …` keep it disjoint from every
/// other sweep's numbering.
#[must_use]
pub fn e01_hybrid_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e01-hybrid".into(),
        backend: Backend::Hybrid(DEFAULT_HYBRID_TRACKED),
        point_base: 2_600,
        ..e01_dense_sweep(cfg)
    }
}

/// Renders E1-D from sweep aggregates.  The title reports the backend the
/// cells actually ran on (`dense` or `hybrid:k`).
#[must_use]
pub fn render_e01_dense(cells: &CellPairs) -> Table {
    let backend = cells.first().map_or_else(
        || Backend::Dense.to_string(),
        |(s, _)| s.backend.to_string(),
    );
    let mut table = Table::new(
        &format!("E1-D: rumor spreading at large n (backend = {backend}, epsilon = 0.2)"),
        &[
            "n",
            "mean rounds to full activation",
            "rounds / ln n",
            "mean fraction holding source bit",
            "mean messages sent",
        ],
    );
    for (spec, record) in cells {
        let n = spec.n();
        let rounds = metric(record, "rounds").moments.mean();
        table.push_row(&[
            n.to_string(),
            fmt_float(rounds),
            fmt_float(rounds / (n as f64).ln()),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(metric(record, "messages_sent").moments.mean()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E2: broadcast rounds vs epsilon (Theorem 2.17)
// ---------------------------------------------------------------------------

/// The migrated E2 sweep: `broadcast` over [`scaling::epsilon_grid`] at
/// `n = pick(1000, 2000)`, seed points `100, 101, …` — the legacy loop's
/// numbering.
#[must_use]
pub fn e02_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    let n = cfg.pick(1_000, 2_000);
    SweepSpec {
        name: "e02".into(),
        protocol: "broadcast".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 100,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", n as f64)]),
        axes: vec![Axis {
            key: "epsilon".into(),
            values: scaling::epsilon_grid(cfg),
        }],
    }
}

/// Renders E2 from sweep aggregates.
#[must_use]
pub fn render_e02(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E2: broadcast rounds vs epsilon (Theorem 2.17)",
        &[
            "epsilon",
            "rounds",
            "rounds * eps^2",
            "mean fraction correct",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let epsilon = spec.epsilon();
        let rounds = constant_u64(record, "total_rounds");
        table.push_row(&[
            fmt_float(epsilon),
            rounds.to_string(),
            fmt_float(rounds as f64 * epsilon * epsilon),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E3: message complexity (Theorem 2.17)
// ---------------------------------------------------------------------------

/// The migrated E3 sweep: `broadcast` over
/// [`scaling::e03_population_grid`] × [`scaling::E03_EPSILONS`] (row-major,
/// `n` outer — the legacy nesting), seed points `200, 201, …`.
#[must_use]
pub fn e03_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e03".into(),
        protocol: "broadcast".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 200,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: BTreeMap::new(),
        axes: vec![
            Axis {
                key: "n".into(),
                values: scaling::e03_population_grid(cfg)
                    .into_iter()
                    .map(|n| n as f64)
                    .collect(),
            },
            Axis {
                key: "epsilon".into(),
                values: scaling::E03_EPSILONS.to_vec(),
            },
        ],
    }
}

/// Renders E3 from sweep aggregates.
#[must_use]
pub fn render_e03(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E3: message complexity (Theorem 2.17)",
        &[
            "n",
            "epsilon",
            "mean messages",
            "messages / (n ln n / eps^2)",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let n = spec.n();
        let epsilon = spec.epsilon();
        let msgs = metric(record, "messages_sent").moments.mean();
        let scale = n as f64 * (n as f64).ln() / (epsilon * epsilon);
        table.push_row(&[
            n.to_string(),
            fmt_float(epsilon),
            fmt_float(msgs),
            fmt_float(msgs / scale),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E4: phase-0 activation and bias (Claim 2.2)
// ---------------------------------------------------------------------------

/// The channel crossover levels E4 sweeps (the legacy loop's literal list).
pub const E04_EPSILONS: [f64; 3] = [0.15, 0.2, 0.3];

/// The migrated E4 sweep: `broadcast-detailed` over [`E04_EPSILONS`] at
/// `n = pick(1000, 4000)`, seed points `400, 401, …`.
#[must_use]
pub fn e04_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    let n = cfg.pick(1_000, 4_000);
    SweepSpec {
        name: "e04".into(),
        protocol: "broadcast-detailed".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 400,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", n as f64)]),
        axes: vec![Axis {
            key: "epsilon".into(),
            values: E04_EPSILONS.to_vec(),
        }],
    }
}

/// Renders E4 from sweep aggregates.
#[must_use]
pub fn render_e04(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E4: phase-0 activation and bias (Claim 2.2)",
        &[
            "epsilon",
            "beta_s",
            "mean X0",
            "bound [beta_s/3, beta_s]",
            "mean bias eps_0",
            "claimed bias >= eps/2",
            "claim holds (rate)",
        ],
    );
    for (spec, record) in cells {
        let epsilon = spec.epsilon();
        let params = spec_params(spec);
        let (lo, hi, min_bias) = theory::claim_2_2_bounds(params.beta_s(), epsilon);
        table.push_row(&[
            fmt_float(epsilon),
            params.beta_s().to_string(),
            fmt_float(metric(record, "x0").moments.mean()),
            format!("[{}, {}]", fmt_float(lo), fmt_float(hi)),
            fmt_float(metric(record, "bias0").moments.mean()),
            fmt_float(min_bias),
            fmt_float(success_rate(record, "claim22_holds").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E5/E6: Stage I layer growth and bias decay under layered parameters
// ---------------------------------------------------------------------------

/// The layered-multiplier defaults E5 and E6 run under: shrunken `s` and `β`
/// (structure intact) so that several intermediate Stage I phases exist at
/// laptop scale — the retired `stage_claims::layered_params`, as spec params.
fn layered_defaults(n: usize, epsilon: f64) -> BTreeMap<String, f64> {
    params_map(&[
        ("n", n as f64),
        ("epsilon", epsilon),
        ("s_mult", 0.6),
        ("beta_mult", 1.2),
        ("f_mult", 2.0),
        ("gamma_mult", 6.0),
        ("extra_boost_phases", 3.0),
        ("final_mult", 3.0),
    ])
}

/// The migrated E5 sweep: a single `broadcast-detailed` cell at
/// `n = pick(8000, 20000)`, `ε = 0.45`, layered multipliers, seed point 500.
#[must_use]
pub fn e05_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e05".into(),
        protocol: "broadcast-detailed".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 500,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: layered_defaults(cfg.pick(8_000, 20_000), 0.45),
        axes: vec![],
    }
}

/// Renders E5 from sweep aggregates: one row per intermediate Stage I level
/// (walked by metric presence — the registry records `level_cum_{i}` for
/// every level but the last), then the all-activated summary row.
#[must_use]
pub fn render_e05(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E5: Stage I layer growth (Claim 2.4)",
        &[
            "level i",
            "mean X_i (cumulative activated)",
            "lower bound (beta+1)^i X0 / 16",
            "upper bound (beta+1)^i X0",
            "within bounds (rate)",
        ],
    );
    for (spec, record) in cells {
        let params = spec_params(spec);
        let beta = params.beta();
        // The legacy display bounds: the trial-mean X0 (source included),
        // rounded, pushed through Claim 2.4.
        let x0_display = metric(record, "x0p1").moments.mean().round() as u64;
        let mut level = 0usize;
        while let Some(cum) = record.metrics.get(&format!("level_cum_{level}")) {
            let (lo, hi) = theory::claim_2_4_bounds(beta, x0_display, level as u32);
            table.push_row(&[
                level.to_string(),
                fmt_float(cum.moments.mean()),
                fmt_float(lo),
                fmt_float(hi),
                fmt_float(success_rate(record, &format!("claim24_holds_{level}")).estimate()),
            ]);
            level += 1;
        }
        // Final row: everyone activated at the end of Stage I (Corollary 2.6).
        table.push_row(&[
            "end of Stage I".to_string(),
            format!("all {} agents activated", params.n()),
            String::new(),
            String::new(),
            fmt_float(success_rate(record, "all_active").estimate()),
        ]);
    }
    table
}

/// The migrated E6 sweep: a single `broadcast-detailed` cell at
/// `n = pick(4000, 10000)`, `ε = 0.45`, layered multipliers, seed point 600.
#[must_use]
pub fn e06_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e06".into(),
        protocol: "broadcast-detailed".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 600,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: layered_defaults(cfg.pick(4_000, 10_000), 0.45),
        axes: vec![],
    }
}

/// Renders E6 from sweep aggregates.  A level whose bias metric is absent
/// (no trial ever activated it) is skipped — the legacy loop's
/// `biases.is_empty()` continue; the per-level statistics aggregate only
/// the trials that activated the level, exactly as the legacy per-trial skip
/// did.
#[must_use]
pub fn render_e06(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E6: per-level bias decay (Claim 2.8) and end-of-Stage-I bias (Lemma 2.3)",
        &[
            "level i",
            "mean bias eps_i",
            "claimed lower bound eps^{i+1}/2",
            "bound holds (rate)",
        ],
    );
    for (spec, record) in cells {
        let epsilon = spec.epsilon();
        let levels = constant_u64(record, "levels") as usize;
        for level in 0..levels {
            let Some(bias) = record.metrics.get(&format!("level_bias_{level}")) else {
                continue;
            };
            table.push_row(&[
                level.to_string(),
                fmt_float(bias.moments.mean()),
                fmt_float(theory::claim_2_8_bias_lower_bound(epsilon, level as u32)),
                fmt_float(success_rate(record, &format!("claim28_holds_{level}")).estimate()),
            ]);
        }
        // End-of-Stage-I population bias vs the Lemma 2.3 scale.
        let n = usize::try_from(spec.n()).expect("n fits in usize");
        table.push_row(&[
            "end of Stage I".to_string(),
            fmt_float(metric(record, "stage1_bias").moments.mean()),
            format!(
                "scale sqrt(ln n / n) = {}",
                fmt_float(theory::stage1_final_bias(n, 1.0))
            ),
            fmt_float(metric(record, "stage1_bias_positive").moments.mean()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E7a/E7b: the Stage II boost (Lemmas 2.11 and 2.14)
// ---------------------------------------------------------------------------

/// The population biases E7a sweeps (the legacy loop's literal list).
pub const E07_DELTAS: [f64; 6] = [0.005, 0.01, 0.02, 0.05, 0.1, 0.25];

/// The migrated E7a sweep: `mc-boost` over [`E07_DELTAS`] at
/// `n = pick(1000, 2000)`, `ε = 0.2`, seed points `700, 701, …`.  One cell
/// trial runs the whole `mc_trials`-sample Monte-Carlo estimate (the legacy
/// loop's single pass), so `trials` is 1.
#[must_use]
pub fn e07a_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e07a".into(),
        protocol: "mc-boost".into(),
        backend: Backend::Agents,
        trials: 1,
        base_seed: cfg.base_seed,
        point_base: 700,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[
            ("n", cfg.pick(1_000, 2_000) as f64),
            ("epsilon", 0.2),
            ("mc_trials", f64::from(cfg.pick(4_000u32, 20_000u32))),
        ]),
        axes: vec![Axis {
            key: "delta".into(),
            values: E07_DELTAS.to_vec(),
        }],
    }
}

/// Renders E7a from sweep aggregates.
#[must_use]
pub fn render_e07a(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E7a: majority-of-noisy-samples boost (Lemma 2.11)",
        &[
            "population bias delta",
            "gamma (samples)",
            "measured Pr[majority correct]",
            "exact (binomial)",
            "paper bound min{1/2+4d, 1/2+1/100}",
        ],
    );
    for (spec, record) in cells {
        let epsilon = spec.epsilon();
        let delta = spec.param_or("delta", 0.0);
        let gamma = spec_params(spec).gamma();
        table.push_row(&[
            fmt_float(delta),
            gamma.to_string(),
            fmt_float(metric(record, "measured").moments.mean()),
            fmt_float(exact_majority_boost(gamma, epsilon, delta)),
            fmt_float(lemma_2_11_lower_bound(delta)),
        ]);
    }
    table
}

/// The migrated E7b sweep: a single `broadcast-detailed` cell at
/// `n = pick(1000, 2000)`, `ε = 0.2`, seed point 710.
#[must_use]
pub fn e07b_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e07b".into(),
        protocol: "broadcast-detailed".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 710,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", cfg.pick(1_000, 2_000) as f64), ("epsilon", 0.2)]),
        axes: vec![],
    }
}

/// Renders E7b from sweep aggregates: the bias trajectory from the last
/// spreading phase through every boosting phase, with the per-phase growth
/// factor chained off the displayed means.
#[must_use]
pub fn render_e07b(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E7b: bias trajectory over Stage II phases (Lemma 2.14)",
        &[
            "boosting phase",
            "mean fraction correct",
            "mean bias",
            "growth factor vs previous phase",
        ],
    );
    for (spec, record) in cells {
        let params = spec_params(spec);
        let spreading_count = Schedule::broadcast(&params).spreading_phase_count();
        let mut phases = 0usize;
        while record.metrics.contains_key(&format!("phase_frac_{phases}")) {
            phases += 1;
        }
        let mut previous_bias: Option<f64> = None;
        for phase in (spreading_count - 1)..phases {
            let frac = metric(record, &format!("phase_frac_{phase}"))
                .moments
                .mean();
            let bias = frac - 0.5;
            let label = if phase == spreading_count - 1 {
                "end of Stage I".to_string()
            } else {
                format!("{}", phase - spreading_count + 1)
            };
            let growth = previous_bias
                .filter(|p| *p > 0.0)
                .map(|p| fmt_float(bias / p))
                .unwrap_or_default();
            table.push_row(&[label, fmt_float(frac), fmt_float(bias), growth]);
            previous_bias = Some(bias);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// E8: noisy majority-consensus (Corollary 2.18)
// ---------------------------------------------------------------------------

/// The migrated E8 sweep: `majority-consensus` over
/// [`consensus::initial_set_grid`] × [`consensus::bias_grid`] at
/// `n = pick(1000, 4000)`, `ε = 0.3`, seed points `800, 801, …`.
///
/// # Panics
///
/// Panics if a grid combination would have been skipped by the legacy loop
/// (set larger than `n`, or a bias that rounds to a tie) — the declarative
/// grid is a plain cross product, so a skip would silently shift every
/// later seed point off the legacy numbering.
#[must_use]
pub fn e08_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    let n = cfg.pick(1_000, 4_000);
    let sizes = consensus::initial_set_grid(cfg);
    let biases = consensus::bias_grid(cfg);
    for &size in &sizes {
        assert!(size <= n, "E8 grid set size {size} exceeds n = {n}");
        for &bias in &biases {
            let initial = InitialSet::with_bias(size, bias).expect("valid bias");
            assert!(
                initial.holding_correct > initial.holding_wrong,
                "E8 grid point (|A| = {size}, bias = {bias}) rounds to a tie"
            );
        }
    }
    SweepSpec {
        name: "e08".into(),
        protocol: "majority-consensus".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 800,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", n as f64), ("epsilon", 0.3)]),
        axes: vec![
            Axis {
                key: "initial_size".into(),
                values: sizes.into_iter().map(|s| s as f64).collect(),
            },
            Axis {
                key: "initial_bias".into(),
                values: biases,
            },
        ],
    }
}

/// Renders E8 from sweep aggregates.
#[must_use]
pub fn render_e08(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E8: noisy majority-consensus (Corollary 2.18)",
        &[
            "|A|",
            "majority-bias",
            "required bias sqrt(ln n/|A|)",
            "mean fraction correct",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let n = spec.n();
        let size = spec.param_or("initial_size", 0.0) as usize;
        let bias = spec.param_or("initial_bias", 0.0);
        let initial = InitialSet::with_bias(size, bias).expect("grid bias is valid");
        let required = ((n as f64).ln() / size as f64).sqrt().min(0.5);
        table.push_row(&[
            size.to_string(),
            fmt_float(initial.majority_bias()),
            fmt_float(required),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E8-D: dense majority boost
// ---------------------------------------------------------------------------

/// The migrated E8-D sweep: dense `majority-sampler` over
/// [`consensus::dense_majority_grid`] × [`consensus::dense_bias_grid`] at
/// `ε = 0.3`, seed points `1800, 1801, …`.
#[must_use]
pub fn e08_dense_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e08-dense".into(),
        protocol: "majority-sampler".into(),
        backend: Backend::Dense,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 1_800,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("epsilon", 0.3)]),
        axes: vec![
            Axis {
                key: "n".into(),
                values: consensus::dense_majority_grid(cfg)
                    .into_iter()
                    .map(|n| n as f64)
                    .collect(),
            },
            Axis {
                key: "initial_bias".into(),
                values: consensus::dense_bias_grid(cfg),
            },
        ],
    }
}

/// Renders E8-D from sweep aggregates.
#[must_use]
pub fn render_e08_dense(cells: &CellPairs) -> Table {
    let epsilon = 0.3f64;
    let phase_len = ((2.0 / (epsilon * epsilon)).ceil() as u64) | 1;
    let mut table = Table::new(
        &format!("E8-D: dense majority boost (epsilon = {epsilon}, phase_len = {phase_len})"),
        &[
            "n",
            "initial bias",
            "phases",
            "final fraction correct",
            "majority preserved rate",
        ],
    );
    for (spec, record) in cells {
        let n = spec.n();
        let phases = 2 * (n as f64).log2().ceil() as u64;
        table.push_row(&[
            n.to_string(),
            fmt_float(spec.param_or("initial_bias", 0.0)),
            phases.to_string(),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "majority_preserved").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E9: removing the global clock (Theorem 3.1)
// ---------------------------------------------------------------------------

/// The migrated E9 sweep: `async-broadcast` over
/// [`scaling::e09_population_grid`] × the two async variants (`0` = bounded
/// offsets, `1` = resynchronised) at `ε = 0.3`, seed points `900, 901, …` —
/// the legacy `point += 1` walk with `n` outer.
#[must_use]
pub fn e09_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e09".into(),
        protocol: "async-broadcast".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 900,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("epsilon", 0.3)]),
        axes: vec![
            Axis {
                key: "n".into(),
                values: scaling::e09_population_grid(cfg)
                    .into_iter()
                    .map(|n| n as f64)
                    .collect(),
            },
            Axis {
                key: "variant".into(),
                values: vec![0.0, 1.0],
            },
        ],
    }
}

/// Renders E9 from sweep aggregates.  The round counts quote trial 0 (the
/// legacy display choice); the registry records them on trial 0 alone.
#[must_use]
pub fn render_e09(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E9: removing the global clock (Theorem 3.1)",
        &[
            "n",
            "variant",
            "sync rounds",
            "total rounds",
            "overhead rounds",
            "ln^2 n",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let n = spec.n();
        let name = if spec.param_or("variant", 0.0) == 0.0 {
            "bounded offsets"
        } else {
            "resynchronised"
        };
        let ln_n = (n as f64).ln();
        table.push_row(&[
            n.to_string(),
            name.to_string(),
            constant_u64(record, "sync_rounds").to_string(),
            constant_u64(record, "total_rounds").to_string(),
            constant_u64(record, "overhead_rounds").to_string(),
            fmt_float(ln_n * ln_n),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E10: protocol comparison on the broadcast problem
// ---------------------------------------------------------------------------

/// The channel crossover levels E10 sweeps (the legacy loop's literal list).
pub const E10_EPSILONS: [f64; 2] = [0.1, 0.2];

/// The baseline display names, indexed by the `baseline` axis value — the
/// legacy loop's protocol order.
pub const E10_BASELINE_NAMES: [&str; 6] = [
    "breathe (this paper)",
    "immediate forwarding",
    "wait for source",
    "two-choices majority [22]",
    "three-state majority [6]",
    "noisy voter with zealot [49]",
];

/// The migrated E10 sweep: `baseline-compare` over [`E10_EPSILONS`] × the
/// six baselines at `n = pick(600, 2000)`, seed points `1000, 1001, …` —
/// the legacy `point += 1` walk with `ε` outer.
#[must_use]
pub fn e10_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e10".into(),
        protocol: "baseline-compare".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 1_000,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", cfg.pick(600, 2_000) as f64)]),
        axes: vec![
            Axis {
                key: "epsilon".into(),
                values: E10_EPSILONS.to_vec(),
            },
            Axis {
                key: "baseline".into(),
                values: vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            },
        ],
    }
}

/// Renders E10 from sweep aggregates.
#[must_use]
pub fn render_e10(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E10: protocol comparison on the broadcast problem",
        &[
            "epsilon",
            "protocol",
            "rounds",
            "mean fraction correct",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let idx = spec.param_or("baseline", 0.0) as usize;
        let budget = spec_params(spec).total_rounds();
        table.push_row(&[
            fmt_float(spec.epsilon()),
            E10_BASELINE_NAMES[idx].to_string(),
            budget.to_string(),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E11: per-hop reliability decay (§1.6)
// ---------------------------------------------------------------------------

/// The channel crossover levels E11 sweeps (the legacy loop's literal list).
pub const E11_EPSILONS: [f64; 2] = [0.1, 0.3];

/// The chain lengths E11 sweeps (the legacy loop's literal list).
pub const E11_HOPS: [f64; 6] = [1.0, 2.0, 3.0, 5.0, 8.0, 12.0];

/// The migrated E11 sweep: `chain-relay` over [`E11_EPSILONS`] ×
/// [`E11_HOPS`], seed points `1100, 1101, …`.  One cell trial runs the whole
/// `samples`-draw chain estimate (the legacy loop's single call), so
/// `trials` is 1; the runner derives its seed from `hops` alone, matching
/// the legacy ε-independent seeding.
#[must_use]
pub fn e11_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e11".into(),
        protocol: "chain-relay".into(),
        backend: Backend::Agents,
        trials: 1,
        base_seed: cfg.base_seed,
        point_base: 1_100,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[
            ("n", 1.0),
            ("samples", f64::from(cfg.pick(20_000u32, 100_000u32))),
        ]),
        axes: vec![
            Axis {
                key: "epsilon".into(),
                values: E11_EPSILONS.to_vec(),
            },
            Axis {
                key: "hops".into(),
                values: E11_HOPS.to_vec(),
            },
        ],
    }
}

/// Renders E11 from sweep aggregates.
#[must_use]
pub fn render_e11(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E11: per-hop reliability decay (section 1.6)",
        &[
            "epsilon",
            "hops",
            "measured Pr[correct]",
            "closed form 1/2 + (2eps)^c / 2",
        ],
    );
    for (spec, record) in cells {
        let epsilon = spec.epsilon();
        let hops = spec.param_or("hops", 0.0) as u32;
        table.push_row(&[
            fmt_float(epsilon),
            hops.to_string(),
            fmt_float(metric(record, "measured").moments.mean()),
            fmt_float(chain_correct_probability(epsilon, hops)),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E12: the two-party Θ(1/ε²) lower bound (§1.4)
// ---------------------------------------------------------------------------

/// The channel crossover levels E12 sweeps — the legacy mode-dependent grid.
#[must_use]
pub fn e12_epsilon_grid(cfg: &ExperimentConfig) -> Vec<f64> {
    if cfg.quick {
        vec![0.1, 0.2, 0.3, 0.4]
    } else {
        vec![0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
    }
}

/// The migrated E12 sweep: `two-party-samples` over [`e12_epsilon_grid`] at
/// 99% confidence, seed points `1200, 1201, …`.  The search is deterministic
/// (no RNG), so `trials` is 1.
#[must_use]
pub fn e12_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "e12".into(),
        protocol: "two-party-samples".into(),
        backend: Backend::Agents,
        trials: 1,
        base_seed: cfg.base_seed,
        point_base: 1_200,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", 1.0), ("confidence", 0.99)]),
        axes: vec![Axis {
            key: "epsilon".into(),
            values: e12_epsilon_grid(cfg),
        }],
    }
}

/// Renders E12 from sweep aggregates.
#[must_use]
pub fn render_e12(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "E12: two-party channel uses for one reliable bit (section 1.4)",
        &[
            "epsilon",
            "samples needed (exact majority decoder)",
            "samples * eps^2",
            "Shannon-style prediction ln(1/0.01)/(2 eps^2)",
        ],
    );
    for (spec, record) in cells {
        let epsilon = spec.epsilon();
        let confidence = spec.param_or("confidence", 0.99);
        let needed = constant_u64(record, "samples");
        table.push_row(&[
            fmt_float(epsilon),
            needed.to_string(),
            fmt_float(needed as f64 * epsilon * epsilon),
            fmt_float(theory::two_party_samples(epsilon, 1.0 - confidence)),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// A1: required initial bias ablation
// ---------------------------------------------------------------------------

/// The initial biases A1 sweeps (the legacy loop's literal list).
pub const A1_BIASES: [f64; 5] = [0.002, 0.01, 0.03, 0.08, 0.2];

/// The migrated A1 sweep: `majority-consensus` with the whole population as
/// the initial set (the registry's `initial_size` default) over [`A1_BIASES`]
/// at `n = pick(1000, 2000)`, `ε = 0.25`, seed points `2000, 2001, …`.
#[must_use]
pub fn a1_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "a1".into(),
        protocol: "majority-consensus".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 2_000,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", cfg.pick(1_000, 2_000) as f64), ("epsilon", 0.25)]),
        axes: vec![Axis {
            key: "initial_bias".into(),
            values: A1_BIASES.to_vec(),
        }],
    }
}

/// Renders A1 from sweep aggregates.
#[must_use]
pub fn render_a1(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "A1: consensus vs the bias handed to the boosting stage",
        &[
            "initial bias",
            "threshold sqrt(ln n / n)",
            "mean fraction correct",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let n = spec.n();
        let threshold = ((n as f64).ln() / n as f64).sqrt();
        table.push_row(&[
            fmt_float(spec.param_or("initial_bias", 0.0)),
            fmt_float(threshold),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// A2: Stage II sample-count ablation
// ---------------------------------------------------------------------------

/// The γ multipliers A2 sweeps (the legacy loop's literal list).
pub const A2_GAMMA_MULTIPLIERS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 6.0];

/// The migrated A2 sweep: `broadcast` with a swept `gamma_mult` at
/// `n = pick(600, 1500)`, `ε = 0.2`, seed points `2100, 2101, …`.
#[must_use]
pub fn a2_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    let n = cfg.pick(600, 1_500);
    SweepSpec {
        name: "a2".into(),
        protocol: "broadcast".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 2_100,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", n as f64), ("epsilon", 0.2)]),
        axes: vec![Axis {
            key: "gamma_mult".into(),
            values: A2_GAMMA_MULTIPLIERS.to_vec(),
        }],
    }
}

/// Renders A2 from sweep aggregates.
#[must_use]
pub fn render_a2(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "A2: consensus vs the Stage II sample multiplier (gamma = mult / eps^2)",
        &[
            "gamma multiplier",
            "gamma (samples per phase)",
            "mean fraction correct",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let gamma_mult = spec.param_or("gamma_mult", 1.0);
        let multipliers = Multipliers {
            gamma_mult,
            ..Multipliers::practical()
        };
        let params = Params::with_multipliers(
            usize::try_from(spec.n()).expect("n fits in usize"),
            spec.epsilon(),
            multipliers,
        )
        .expect("grid parameters are valid");
        table.push_row(&[
            fmt_float(gamma_mult),
            params.gamma().to_string(),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// A3: phase-0 length ablation
// ---------------------------------------------------------------------------

/// The `s` multipliers A3 sweeps (the legacy loop's literal list).
pub const A3_S_MULTIPLIERS: [f64; 4] = [0.05, 0.2, 0.5, 1.5];

/// The migrated A3 sweep: `broadcast` with a swept `s_mult` at
/// `n = pick(600, 1500)`, `ε = 0.2`, seed points `2200, 2201, …`.
#[must_use]
pub fn a3_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    SweepSpec {
        name: "a3".into(),
        protocol: "broadcast".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 2_200,
        rounds: 0,
        faults: faults_directive(cfg),
        defaults: params_map(&[("n", cfg.pick(600, 1_500) as f64), ("epsilon", 0.2)]),
        axes: vec![Axis {
            key: "s_mult".into(),
            values: A3_S_MULTIPLIERS.to_vec(),
        }],
    }
}

/// Renders A3 from sweep aggregates.
#[must_use]
pub fn render_a3(cells: &CellPairs) -> Table {
    let mut table = Table::new(
        "A3: Stage I output bias vs the phase-0 length multiplier (beta_s = mult * ln n / eps^2)",
        &[
            "s multiplier",
            "beta_s (rounds)",
            "mean bias after Stage I",
            "mean fraction correct at the end",
            "all-correct rate",
        ],
    );
    for (spec, record) in cells {
        let s_mult = spec.param_or("s_mult", 1.0);
        table.push_row(&[
            fmt_float(s_mult),
            spec_params(spec).beta_s().to_string(),
            fmt_float(metric(record, "stage1_bias").moments.mean()),
            fmt_float(metric(record, "fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "all_correct").estimate()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// E13: Stage I/II majority vs Ben-Or under injected faults
// ---------------------------------------------------------------------------

/// The `f/n` fault fractions E13 sweeps; `0` is the honest baseline, `0.3`
/// sits just under the classical `f/n < 1/3` Byzantine bound.
pub const E13_FAULT_FRACTIONS: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// The channel crossover levels E13 sweeps (outer axis).
pub const E13_EPSILONS: [f64; 2] = [0.15, 0.3];

/// The E13 sweep: `bft-compare` (the phase-tally Stage II majority boost
/// against gossip Ben-Or on identically seeded populations) over
/// [`E13_EPSILONS`] × [`E13_FAULT_FRACTIONS`] at `n = pick(300, 1000)`,
/// seed points `3000, 3001, …`.
///
/// The spec's `faults` directive defaults to `byz:0.1`; each cell's
/// `fault_fraction` axis value overrides the *fraction* (with `0` running
/// the honest baseline), so `--faults equiv:0.1` swaps the fault *kind*
/// across the whole grid without touching the axes.
#[must_use]
pub fn e13_sweep(cfg: &ExperimentConfig) -> SweepSpec {
    let n = cfg.pick(300, 1_000);
    let faults = cfg
        .faults
        .map_or_else(|| "byz:0.1".to_string(), |f| f.to_string());
    SweepSpec {
        name: "e13".into(),
        protocol: "bft-compare".into(),
        backend: Backend::Agents,
        trials: cfg.trials,
        base_seed: cfg.base_seed,
        point_base: 3_000,
        rounds: 120,
        faults,
        defaults: params_map(&[("n", n as f64), ("initial_bias", 0.1), ("phase_len", 15.0)]),
        axes: vec![
            Axis {
                key: "epsilon".into(),
                values: E13_EPSILONS.to_vec(),
            },
            Axis {
                key: "fault_fraction".into(),
                values: E13_FAULT_FRACTIONS.to_vec(),
            },
        ],
    }
}

/// Renders E13 from sweep aggregates.  All statistics are over the honest
/// agents only — faulty agents have no opinion worth scoring.
#[must_use]
pub fn render_e13(cells: &CellPairs) -> Table {
    let directive = cells
        .first()
        .map_or_else(String::new, |(s, _)| s.faults.clone());
    let mut table = Table::new(
        &format!("E13: Stage II majority vs Ben-Or under injected faults (base = {directive})"),
        &[
            "epsilon",
            "f/n",
            "majority mean fraction correct",
            "majority all-correct rate",
            "ben-or mean fraction correct",
            "ben-or decided fraction",
            "ben-or mean rounds",
        ],
    );
    for (spec, record) in cells {
        table.push_row(&[
            fmt_float(spec.epsilon()),
            fmt_float(spec.param_or("fault_fraction", 0.0)),
            fmt_float(metric(record, "majority_fraction_correct").moments.mean()),
            fmt_float(success_rate(record, "majority_all_correct").estimate()),
            fmt_float(metric(record, "benor_fraction_correct").moments.mean()),
            fmt_float(metric(record, "benor_decided_fraction").moments.mean()),
            fmt_float(metric(record, "benor_rounds").moments.mean()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            trials: 2,
            base_seed: 7,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn builtin_names_resolve_and_unknown_ones_do_not() {
        let cfg = tiny();
        for name in BUILTIN_SWEEPS {
            let spec = builtin(name, &cfg).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(spec.name, name);
            assert!(spec.expand().is_ok(), "{name} must expand");
        }
        assert!(builtin("e99", &cfg).is_none());
    }

    #[test]
    fn e01_sweep_matches_the_legacy_grid_and_seeds() {
        let cfg = tiny();
        let cells = e01_sweep(&cfg).expand().unwrap();
        let grid = scaling::population_grid(&cfg);
        assert_eq!(cells.len(), grid.len());
        for (idx, (cell, n)) in cells.iter().zip(grid).enumerate() {
            assert_eq!(cell.n(), n as u64);
            assert_eq!(cell.point, idx as u64);
            // The legacy harness derivation, exactly.
            assert_eq!(cell.seed_for_trial(1), cfg.seed_for(idx as u64, 1));
        }
    }

    #[test]
    fn e08_sweep_enumerates_the_cross_product_in_legacy_order() {
        let cfg = tiny();
        let cells = e08_sweep(&cfg).expand().unwrap();
        let sizes = consensus::initial_set_grid(&cfg);
        let biases = consensus::bias_grid(&cfg);
        assert_eq!(cells.len(), sizes.len() * biases.len());
        // Row-major: sizes outer, biases inner — the legacy nesting.
        assert_eq!(cells[0].param_or("initial_size", 0.0), sizes[0] as f64);
        assert_eq!(cells[1].param_or("initial_size", 0.0), sizes[0] as f64);
        assert_eq!(cells[1].param_or("initial_bias", 0.0), biases[1]);
        assert_eq!(cells[0].point, 800);
    }

    #[test]
    fn full_mode_e08_grid_has_no_skipped_combinations() {
        // The legacy loop skipped over-large sets and tie-rounding biases
        // (shifting seed points); the declarative grid asserts instead.
        let _ = e08_sweep(&ExperimentConfig::full());
    }

    #[test]
    fn dense_sweeps_target_the_dense_backend() {
        let cfg = tiny();
        assert_eq!(e01_dense_sweep(&cfg).backend, Backend::Dense);
        assert_eq!(e08_dense_sweep(&cfg).backend, Backend::Dense);
        assert_eq!(e01_dense_sweep(&cfg).point_base, 1_300);
        assert_eq!(e08_dense_sweep(&cfg).point_base, 1_800);
    }

    #[test]
    fn hybrid_sweep_mirrors_the_dense_grid_on_its_own_seed_points() {
        let cfg = tiny();
        let hybrid = e01_hybrid_sweep(&cfg);
        let dense = e01_dense_sweep(&cfg);
        assert_eq!(hybrid.backend, Backend::Hybrid(DEFAULT_HYBRID_TRACKED));
        assert_eq!(hybrid.point_base, 2_600);
        assert_eq!(hybrid.axes[0].values, dense.axes[0].values);
        assert_eq!(hybrid.defaults, dense.defaults);
    }

    #[test]
    fn e03_sweep_crosses_n_with_epsilon_in_legacy_order() {
        let cfg = tiny();
        let spec = e03_sweep(&cfg);
        assert_eq!(spec.point_base, 200);
        let cells = spec.expand().unwrap();
        let ns = scaling::e03_population_grid(&cfg);
        assert_eq!(cells.len(), ns.len() * scaling::E03_EPSILONS.len());
        // Row-major: n outer, epsilon inner — the legacy `point += 1` walk.
        assert_eq!(cells[0].n(), ns[0] as u64);
        assert_eq!(cells[0].epsilon(), scaling::E03_EPSILONS[0]);
        assert_eq!(cells[1].n(), ns[0] as u64);
        assert_eq!(cells[1].epsilon(), scaling::E03_EPSILONS[1]);
        for (idx, cell) in cells.iter().enumerate() {
            assert_eq!(cell.point, 200 + idx as u64);
            // The legacy harness derivation, exactly.
            assert_eq!(cell.seed_for_trial(1), cfg.seed_for(200 + idx as u64, 1));
        }
    }

    #[test]
    fn e02_sweep_matches_the_legacy_grid_and_seeds() {
        let cfg = tiny();
        let cells = e02_sweep(&cfg).expand().unwrap();
        let grid = scaling::epsilon_grid(&cfg);
        assert_eq!(cells.len(), grid.len());
        for (idx, (cell, epsilon)) in cells.iter().zip(grid).enumerate() {
            assert_eq!(cell.epsilon(), epsilon);
            assert_eq!(cell.n(), 1_000);
            // The legacy loop's `100 + idx` point numbering, exactly.
            assert_eq!(cell.point, 100 + idx as u64);
            assert_eq!(cell.seed_for_trial(1), cfg.seed_for(100 + idx as u64, 1));
        }
    }

    #[test]
    fn fault_free_sweeps_carry_no_faults_directive() {
        // An unset `--faults` must leave every builtin spec's directive
        // empty so pre-fault spec hashes (and stores keyed on them) stay
        // valid byte-for-byte.  E13 is the exception: faults are its point.
        let cfg = tiny();
        for name in BUILTIN_SWEEPS {
            let spec = builtin(name, &cfg).unwrap();
            if name == "e13" {
                assert_eq!(spec.faults, "byz:0.1");
            } else {
                assert!(spec.faults.is_empty(), "{name} must default fault-free");
            }
        }
    }

    #[test]
    fn faults_flag_threads_into_builtin_sweeps() {
        let cfg = ExperimentConfig {
            faults: Some("crash:0.05@20".parse().unwrap()),
            ..tiny()
        };
        assert_eq!(e01_sweep(&cfg).faults, "crash:0.05@20");
        // E13 keeps the axis but swaps the base kind.
        assert_eq!(e13_sweep(&cfg).faults, "crash:0.05@20");
    }

    #[test]
    fn e13_sweep_crosses_epsilon_with_fault_fractions() {
        let cfg = tiny();
        let spec = e13_sweep(&cfg);
        assert_eq!(spec.point_base, 3_000);
        assert_eq!(spec.rounds, 120);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), E13_EPSILONS.len() * E13_FAULT_FRACTIONS.len());
        // Row-major: epsilon outer, fault fraction inner.
        assert_eq!(cells[0].epsilon(), E13_EPSILONS[0]);
        assert_eq!(cells[0].param_or("fault_fraction", -1.0), 0.0);
        assert_eq!(cells[1].param_or("fault_fraction", -1.0), 0.05);
        let last = cells.last().unwrap();
        assert_eq!(last.epsilon(), E13_EPSILONS[1]);
        assert_eq!(last.param_or("fault_fraction", -1.0), 0.3);
        for cell in &cells {
            assert_eq!(cell.faults, "byz:0.1");
        }
    }

    #[test]
    fn sweep_families_partition_the_builtin_list() {
        let grouped: Vec<&str> = SWEEP_FAMILIES
            .iter()
            .flat_map(|(_, names)| names.iter().copied())
            .collect();
        assert_eq!(
            grouped,
            BUILTIN_SWEEPS.to_vec(),
            "families must cover every builtin sweep, in order, exactly once"
        );
    }

    #[test]
    fn report_spec_composes_the_report_members() {
        let cfg = tiny();
        let spec = report_spec(&cfg);
        assert_eq!(spec.name, REPORT_SPEC_NAME);
        let names: Vec<&str> = spec.members.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, crate::report::REPORT_MEMBERS.to_vec());
        for member in &spec.members {
            assert_eq!(
                Some(member),
                builtin(&member.name, &cfg).as_ref(),
                "composed member `{}` must equal its standalone builtin",
                member.name
            );
        }
        // The hash is content-addressed: a config change moves it.
        let full = report_spec(&ExperimentConfig::full());
        assert_ne!(spec.hash_hex(), full.hash_hex());
    }

    #[test]
    fn require_builtin_names_the_unknown_sweep_and_never_suggests_the_report() {
        let cfg = tiny();
        assert_eq!(require_builtin("e13", &cfg).unwrap(), e13_sweep(&cfg));
        let err = require_builtin("e08-dens", &cfg).unwrap_err().to_string();
        assert!(err.contains("`e08-dens`") && err.contains("did you mean `e08-dense`"));
        // The composed report is not a builtin sweep, so it is no suggestion.
        let err = require_builtin("repor", &cfg).unwrap_err().to_string();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn nearest_builtin_suggests_plausible_typos_only() {
        assert_eq!(nearest_builtin("e0"), Some("e01"));
        assert_eq!(nearest_builtin("e08-dens"), Some("e08-dense"));
        assert_eq!(nearest_builtin("repor"), Some("report"));
        assert_eq!(nearest_builtin("a2"), Some("a2"));
        assert_eq!(nearest_builtin("ablations"), None);
        assert_eq!(nearest_builtin("/nonexistent/spec.json"), None);
        assert_eq!(nearest_builtin(""), None);
    }
}
