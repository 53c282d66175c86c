//! The benchmark's three workloads.
//!
//! Each workload has two forms.  The *plain* form drives the program's own
//! entry points the way a user does (`ReportRunner` as `full_report` runs
//! it, `SweepRunner` as `sweep run`/`sweep resume` run it, then the export
//! functions as `sweep export` calls them); it gives the end-to-end
//! numbers.  The *traced* form walks the same layers one public call at a
//! time, with a span around each call and the engines' `TelemetryHub`
//! attached; it gives the per-layer numbers.  Both forms produce the same
//! outputs, which the caller checks by digest.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use breathe::{BroadcastProtocol, Multipliers, Params};
use experiments::report::{Report, REPORT_MEMBERS, REPORT_PREAMBLE, REPORT_TITLE};
use experiments::{specs, ExperimentConfig};
use flip_model::{Backend, Opinion};
use sweeps::{
    export_csv, export_json, ordered_cells, parse_export_json, Axis, CellRecord, ProtocolRegistry,
    ReportRunner, ReportSpec, ScenarioSpec, SweepError, SweepRunner, SweepSpec, SweepStore,
    TelemetryHub, TrialContext, TrialRunner,
};
use telemetry::{Event, Phase};

use crate::trace::{process_usage, Tracer};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReportQuick,
    BroadcastLarge,
    SweepStore,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "report-quick" => Some(Self::ReportQuick),
            "broadcast-large" => Some(Self::BroadcastLarge),
            "sweep-store" => Some(Self::SweepStore),
            _ => None,
        }
    }
}

/// `Full` is the benchmark's size; `Smoke` a reduced size for the harness
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one run of a workload measured and produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<(&'static str, String)>,
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Self milliseconds per span name (traced runs only).
    pub self_ms: BTreeMap<String, f64>,
    /// Every span, one JSON object per line (traced runs only).
    pub spans_jsonl: String,
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a> {
    pub scale: Scale,
    pub seed: u64,
    pub traced: bool,
    /// Also parse the JSON export back (sweep-store); costs time and memory
    /// after the measured window, so callers ask for it once per batch.
    pub verify: bool,
    /// Stop the plain run when the first trial begins and report only
    /// `setup_s`: a cheap extra set-up sample through the same code path.
    pub setup_only: bool,
    /// Scratch directory for stores and exports.
    pub dir: &'a Path,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `workload` once.
///
/// # Errors
///
/// Returns the first error of the program under test, or an I/O error on
/// the scratch directory.
pub fn run(workload: Workload, opts: &RunOptions) -> Res<Measured> {
    match (workload, opts.traced) {
        (Workload::ReportQuick, false) => report_plain(opts),
        (Workload::ReportQuick, true) => report_traced(opts),
        (Workload::BroadcastLarge, false) => broadcast_plain(opts),
        (Workload::BroadcastLarge, true) => broadcast_traced(opts),
        (Workload::SweepStore, false) => store_plain(opts),
        (Workload::SweepStore, true) => store_traced(opts),
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Members of the reduced composed report used by the smoke scale.
const SMOKE_MEMBERS: [&str; 2] = ["e07a", "e11"];

/// The composed quick report at one trial per cell: `full_report --trials 1
/// --threads 1 --seed <seed>`.
fn report_spec(scale: Scale, seed: u64) -> Res<ReportSpec> {
    let cfg = ExperimentConfig {
        trials: 1,
        base_seed: seed,
        threads: Some(1),
        ..ExperimentConfig::quick()
    };
    match scale {
        Scale::Full => Ok(specs::report_spec(&cfg)),
        Scale::Smoke => ReportSpec::new(
            specs::REPORT_SPEC_NAME,
            SMOKE_MEMBERS
                .iter()
                .map(|name| specs::builtin(name, &cfg).expect("smoke members are builtin sweeps"))
                .collect(),
        )
        .map_err(err),
    }
}

/// One `broadcast` cell at `n = 2^17` (the radix routing threshold) and
/// `ε = 0.4`, one trial.
fn broadcast_spec(scale: Scale, seed: u64) -> SweepSpec {
    let n = match scale {
        Scale::Full => flip_model::RADIX_MIN_N,
        Scale::Smoke => 1 << 12,
    };
    SweepSpec {
        name: "broadcast-large".into(),
        protocol: "broadcast".into(),
        backend: Backend::Agents,
        trials: 1,
        base_seed: seed,
        point_base: 0,
        rounds: 0,
        faults: String::new(),
        defaults: BTreeMap::from([("n".to_string(), n as f64), ("epsilon".to_string(), 0.4)]),
        axes: Vec::new(),
    }
}

/// `rumor` on the dense counts engine over an `n × ε × informed` grid, five
/// trials per cell, and the cell budget of the first (cut) run.
fn store_spec(scale: Scale, seed: u64) -> (SweepSpec, usize) {
    let (ns, epsilons, informed) = match scale {
        Scale::Full => (100, 20, 5),
        Scale::Smoke => (10, 4, 2),
    };
    let axis = |key: &str, values: Vec<f64>| Axis {
        key: key.into(),
        values,
    };
    let spec = SweepSpec {
        name: "sweep-store".into(),
        protocol: "rumor".into(),
        backend: Backend::Dense,
        trials: 5,
        base_seed: seed,
        point_base: 0,
        rounds: 200,
        faults: String::new(),
        defaults: BTreeMap::new(),
        axes: vec![
            axis("n", (1..=ns).map(|i| f64::from(i * 1000)).collect()),
            axis(
                "epsilon",
                (1..=epsilons).map(|i| f64::from(i) / 40.0).collect(),
            ),
            axis(
                "informed",
                (0..informed).map(|i| f64::from(1u32 << i)).collect(),
            ),
        ],
    };
    let cut = spec.grid_len() / 2;
    (spec, cut)
}

// ---------------------------------------------------------------------------
// Plain runs: the program's own entry points
// ---------------------------------------------------------------------------

/// The instant (and process CPU time) the first trial began.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_s: f64,
}

impl Mark {
    fn now() -> Self {
        Self {
            at: Instant::now(),
            cpu_s: process_usage().0,
        }
    }
}

/// The builtin registry behind a pass-through layer that records when the
/// first trial starts, which is where set-up ends and the run begins.  With
/// `stop` the first trial fails instead of running, which ends the runner's
/// work right there.
fn marked_registry(mark: &Arc<OnceLock<Mark>>, stop: bool) -> ProtocolRegistry {
    let inner = Arc::new(ProtocolRegistry::builtin());
    let mut registry = ProtocolRegistry::new();
    for (id, backends) in inner.list() {
        let inner = Arc::clone(&inner);
        let mark = Arc::clone(mark);
        registry.register_faulty(
            &id,
            &backends,
            Box::new(move |spec, trial, ctx| {
                mark.get_or_init(Mark::now);
                if stop {
                    return Err(SweepError::Simulation("set-up sample: stopped".into()));
                }
                inner.run_trial_with_context(spec, trial, ctx)
            }),
        );
    }
    registry
}

/// The measurement of a set-up-only run, whose runner stopped at the first
/// trial.
fn setup_sample(start: Instant, mark: &OnceLock<Mark>) -> Res<Measured> {
    let mark = mark.get().ok_or("no trial began")?;
    Ok(Measured {
        setup_s: mark.at.duration_since(start).as_secs_f64(),
        ..Measured::default()
    })
}

/// Fills the timing fields from the start instant, the first-trial mark
/// and the end of the run.
fn timed(
    start: Instant,
    mark: Option<Mark>,
    end: Instant,
    cpu_end: f64,
    rss: f64,
) -> Res<Measured> {
    let mark = mark.ok_or("no trial ran")?;
    Ok(Measured {
        setup_s: mark.at.duration_since(start).as_secs_f64(),
        run_s: end.duration_since(mark.at).as_secs_f64(),
        cpu_s: cpu_end - mark.cpu_s,
        peak_rss_mb: rss,
        ..Measured::default()
    })
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}-{}", sweeps::spec::fnv1a(bytes), bytes.len())
}

/// The composed report's markdown, exactly as `full_report` renders it.
fn render_report(spec: &ReportSpec, members: &[Vec<CellRecord>]) -> Res<String> {
    let mut report = Report::new(REPORT_TITLE).with_preamble(REPORT_PREAMBLE);
    for (member, cells) in spec.members.iter().zip(members) {
        let grid = member.expand().map_err(err)?;
        let pairs: specs::CellPairs = grid.into_iter().zip(cells.iter().cloned()).collect();
        report.push(specs::render(&member.name, &pairs));
    }
    Ok(report.to_markdown())
}

fn report_plain(opts: &RunOptions) -> Res<Measured> {
    let start = Instant::now();
    let mark = Arc::new(OnceLock::new());
    let registry = marked_registry(&mark, opts.setup_only);
    let spec = report_spec(opts.scale, opts.seed)?;
    let outcome = ReportRunner::new()
        .with_threads(1)
        .run(&spec, &registry, None);
    if opts.setup_only {
        return setup_sample(start, &mark);
    }
    let outcome = outcome.map_err(err)?;
    let members: Vec<Vec<CellRecord>> = outcome
        .members
        .into_iter()
        .map(|m| m.outcome.cells)
        .collect();
    let markdown = render_report(&spec, &members)?;
    let end = Instant::now();
    let (cpu_end, rss) = process_usage();

    let mut m = timed(start, mark.get().copied(), end, cpu_end, rss)?;
    report_outputs(&mut m, &spec, &members, &markdown)?;
    Ok(m)
}

fn report_outputs(
    m: &mut Measured,
    spec: &ReportSpec,
    members: &[Vec<CellRecord>],
    markdown: &str,
) -> Res<()> {
    let total = spec.total_cells().map_err(err)? as u64;
    let done: u64 = members.iter().map(|cells| cells.len() as u64).sum();
    m.attempted = total;
    m.failed = total - done;
    m.digests.push(("markdown", digest(markdown.as_bytes())));
    let tables = markdown.matches("\n### ").count();
    m.checks.push(("complete", done == total));
    m.checks
        .push(("one_table_per_member", tables >= spec.members.len()));
    Ok(())
}

fn broadcast_plain(opts: &RunOptions) -> Res<Measured> {
    let start = Instant::now();
    let mark = Arc::new(OnceLock::new());
    let registry = marked_registry(&mark, opts.setup_only);
    let spec = broadcast_spec(opts.scale, opts.seed);
    let outcome = SweepRunner::new()
        .with_threads(1)
        .run(&spec, &registry, None);
    if opts.setup_only {
        return setup_sample(start, &mark);
    }
    let outcome = outcome.map_err(err)?;
    let record = outcome
        .cells
        .into_iter()
        .next()
        .ok_or("the cell produced no record")?;
    let line = record.to_json_line();
    let end = Instant::now();
    let (cpu_end, rss) = process_usage();

    let mut m = timed(start, mark.get().copied(), end, cpu_end, rss)?;
    broadcast_outputs(&mut m, &record, &line);
    Ok(m)
}

fn broadcast_outputs(m: &mut Measured, record: &CellRecord, line: &str) {
    m.attempted = 1;
    m.digests.push(("record", digest(line.as_bytes())));
    let all_correct = record
        .metrics
        .get("all_correct")
        .is_some_and(|agg| agg.moments.count >= 1 && agg.moments.min == 1.0);
    m.checks.push(("all_correct", all_correct));
}

fn store_plain(opts: &RunOptions) -> Res<Measured> {
    let dir = opts.dir;
    let start = Instant::now();
    let mark = Arc::new(OnceLock::new());
    let registry = marked_registry(&mark, opts.setup_only);
    let (spec, cut) = store_spec(opts.scale, opts.seed);
    // `sweep run spec.json --out DIR --max-cells <cut> --threads 1`
    let store = SweepStore::create(dir, &spec).map_err(err)?;
    let first =
        SweepRunner::new()
            .with_threads(1)
            .with_max_cells(cut)
            .run(&spec, &registry, Some(&store));
    if opts.setup_only {
        return setup_sample(start, &mark);
    }
    let first = first.map_err(err)?;
    // `sweep resume DIR --threads 1`
    let (store, spec) = SweepStore::open(dir).map_err(err)?;
    SweepRunner::new()
        .with_threads(1)
        .run(&spec, &registry, Some(&store))
        .map_err(err)?;
    // `sweep export DIR --csv` and `--json`
    let records = store.load_cells().map_err(err)?;
    let (pairs, _) = ordered_cells(&spec, &records).map_err(err)?;
    let csv = export_csv(&pairs);
    fs::write(dir.join("export.csv"), &csv).map_err(err)?;
    let json = export_json(&spec, &pairs);
    fs::write(dir.join("export.json"), &json).map_err(err)?;
    let end = Instant::now();
    let (cpu_end, rss) = process_usage();

    let mut m = timed(start, mark.get().copied(), end, cpu_end, rss)?;
    m.checks
        .push(("cut_at_budget", first.executed == cut && !first.completed));
    store_outputs(&mut m, opts, &spec, &pairs, &csv, &json)?;
    Ok(m)
}

fn store_outputs(
    m: &mut Measured,
    opts: &RunOptions,
    spec: &SweepSpec,
    pairs: &[(ScenarioSpec, CellRecord)],
    csv: &str,
    json: &str,
) -> Res<()> {
    let total = spec.grid_len() as u64;
    m.attempted = total;
    m.failed = total - pairs.len() as u64;
    m.checks.push(("complete", pairs.len() as u64 == total));
    m.digests.push(("csv", digest(csv.as_bytes())));
    m.digests.push(("json", digest(json.as_bytes())));
    if opts.verify {
        let parsed = parse_export_json(json).map_err(err)?;
        m.checks
            .push(("json_round_trip", parsed.as_slice() == pairs));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced runs: one public call per span
// ---------------------------------------------------------------------------

/// Drives sweeps cell by cell through the layers' public functions — the
/// single-threaded equivalent of `SweepRunner::run` — recording spans.
struct LayerWalk {
    registry: ProtocolRegistry,
    hub: TelemetryHub,
    first_trial: Option<Mark>,
}

impl LayerWalk {
    fn new() -> Self {
        Self {
            registry: ProtocolRegistry::builtin(),
            hub: TelemetryHub::new(),
            first_trial: None,
        }
    }

    /// Runs `spec` against `store` (skipping persisted cells, executing at
    /// most `max_cells`) and returns the available records in grid order.
    fn sweep(
        &mut self,
        tr: &mut Tracer,
        spec: &SweepSpec,
        store: Option<&SweepStore>,
        max_cells: Option<usize>,
        member: Option<&str>,
    ) -> Res<Vec<CellRecord>> {
        let grid = tr.span("spec.expand", |_| spec.expand()).map_err(err)?;
        tr.add("spec.cells", grid.len() as f64);
        let registry = &self.registry;
        tr.span("registry.resolve", |_| {
            grid.iter()
                .try_for_each(|cell| registry.resolve(cell).map(drop))
        })
        .map_err(err)?;
        let persisted = match store {
            Some(store) => {
                tr.add("store.bytes_read", shard_bytes(store.dir()));
                tr.span("store.load", |_| store.load_cells()).map_err(err)?
            }
            None => BTreeMap::new(),
        };
        let hashes: Vec<String> = tr.span("spec.hash", |_| {
            grid.iter().map(ScenarioSpec::hash_hex).collect()
        });
        let pending: Vec<usize> = (0..grid.len())
            .filter(|&i| !persisted.contains_key(&hashes[i]))
            .take(max_cells.unwrap_or(usize::MAX))
            .collect();
        let mut shard = match store {
            Some(store) if !pending.is_empty() => tr
                .span("store.create", |_| store.open_shards(1))
                .map_err(err)?
                .pop(),
            _ => None,
        };
        let member_key = member.map(|name| format!("registry.trial_ms.{name}"));

        let mut fresh = BTreeMap::new();
        for index in pending {
            let cell = &grid[index];
            // `run_cell` sizes a `TrialRunner` per cell; with one thread its
            // `run` is a plain loop over the trials, done here in the open.
            let runner = tr.span("runner.new", |_| {
                TrialRunner::new(u64::from(cell.trials)).with_threads(1)
            });
            let mut trials = Vec::with_capacity(cell.trials as usize);
            for trial in 0..runner.trials() {
                if self.first_trial.is_none() {
                    self.first_trial = Some(Mark::now());
                }
                if cell.protocol == "broadcast" {
                    tr.span("population.build", |_| build_population(cell, trial))?;
                }
                let ctx = TrialContext::new(runner.round_threads()).with_hub(&self.hub);
                let metrics = tr
                    .span("registry.trial", |_| {
                        registry.run_trial_with_context(cell, trial, &ctx)
                    })
                    .map_err(err)?;
                if let Some(key) = &member_key {
                    tr.add(key.clone(), tr.last_ms());
                }
                tr.add("registry.trials", 1.0);
                tr.add("aggregate.observations", metrics.len() as f64);
                if let Some((_, sent)) = metrics.iter().find(|(name, _)| *name == "messages_sent") {
                    tr.add("engine.msgs", *sent);
                }
                trials.push(metrics);
            }
            let hash = hashes[index].clone();
            let record = tr.span("aggregate.fold", |_| {
                CellRecord::from_trials(hash, cell.point, &trials)
            });
            if let Some(writer) = shard.as_mut() {
                tr.span("store.append", |_| writer.append(&record))
                    .map_err(err)?;
                tr.add("store.appends", 1.0);
            }
            fresh.insert(index, record);
        }

        let mut cells = Vec::with_capacity(grid.len());
        for (index, hash) in hashes.iter().enumerate() {
            if let Some(record) = fresh.remove(&index) {
                cells.push(record);
            } else if let Some(record) = persisted.get(hash) {
                cells.push(record.clone());
            }
        }
        Ok(cells)
    }

    /// Closes a traced run: timing fields plus the per-layer metrics.
    fn finish(self, tr: &Tracer, start: Instant, end: Instant) -> Res<Measured> {
        let (cpu_end, rss) = process_usage();
        let mark = self.first_trial.ok_or("no trial ran")?;
        let mut m = timed(start, Some(mark), end, cpu_end, rss)?;
        let run_ms = m.run_s * 1e3;
        let unattributed_ms = tr.uncovered_ms(tr.offset_ns(mark.at), tr.offset_ns(end));

        let recorder = self.hub.take();
        let phase_ms = |phase: Phase| recorder.phases().get(phase).total_ns as f64 / 1e6;
        let engine_ms: f64 = Phase::ALL.iter().map(|&p| phase_ms(p)).sum();
        let trial_ms = tr.total_ms("registry.trial");

        let mut layers: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));
        put("spec.expand_ms", tr.total_ms("spec.expand"));
        put("spec.hash_ms", tr.total_ms("spec.hash"));
        put("spec.cells", tr.count("spec.cells"));
        put("registry.resolve_ms", tr.total_ms("registry.resolve"));
        put("runner.new_ms", tr.total_ms("runner.new"));
        put("registry.trial_ms", trial_ms);
        put("registry.trials", tr.count("registry.trials"));
        for member in REPORT_MEMBERS {
            let key = format!("registry.trial_ms.{member}");
            put(&key, tr.count(&key));
        }
        for phase in Phase::ALL {
            put(&format!("engine.{}_ms", phase.name()), phase_ms(phase));
        }
        put(
            "engine.rounds",
            recorder.phases().get(Phase::RngReserve).count as f64,
        );
        put("engine.msgs", tr.count("engine.msgs"));
        put(
            "engine.lemire_redraws",
            recorder.event(Event::LemireRedraws) as f64,
        );
        put(
            "engine.staging_spills",
            recorder.event(Event::RadixSpills) as f64,
        );
        put("engine.unphased_ms", trial_ms - engine_ms);
        put("population.build_ms", tr.total_ms("population.build"));
        put("aggregate.fold_ms", tr.total_ms("aggregate.fold"));
        put("aggregate.observations", tr.count("aggregate.observations"));
        put("store.create_ms", tr.total_ms("store.create"));
        put("store.append_ms", tr.total_ms("store.append"));
        put("store.appends", tr.count("store.appends"));
        put("store.bytes_written", tr.count("store.bytes_written"));
        put("store.load_ms", tr.total_ms("store.load"));
        put("store.bytes_read", tr.count("store.bytes_read"));
        put("export.order_ms", tr.total_ms("export.order"));
        put("export.csv_ms", tr.total_ms("export.csv"));
        put("export.json_ms", tr.total_ms("export.json"));
        put("export.bytes", tr.count("export.bytes"));
        put("render.ms", tr.total_ms("render"));
        put("render.bytes", tr.count("render.bytes"));
        put("unattributed_ms", unattributed_ms);
        put("unattributed_ratio", unattributed_ms / run_ms);
        m.layers = layers;
        // Engine phases run inside the trial spans: report them as the
        // trial's children so every layer's self time adds up to the run.
        m.self_ms = tr
            .self_ms()
            .into_iter()
            .map(|(name, ms)| (name.to_string(), ms))
            .collect();
        if let Some(trial_self) = m.self_ms.get_mut("registry.trial") {
            *trial_self -= engine_ms;
        }
        for phase in Phase::ALL {
            if recorder.phases().get(phase).count > 0 {
                m.self_ms
                    .insert(format!("engine.{}", phase.name()), phase_ms(phase));
            }
        }
        m.spans_jsonl = tr.spans_jsonl();
        Ok(m)
    }
}

/// The broadcast cell's protocol parameters — the registry's construction
/// for `broadcast` cells (practical multipliers, with any per-cell
/// overrides).
fn broadcast_params(cell: &ScenarioSpec) -> Res<Params> {
    let practical = Multipliers::practical();
    let multipliers = Multipliers {
        s_mult: cell.param_or("s_mult", practical.s_mult),
        beta_mult: cell.param_or("beta_mult", practical.beta_mult),
        f_mult: cell.param_or("f_mult", practical.f_mult),
        gamma_mult: cell.param_or("gamma_mult", practical.gamma_mult),
        extra_boost_phases: cell.param_or("extra_boost_phases", practical.extra_boost_phases as f64)
            as usize,
        final_mult: cell.param_or("final_mult", practical.final_mult),
    };
    let n = usize::try_from(cell.n()).map_err(err)?;
    Params::with_multipliers(n, cell.epsilon(), multipliers).map_err(err)
}

/// Builds (and drops) the population a `broadcast` trial starts from: a
/// probe that times population set-up on its own, since the trial itself
/// builds its population inside the registry call.
fn build_population(cell: &ScenarioSpec, trial: u64) -> Res<()> {
    let protocol = BroadcastProtocol::new(broadcast_params(cell)?, Opinion::One);
    let sim = protocol
        .build_simulation(cell.seed_for_trial(trial))
        .map_err(err)?;
    std::hint::black_box(sim);
    Ok(())
}

/// Total size of a store's result shards.
fn shard_bytes(dir: &Path) -> f64 {
    fs::read_dir(dir.join("shards"))
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .map(|meta| meta.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

fn report_traced(opts: &RunOptions) -> Res<Measured> {
    let start = Instant::now();
    let mut tr = Tracer::new();
    let mut walk = LayerWalk::new();
    let spec = report_spec(opts.scale, opts.seed)?;
    let mut members = Vec::with_capacity(spec.members.len());
    for member in &spec.members {
        members.push(walk.sweep(&mut tr, member, None, None, Some(&member.name))?);
    }
    let mut report = Report::new(REPORT_TITLE).with_preamble(REPORT_PREAMBLE);
    for (member, cells) in spec.members.iter().zip(&members) {
        let grid = tr.span("spec.expand", |_| member.expand()).map_err(err)?;
        let pairs: specs::CellPairs = grid.into_iter().zip(cells.iter().cloned()).collect();
        report.push(tr.span("render", |_| specs::render(&member.name, &pairs)));
    }
    let markdown = tr.span("render", |_| report.to_markdown());
    let end = Instant::now();
    tr.add("render.bytes", markdown.len() as f64);

    let mut m = walk.finish(&tr, start, end)?;
    report_outputs(&mut m, &spec, &members, &markdown)?;
    Ok(m)
}

fn broadcast_traced(opts: &RunOptions) -> Res<Measured> {
    let start = Instant::now();
    let mut tr = Tracer::new();
    let mut walk = LayerWalk::new();
    let spec = broadcast_spec(opts.scale, opts.seed);
    let cells = walk.sweep(&mut tr, &spec, None, None, None)?;
    let record = cells
        .into_iter()
        .next()
        .ok_or("the cell produced no record")?;
    let line = record.to_json_line();
    let end = Instant::now();

    let mut m = walk.finish(&tr, start, end)?;
    broadcast_outputs(&mut m, &record, &line);
    Ok(m)
}

fn store_traced(opts: &RunOptions) -> Res<Measured> {
    let dir = opts.dir;
    let start = Instant::now();
    let mut tr = Tracer::new();
    let mut walk = LayerWalk::new();
    let (spec, cut) = store_spec(opts.scale, opts.seed);
    let store = tr
        .span("store.create", |_| SweepStore::create(dir, &spec))
        .map_err(err)?;
    let first = walk.sweep(&mut tr, &spec, Some(&store), Some(cut), None)?;
    let (store, spec) = tr
        .span("store.create", |_| SweepStore::open(dir))
        .map_err(err)?;
    walk.sweep(&mut tr, &spec, Some(&store), None, None)?;
    tr.add("store.bytes_read", shard_bytes(dir));
    let records = tr.span("store.load", |_| store.load_cells()).map_err(err)?;
    let (pairs, _) = tr
        .span("export.order", |_| ordered_cells(&spec, &records))
        .map_err(err)?;
    let csv = tr.span("export.csv", |_| {
        let csv = export_csv(&pairs);
        fs::write(dir.join("export.csv"), &csv).map(|()| csv)
    });
    let csv = csv.map_err(err)?;
    let json = tr.span("export.json", |_| {
        let json = export_json(&spec, &pairs);
        fs::write(dir.join("export.json"), &json).map(|()| json)
    });
    let json = json.map_err(err)?;
    let end = Instant::now();
    tr.add("store.bytes_written", shard_bytes(dir));
    tr.add("export.bytes", (csv.len() + json.len()) as f64);

    let mut m = walk.finish(&tr, start, end)?;
    m.checks.push(("cut_at_budget", first.len() == cut));
    store_outputs(&mut m, opts, &spec, &pairs, &csv, &json)?;
    Ok(m)
}
