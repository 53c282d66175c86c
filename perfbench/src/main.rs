//! `perfbench` — runs one workload of the benchmark once, single-threaded,
//! and prints what it measured as one JSON line.
//!
//! ```text
//! perfbench --workload <report-quick|broadcast-large|sweep-store> --seed N
//!           --dir DIR [--trace | --setup-only] [--verify] [--smoke] [--spans FILE]
//! ```
//!
//! `perfbench/run.py` builds this binary, runs it repeatedly for the
//! requested time and reports medians; see `perfbench/README.md`.

mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use sweeps::json::Json;

use workloads::{RunOptions, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <report-quick|broadcast-large|sweep-store> \
                     --seed N --dir DIR [--trace | --setup-only] [--verify] [--smoke] [--spans FILE]";

struct Args {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    traced: bool,
    verify: bool,
    setup_only: bool,
    scale: Scale,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut args = Args {
        workload: Workload::ReportQuick,
        seed: 0,
        dir: PathBuf::new(),
        traced: false,
        verify: false,
        setup_only: false,
        scale: Scale::Full,
        spans: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let raw = value()?;
                seed = Some(raw.parse().map_err(|_| format!("invalid seed `{raw}`"))?);
            }
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--trace" => args.traced = true,
            "--verify" => args.verify = true,
            "--setup-only" => args.setup_only = true,
            "--smoke" => args.scale = Scale::Smoke,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    args.dir = dir.ok_or("--dir is required")?;
    if args.traced && args.setup_only {
        return Err("--setup-only samples the plain path; drop --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.dir.display());
        return ExitCode::FAILURE;
    }
    let opts = RunOptions {
        scale: args.scale,
        seed: args.seed,
        traced: args.traced,
        verify: args.verify,
        setup_only: args.setup_only,
        dir: &args.dir,
    };
    let measured = match workloads::run(args.workload, &opts) {
        Ok(measured) => measured,
        Err(message) => {
            eprintln!("perfbench: workload failed: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, &measured.spans_jsonl) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let num = |pairs: &[(String, f64)]| {
        Json::object(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), Json::Float(*v)))
                .collect(),
        )
    };
    let line = Json::object(vec![
        ("setup_s".into(), Json::Float(measured.setup_s)),
        ("run_s".into(), Json::Float(measured.run_s)),
        ("cpu_s".into(), Json::Float(measured.cpu_s)),
        ("peak_rss_mb".into(), Json::Float(measured.peak_rss_mb)),
        ("attempted".into(), Json::UInt(measured.attempted)),
        ("failed".into(), Json::UInt(measured.failed)),
        (
            "digests".into(),
            Json::object(
                measured
                    .digests
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "checks".into(),
            Json::object(
                measured
                    .checks
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Bool(*v)))
                    .collect(),
            ),
        ),
        ("layers".into(), num(&measured.layers)),
        (
            "self_ms".into(),
            num(&measured.self_ms.into_iter().collect::<Vec<_>>()),
        ),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}
