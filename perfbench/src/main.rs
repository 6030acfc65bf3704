//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the current directory (the repository root),
//! prints the run's identity record, then as the last line of standard
//! output one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. Scratch files live under `.perfbench-scratch/` and are removed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::report::{json_fp, json_str};
use perfbench::{RunOptions, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(Workload, RunOptions), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunOptions {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            size: Size::Full,
            scratch_root: PathBuf::from(".perfbench-scratch"),
            worker_bin: None,
        },
    ))
}

/// `git rev-parse HEAD` of the current directory, if it is a checkout.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a digest of every file under `dir` (sorted by path): identifies
/// the library source a run measured when no git revision is available.
fn tree_fingerprint(dir: &Path) -> Option<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files).ok()?;
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).ok()?);
    }
    Some(fastmon_core::fnv1a(&bytes))
}

fn main() -> ExitCode {
    // Shard workers re-execute this binary; route them first.
    fastmon_bench::shardsup::maybe_run_worker();

    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Knobs from the caller's environment (failpoints, deadlines, trace
    // modes, shard settings) would change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FASTMON_") {
            std::env::remove_var(key);
        }
    }
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }

    let mut outcome = perfbench::run(workload, &opts);
    let _ = std::fs::remove_dir(&opts.scratch_root);
    outcome.note(
        "git_rev",
        git_rev().map_or_else(|| "null".to_owned(), |r| json_str(&r)),
    );
    outcome.note(
        "source_fingerprint",
        tree_fingerprint(Path::new("crates")).map_or_else(|| "null".to_owned(), json_fp),
    );
    for why in &outcome.failures {
        eprintln!("perfbench: FAILED: {why}");
    }
    println!("perfbench record: {}", outcome.record_json());
    println!("{}", outcome.result_json(opts.trace));
    ExitCode::SUCCESS
}
