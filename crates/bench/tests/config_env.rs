//! Strict environment-variable configuration parsing
//! ([`ExperimentConfig::try_from_env`] and
//! [`SupervisorConfig::from_env`]): malformed experiment and sharding
//! knobs are typed [`ShardsupError::Config`] errors that carry the
//! offending string — never a silent default, a silent clamp or an
//! unrelated panic. All scenarios mutate the process environment, so they
//! run serialized in one test body.

use fastmon_bench::ExperimentConfig;
use fastmon_core::{ShardsupError, SupervisorConfig, MAX_SHARDS};

const KNOBS: &[&str] = &[
    "FASTMON_TARGET_GATES",
    "FASTMON_MAX_FAULTS",
    "FASTMON_CIRCUITS",
    "FASTMON_SEED",
    "FASTMON_ILP_SECS",
    "FASTMON_FRESH",
    "FASTMON_SHARDS",
    "FASTMON_SHARD_JOBS",
    "FASTMON_SHARD_PROCS",
    "FASTMON_SHARD_RSS_BYTES",
];

fn clear() {
    for key in KNOBS {
        std::env::remove_var(key);
    }
}

fn expect_config_err<T: std::fmt::Debug>(result: Result<T, ShardsupError>, key: &str, value: &str) {
    let err = match result {
        Err(err @ ShardsupError::Config { .. }) => err,
        other => panic!("{key}={value}: expected Config error, got {other:?}"),
    };
    if let ShardsupError::Config {
        key: k, value: v, ..
    } = &err
    {
        assert_eq!(k, key);
        assert_eq!(v, value, "error must carry the offending string");
    }
    // The rendered message surfaces both for the operator too.
    let rendered = err.to_string();
    assert!(rendered.contains(key), "{rendered:?} lacks {key:?}");
    assert!(rendered.contains(value), "{rendered:?} lacks {value:?}");
}

#[test]
fn malformed_knobs_are_typed_errors_with_the_offending_string() {
    clear();

    // Baseline: an empty environment parses to the defaults.
    let config = ExperimentConfig::try_from_env().unwrap();
    assert_eq!(config.shards, 1);
    assert!(!config.shard_procs);
    assert_eq!(config.seed, 1);
    assert!(config.circuits.is_empty());

    // The experiment knobs: a value that does not parse is an error, not
    // the default (FASTMON_SEED=0x10 must not quietly run seed 1).
    for (key, bad) in [
        ("FASTMON_TARGET_GATES", "4k"),
        ("FASTMON_MAX_FAULTS", "-1"),
        ("FASTMON_SEED", "0x10"),
        ("FASTMON_ILP_SECS", "2.5"),
    ] {
        std::env::set_var(key, bad);
        expect_config_err(ExperimentConfig::try_from_env(), key, bad);
        std::env::remove_var(key);
    }
    std::env::set_var("FASTMON_SEED", "16");
    std::env::set_var("FASTMON_ILP_SECS", "3");
    let config = ExperimentConfig::try_from_env().unwrap();
    assert_eq!(config.seed, 16);
    assert_eq!(config.ilp_deadline.as_secs(), 3);
    std::env::remove_var("FASTMON_SEED");
    std::env::remove_var("FASTMON_ILP_SECS");

    // A circuit name outside the paper suite is rejected, not filtered
    // down to an empty run.
    std::env::set_var("FASTMON_CIRCUITS", "s9234,s9324");
    expect_config_err(
        ExperimentConfig::try_from_env(),
        "FASTMON_CIRCUITS",
        "s9324",
    );
    std::env::set_var("FASTMON_CIRCUITS", "s9234, p89k");
    assert_eq!(ExperimentConfig::try_from_env().unwrap().suite().len(), 2);
    std::env::remove_var("FASTMON_CIRCUITS");

    // FASTMON_SHARDS: zero, junk, and an over-cap count all reject.
    let over = (MAX_SHARDS + 1).to_string();
    for bad in ["0", "three", "-2", "1.5", &over] {
        std::env::set_var("FASTMON_SHARDS", bad);
        expect_config_err(ExperimentConfig::try_from_env(), "FASTMON_SHARDS", bad);
        std::env::remove_var("FASTMON_SHARDS");
    }
    // Shards are worker processes: more than one without
    // FASTMON_SHARD_PROCS=1 is rejected, and the binaries exit 2 on it.
    std::env::set_var("FASTMON_SHARDS", "4");
    expect_config_err(ExperimentConfig::try_from_env(), "FASTMON_SHARDS", "4");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .output()
        .expect("table1 launches");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("FASTMON_SHARDS=\"4\""), "{stderr:?}");
    std::env::set_var("FASTMON_SHARD_PROCS", "1");
    assert_eq!(ExperimentConfig::try_from_env().unwrap().shards, 4);
    std::env::set_var("FASTMON_SHARDS", MAX_SHARDS.to_string());
    assert_eq!(ExperimentConfig::try_from_env().unwrap().shards, MAX_SHARDS);
    std::env::remove_var("FASTMON_SHARDS");
    std::env::remove_var("FASTMON_SHARD_PROCS");

    // FASTMON_SHARD_JOBS is validated at config time so a typo fails
    // before ATPG, not when the supervisor first reads it.
    for bad in ["0", "zero", "0x4"] {
        std::env::set_var("FASTMON_SHARD_JOBS", bad);
        expect_config_err(ExperimentConfig::try_from_env(), "FASTMON_SHARD_JOBS", bad);
        expect_config_err(SupervisorConfig::from_env(2), "FASTMON_SHARD_JOBS", bad);
        std::env::remove_var("FASTMON_SHARD_JOBS");
    }
    std::env::set_var("FASTMON_SHARD_JOBS", "2");
    assert_eq!(SupervisorConfig::from_env(8).unwrap().jobs, 2);
    std::env::remove_var("FASTMON_SHARD_JOBS");

    // FASTMON_SHARD_PROCS and FASTMON_FRESH are strict booleans:
    // 0/1/unset only (FASTMON_FRESH=true used to keep and resume old
    // checkpoints).
    for key in ["FASTMON_SHARD_PROCS", "FASTMON_FRESH"] {
        for bad in ["yes", "true", "2", "on"] {
            std::env::set_var(key, bad);
            expect_config_err(ExperimentConfig::try_from_env(), key, bad);
            std::env::remove_var(key);
        }
        for good in ["0", "1"] {
            std::env::set_var(key, good);
            ExperimentConfig::try_from_env().unwrap();
            std::env::remove_var(key);
        }
    }
    std::env::set_var("FASTMON_SHARD_PROCS", "1");
    assert!(ExperimentConfig::try_from_env().unwrap().shard_procs);
    std::env::remove_var("FASTMON_SHARD_PROCS");

    // The RSS ceiling follows the same contract, and is checked at
    // config time too, not after ATPG.
    for bad in ["1GB", "0", "-1"] {
        std::env::set_var("FASTMON_SHARD_RSS_BYTES", bad);
        expect_config_err(
            ExperimentConfig::try_from_env(),
            "FASTMON_SHARD_RSS_BYTES",
            bad,
        );
        expect_config_err(
            SupervisorConfig::from_env(2),
            "FASTMON_SHARD_RSS_BYTES",
            bad,
        );
        std::env::remove_var("FASTMON_SHARD_RSS_BYTES");
    }
    std::env::set_var("FASTMON_SHARD_RSS_BYTES", "1073741824");
    assert_eq!(
        SupervisorConfig::from_env(2).unwrap().rss_limit_bytes,
        Some(1 << 30)
    );
    std::env::remove_var("FASTMON_SHARD_RSS_BYTES");

    clear();
}
