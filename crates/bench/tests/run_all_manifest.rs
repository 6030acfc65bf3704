//! Driver-level graceful degradation: `run_all` must survive failing and
//! unlaunchable children, keep running the rest, write `RUN_MANIFEST.json`
//! naming every outcome, and exit nonzero only at the end.

use std::process::Command;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fastmon-runall-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn failing_child_is_recorded_and_campaign_continues() {
    let dir = scratch("fail");
    let manifest = dir.join("RUN_MANIFEST.json");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .env(
            "FASTMON_RUN_ALL_BINS",
            "/bin/true,/bin/false,/nonexistent/fastmon-child,/bin/true",
        )
        .env("FASTMON_MANIFEST", &manifest)
        .output()
        .expect("run_all launches");

    assert!(
        !output.status.success(),
        "run_all must exit nonzero when any child fails"
    );
    let json = std::fs::read_to_string(&manifest).expect("manifest written despite failures");
    assert!(json.contains("\"schema_version\": 1"));
    // both successes, the failure, and the launch failure are all named
    assert_eq!(json.matches("\"outcome\": \"success\"").count(), 2);
    assert!(json.contains("\"name\": \"/bin/false\""));
    assert!(json.contains("\"outcome\": \"failed\""));
    assert!(json.contains("\"exit_code\": 1"));
    assert!(json.contains("\"name\": \"/nonexistent/fastmon-child\""));
    assert!(json.contains("\"outcome\": \"launch-failed\""));
    // the driver kept going: the last child still ran (4 records total)
    assert_eq!(json.matches("\"name\":").count(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_green_campaign_exits_zero() {
    let dir = scratch("green");
    let manifest = dir.join("RUN_MANIFEST.json");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .env("FASTMON_RUN_ALL_BINS", "/bin/true,/bin/true")
        .env("FASTMON_MANIFEST", &manifest)
        .output()
        .expect("run_all launches");
    assert!(output.status.success());
    let json = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(json.matches("\"outcome\": \"success\"").count(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hung_child_is_timed_out() {
    let dir = scratch("hang");
    let manifest = dir.join("RUN_MANIFEST.json");
    // `run_all` resolves bare names next to its own binary first; a path
    // to `sleep` with no way to pass arguments would block forever, so we
    // use a tiny shell script instead.
    let script = dir.join("hang.sh");
    std::fs::write(&script, "#!/bin/sh\nexec sleep 30\n").unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt as _;
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .env("FASTMON_RUN_ALL_BINS", script.display().to_string())
        .env("FASTMON_RUN_ALL_TIMEOUT_SECS", "1")
        // the script ignores FASTMON_DEADLINE_SECS, so after the soft
        // deadline plus this grace period the driver must kill it
        .env("FASTMON_RUN_ALL_GRACE_SECS", "1")
        .env("FASTMON_MANIFEST", &manifest)
        .output()
        .expect("run_all launches");
    assert!(!output.status.success());
    let json = std::fs::read_to_string(&manifest).unwrap();
    assert!(json.contains("\"outcome\": \"timed-out\""));
    assert!(json.contains("\"timeout_secs\": 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cooperative_child_is_recorded_as_cancelled() {
    let dir = scratch("cancel");
    let manifest = dir.join("RUN_MANIFEST.json");
    // a well-behaved child: sees the soft deadline the driver exports and
    // exits with EXIT_CANCELLED (75) instead of hanging until the kill
    let script = dir.join("cancel.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\ntest -n \"$FASTMON_DEADLINE_SECS\" || exit 1\nexit 75\n",
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt as _;
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .env("FASTMON_RUN_ALL_BINS", script.display().to_string())
        .env("FASTMON_RUN_ALL_TIMEOUT_SECS", "7")
        .env("FASTMON_MANIFEST", &manifest)
        .output()
        .expect("run_all launches");
    assert!(
        !output.status.success(),
        "a cancelled child is not a success"
    );
    let json = std::fs::read_to_string(&manifest).unwrap();
    assert!(json.contains("\"outcome\": \"cancelled\""), "got {json}");
    assert!(json.contains("\"deadline_secs\": 7"), "got {json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_deadline_knobs_exit_2_before_any_child_runs() {
    let dir = scratch("badknob");
    let manifest = dir.join("RUN_MANIFEST.json");
    for (key, bad) in [
        ("FASTMON_RUN_ALL_TIMEOUT_SECS", "90s"),
        ("FASTMON_RUN_ALL_GRACE_SECS", "-1"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .env("FASTMON_RUN_ALL_BINS", "/bin/true")
            .env(key, bad)
            .env("FASTMON_MANIFEST", &manifest)
            .output()
            .expect("run_all launches");
        assert_eq!(output.status.code(), Some(2), "{key}={bad}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "one diagnostic line, got {stderr:?}");
        assert!(
            lines[0].contains(&format!("{key}=\"{bad}\": ")),
            "the diagnostic names the knob and its value: {stderr:?}"
        );
        assert!(!manifest.exists(), "no child may run on a malformed knob");
    }
    std::fs::remove_dir_all(&dir).ok();
}
