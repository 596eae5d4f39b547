//! End-to-end smoke tests of the `hi-opt` CLI binary.

use std::process::Command;

fn hi_opt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hi-opt"))
}

#[test]
fn space_prints_the_design_space() {
    let out = hi_opt().arg("space").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("feasible placements  : 110"));
    assert!(text.contains("feasible points      : 1320"));
    assert!(text.contains("12288"));
}

#[test]
fn help_exits_zero() {
    let out = hi_opt().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = hi_opt().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn simulate_runs_an_explicit_config() {
    let out = hi_opt()
        .args([
            "simulate",
            "--sites",
            "0,1,3,5",
            "--power",
            "0",
            "--mac",
            "tdma",
            "--routing",
            "star",
            "--tsim",
            "5",
            "--runs",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PDR"));
    assert!(text.contains("lifetime"));
    assert!(text.contains("Star TDMA 0dBm"));
}

#[test]
fn simulate_rejects_star_without_chest() {
    let out = hi_opt()
        .args([
            "simulate",
            "--sites",
            "1,3,5",
            "--power",
            "0",
            "--mac",
            "tdma",
            "--routing",
            "star",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("chest"));
}

#[test]
fn explore_finds_an_optimum_quickly() {
    let out = hi_opt()
        .args(["explore", "--pdr-min", "0.6", "--tsim", "5", "--runs", "1"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimal design"));
    assert!(text.contains("simulations"));
}

#[test]
fn lint_runs_clean_on_paper_scenario() {
    let out = hi_opt().arg("lint").output().expect("binary runs");
    assert!(
        out.status.success(),
        "lint must find zero error-severity issues; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("configuration space"));
    assert!(text.contains("cut ladder"));
    assert!(text.contains("event schedule sample"));
    assert!(text.contains("summary: 0 error(s)"), "{text}");
}

#[test]
fn lint_rejects_unknown_options() {
    let out = hi_opt()
        .args(["lint", "--frobnicate", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn explore_validates_pdr_min() {
    let out = hi_opt()
        .args(["explore", "--pdr-min", "1.7"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn robust_without_faults_is_a_usage_error() {
    let out = hi_opt()
        .args(["explore", "--pdr-min", "0.6", "--robust", "worst"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults"));
}

#[test]
fn missing_fault_suite_is_an_io_error() {
    let out = hi_opt()
        .args([
            "explore",
            "--pdr-min",
            "0.6",
            "--faults",
            "/definitely/not/here.suite",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "unreadable files exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn malformed_fault_suite_is_a_spec_error_with_line_numbers() {
    let dir = std::env::temp_dir();
    let path = dir.join("hi_opt_smoke_bad.suite");
    std::fs::write(&path, "scenario bad\noutage 5 nine 2\n").expect("tmp write");
    let out = hi_opt()
        .args(["explore", "--pdr-min", "0.6"])
        .arg("--faults")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "malformed specs exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains(":2:"));
}

#[test]
fn inverted_fault_window_fails_suite_lint() {
    let dir = std::env::temp_dir();
    let path = dir.join("hi_opt_smoke_inverted.suite");
    std::fs::write(&path, "scenario inverted\noutage 5 9 2\n").expect("tmp write");
    let out = hi_opt()
        .args(["explore", "--pdr-min", "0.6", "--tsim", "5", "--runs", "1"])
        .arg("--faults")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("HL033"));
}

#[test]
fn robust_explore_reports_the_fault_scorecard() {
    let dir = std::env::temp_dir();
    let path = dir.join("hi_opt_smoke_ok.suite");
    std::fs::write(&path, "scenario wrist nap\noutage 5 1 3\n").expect("tmp write");
    let out = hi_opt()
        .args(["explore", "--pdr-min", "0.5", "--tsim", "2", "--runs", "1"])
        .arg("--faults")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fault suite    : 1 scenario(s), worst-case aggregation"));
    assert!(text.contains("nominal PDR"));
    assert!(text.contains("worst PDR"));
}

#[test]
fn corrupt_checkpoint_is_a_spec_error() {
    let dir = std::env::temp_dir();
    let path = dir.join("hi_opt_smoke_corrupt.ckpt");
    std::fs::write(&path, "not a checkpoint\n").expect("tmp write");
    let out = hi_opt()
        .args(["explore", "--pdr-min", "0.6", "--resume"])
        .arg("--checkpoint")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn budget_checkpoint_resume_matches_a_straight_run() {
    let dir = std::env::temp_dir();
    let path = dir.join("hi_opt_smoke_resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let common = ["--pdr-min", "0.6", "--tsim", "2", "--runs", "1"];
    let straight = hi_opt()
        .arg("explore")
        .args(common)
        .output()
        .expect("binary runs");
    assert!(straight.status.success());
    let partial = hi_opt()
        .arg("explore")
        .args(common)
        .args(["--budget", "10"])
        .arg("--checkpoint")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(partial.status.success());
    assert!(String::from_utf8_lossy(&partial.stdout).contains("BudgetExhausted"));
    let resumed = hi_opt()
        .arg("explore")
        .args(common)
        .arg("--resume")
        .arg("--checkpoint")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&straight.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "a resumed run must print byte-identical stdout"
    );
}

#[test]
fn a_torn_tradeoff_archive_is_a_miss_not_the_front() {
    let dir = std::env::temp_dir().join(format!("hi_opt_smoke_archive_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tradeoff = || {
        hi_opt()
            .args([
                "tradeoff", "--floors", "60,90", "--tsim", "2", "--runs", "1",
            ])
            .arg("--archive")
            .arg(&dir)
            .output()
            .expect("binary runs")
    };
    let cold = tradeoff();
    assert!(cold.status.success());
    let cold_text = String::from_utf8_lossy(&cold.stdout).into_owned();
    assert!(
        !cold_text.contains("total unique simulations: 0\n"),
        "{cold_text}"
    );

    // Cut the front file mid-entry, as a crash during its write would.
    let seg = std::fs::read_dir(&dir)
        .expect("archive dir exists")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("the cold run wrote a front segment");
    let bytes = std::fs::read(&seg).expect("segment reads");
    std::fs::write(&seg, &bytes[..bytes.len() - 20]).expect("tmp write");
    let rerun = tradeoff();
    assert!(rerun.status.success());
    assert!(String::from_utf8_lossy(&rerun.stderr).contains("torn archive"));
    // The miss re-runs the sweep: stdout is the cold run's, byte for byte.
    assert_eq!(String::from_utf8_lossy(&rerun.stdout), cold_text);
    // ...and the file is whole again, so the next run answers warm.
    assert_eq!(std::fs::read(&seg).expect("segment reads"), bytes);

    // Bit rot is not a miss: it stays a spec error.
    let mut rotted = bytes.clone();
    let at = rotted.len() - 10;
    rotted[at] ^= 0x01;
    std::fs::write(&seg, &rotted).expect("tmp write");
    assert_eq!(tradeoff().status.code(), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_miskeyed_tradeoff_archive_is_a_miss_not_the_front() {
    let dir = std::env::temp_dir().join(format!("hi_opt_smoke_miskey_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tradeoff = |seed: &str| {
        hi_opt()
            .args([
                "tradeoff", "--floors", "60,90", "--tsim", "2", "--runs", "1", "--seed", seed,
            ])
            .arg("--archive")
            .arg(&dir)
            .output()
            .expect("binary runs")
    };
    let segments = || -> Vec<std::path::PathBuf> {
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("archive dir exists")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        paths.sort();
        paths
    };
    let key_of = |path: &std::path::Path| {
        let name = path.file_stem().unwrap().to_str().unwrap();
        name.strip_prefix("front-").unwrap().to_string()
    };
    // Two physics (the seed is part of the key), each with its own file.
    assert!(tradeoff("1").status.success());
    let [one] = &segments()[..] else {
        panic!("one front segment after the first run")
    };
    let one = one.clone();
    let cold = tradeoff("2");
    assert!(cold.status.success());
    let cold_text = String::from_utf8_lossy(&cold.stdout).into_owned();
    let two = segments()
        .into_iter()
        .find(|p| *p != one)
        .expect("the second physics wrote its own segment");
    let two_bytes = std::fs::read(&two).expect("segment reads");
    assert_ne!(std::fs::read(&one).expect("segment reads"), two_bytes);

    // Copy the first physics' front over the second's file.
    std::fs::copy(&one, &two).expect("copy");
    let rerun = tradeoff("2");
    assert!(rerun.status.success());
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert!(
        stderr.contains(&format!(
            "key line says {} but this physics is {}",
            key_of(&one),
            key_of(&two)
        )),
        "{stderr}"
    );
    // The miss re-runs the sweep: stdout is the cold run's, byte for byte,
    // and the file holds this physics' front again.
    assert_eq!(String::from_utf8_lossy(&rerun.stdout), cold_text);
    assert_eq!(std::fs::read(&two).expect("segment reads"), two_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
