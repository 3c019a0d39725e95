//! End-to-end tests for `pba-run`'s flag parsing: every command reports
//! an unknown flag, a missing value and a bad number the same way, names
//! the flag, and exits nonzero before doing any work.

use std::process::{Command, Output};

fn pba_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pba-run"))
        .args(args)
        .output()
        .expect("spawn pba-run")
}

/// Run `args` and return its stderr, asserting the run failed.
fn fails(args: &[&str]) -> String {
    let out = pba_run(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{args:?} must fail:\n{stderr}");
    stderr
}

/// A socket path nothing listens on: the `serve` modes below must fail
/// while parsing, before they bind or connect.
fn unused_socket() -> String {
    let path = std::env::temp_dir().join(format!("pba-cli-flags-{}.sock", std::process::id()));
    path.to_str().expect("utf-8 temp path").to_owned()
}

#[test]
fn every_command_names_the_flag_it_rejects() {
    let sock = unused_socket();
    // (command words, a value flag, a numeric flag if the command has one)
    let commands: [(Vec<&str>, &str, Option<&str>); 12] = [
        (vec!["all"], "--out", None),
        (vec!["e07"], "--scale", None),
        (vec!["protocol", "collision"], "--trace", Some("--m")),
        (vec!["stream"], "--batch", Some("--n")),
        (vec!["serve", "--replay"], "--snapshot", Some("--queue")),
        (
            vec!["serve", "--listen", &sock],
            "--policy",
            Some("--shards"),
        ),
        (
            vec!["serve", "--send", &sock],
            "--workload",
            Some("--batches"),
        ),
        (
            vec!["cluster", "protocol", "collision"],
            "--connect",
            Some("--shards"),
        ),
        (vec!["cluster", "stream"], "--kill", Some("--seed")),
        (vec!["shard-worker"], "--listen", None),
        (vec!["bench"], "--tier", None),
        (vec!["verify"], "--faults", None),
    ];
    for (words, value_flag, numeric_flag) in commands {
        let with = |rest: &[&'static str]| [words.as_slice(), rest].concat();

        let stderr = fails(&with(&["--bogus"]));
        assert!(
            stderr.contains("unknown flag '--bogus' for "),
            "{words:?}: {stderr}"
        );

        let stderr = fails(&with(&[value_flag]));
        assert!(
            stderr.contains(&format!("{value_flag} needs")),
            "{words:?}: {stderr}"
        );

        if let Some(flag) = numeric_flag {
            let stderr = fails(&[with(&[]), vec![flag, "many"]].concat());
            assert!(
                stderr.contains(&format!("bad {flag} 'many'")),
                "{words:?}: {stderr}"
            );
        }
    }
}

#[test]
fn every_policy_flag_lists_the_choices() {
    let sock = unused_socket();
    let choices: Vec<&str> = pba_stream::PolicyKind::ALL
        .iter()
        .map(|k| k.name())
        .collect();
    let choices = choices.join(", ");
    let commands: [&[&str]; 5] = [
        &["stream"],
        &["serve", "--replay"],
        &["serve", "--listen", &sock],
        &["serve", "--send", &sock],
        &["cluster", "stream"],
    ];
    for words in commands {
        let stderr = fails(&[words, &["--policy", "nope"]].concat());
        assert!(
            stderr.contains("unknown policy 'nope'") && stderr.contains(&choices),
            "{words:?}: {stderr}"
        );
    }
}

#[test]
fn each_serve_mode_keeps_its_own_flags() {
    let sock = unused_socket();
    let stderr = fails(&["serve", "--listen", &sock, "--batch", "4"]);
    assert!(stderr.contains("unknown flag '--batch' for serve --listen"));
    let stderr = fails(&["serve", "--send", &sock, "--batches", "0"]);
    assert!(stderr.contains("--batches must be at least 1"), "{stderr}");
}

#[test]
fn removed_spellings_are_rejected() {
    let stderr = fails(&["bench", "--scale", "smoke"]);
    assert!(
        stderr.contains("unknown flag '--scale' for bench"),
        "{stderr}"
    );
    let stderr = fails(&["tune"]);
    assert!(stderr.contains("unknown experiment or command 'tune'"));
}

#[test]
fn cluster_protocol_checks_the_spec_before_the_shards() {
    let stderr = fails(&[
        "cluster",
        "protocol",
        "collision",
        "--n",
        "0",
        "--shards",
        "1",
    ]);
    assert!(
        stderr.contains("invalid problem spec: n must be positive"),
        "{stderr}"
    );
}

#[test]
fn bench_smoke_tier_writes_its_file() {
    let path = std::env::temp_dir().join(format!("pba-bench-smoke-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path").to_owned();
    let out = pba_run(&["bench", "--tier", "smoke", "--out", &path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("bench wrote its file");
    let _ = std::fs::remove_file(&path);
    assert!(
        doc.contains("\"tier\":\"smoke\"")
            && doc.contains("\"n\":256")
            && doc.contains("\"reps\":2"),
        "{doc}"
    );
}

/// `--batch Kn` is resolved against the bin count the run ends up with:
/// after `--restore`, the snapshot's, whatever `--n` says.
#[test]
fn batch_multiple_follows_the_restored_bin_count() {
    let snap = std::env::temp_dir().join(format!("pba-cli-flags-{}.snap", std::process::id()));
    let snap = snap.to_str().expect("utf-8 temp path").to_owned();
    let out = pba_run(&[
        "serve",
        "--replay",
        "--n",
        "64",
        "--batches",
        "2",
        "--snapshot",
        &snap,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pba_run(&[
        "serve",
        "--replay",
        "--restore",
        &snap,
        "--n",
        "1000",
        "--batch",
        "2n",
        "--batches",
        "1",
    ]);
    let _ = std::fs::remove_file(&snap);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("b = 2n (128 arrivals), n = 64"), "{stdout}");
}
