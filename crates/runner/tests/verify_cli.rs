//! End-to-end tests for `pba-run verify`: the conformance registry must
//! pass at CI scale on a healthy engine, and — the negative control — a
//! deliberately miswired (fault-injected) run must flip claims to
//! REFUTED and exit nonzero. A conformance suite that cannot fail
//! proves nothing.

use std::process::Command;

fn pba_run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pba-run"))
        .args(args)
        .output()
        .expect("spawn pba-run")
}

#[test]
fn verify_ci_scale_confirms_every_claim() {
    let out = pba_run(&["verify", "--scale", "ci"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "verify failed on a healthy engine:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let confirmed = stdout.matches("CONFIRMED").count();
    assert!(
        confirmed >= 10,
        "expected ≥ 10 CONFIRMED rows, saw {confirmed}:\n{stdout}"
    );
    assert!(
        !stdout.contains("REFUTED") || stdout.contains("0 REFUTED"),
        "unexpected refutation:\n{stdout}"
    );
    assert!(
        stdout.contains("95% CI ["),
        "verdict table must print confidence intervals:\n{stdout}"
    );
}

#[test]
fn verify_miswired_engine_refutes_and_exits_nonzero() {
    // Crash a fifth of the bins under the oracle: a fifth of the ECDF's
    // mass piles onto load 0, so the KS distance to Bin(m, 1/n) jumps to
    // ~0.2 — far past the DKW tolerance. (Scoped to the cheapest
    // refuting oracle; the full miswired registry refutes e03/e08/e10
    // too but grinds through exhausted round budgets.)
    let out = pba_run(&[
        "verify",
        "e01-ks",
        "--scale",
        "ci",
        "--faults",
        "crash=0.2,seed=3",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "verify must exit nonzero when the engine is miswired:\n{stdout}"
    );
    assert!(
        stdout.contains("REFUTED"),
        "expected REFUTED verdicts under deliberate faults:\n{stdout}"
    );
}

#[test]
fn verify_subset_runs_only_requested_claims() {
    let out = pba_run(&["verify", "e07-load"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "e07-load should confirm:\n{stdout}");
    assert!(stdout.contains("e07-load"));
    assert!(
        !stdout.contains("e01-ks"),
        "unrequested claims must not run:\n{stdout}"
    );
}

#[test]
fn verify_unknown_claim_gets_did_you_mean() {
    let out = pba_run(&["verify", "e7-load"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean 'e07-load'?"),
        "expected a did-you-mean suggestion:\n{stderr}"
    );
    assert!(
        stderr.contains("e01-ks"),
        "error should list the registered oracles:\n{stderr}"
    );
}

/// `--help` and `help` are requests, not mistakes: usage on stdout, exit 0.
#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "help"] {
        let out = pba_run(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{flag} exited nonzero:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.starts_with("usage:") && stdout.contains("pba-run verify"),
            "{flag}: expected the usage text on stdout:\n{stdout}"
        );
    }
}

/// The two family oracles are wired into the same did-you-mean path as
/// the originals: a near-miss id must suggest the registered spelling.
#[test]
fn verify_new_claims_get_did_you_mean() {
    for (typo, want) in [
        ("e24-kdload", "did you mean 'e24-kd-load'?"),
        ("e25-retrys", "did you mean 'e25-retries'?"),
    ] {
        let out = pba_run(&["verify", typo]);
        assert!(!out.status.success(), "{typo} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(want),
            "{typo}: expected \"{want}\" in:\n{stderr}"
        );
    }
}

/// Negative control for the (k,d)-choice oracle: crashing half the bins
/// drops the live capacity 0.5·n·(⌈k·m/n⌉ + window + 2) below the k·m
/// units the protocol must place, so every run exhausts its (tight)
/// round budget and the claim flips to REFUTED with a nonzero exit.
#[test]
fn verify_miswired_kd_oracle_refutes() {
    let out = pba_run(&[
        "verify",
        "e24-kd-load",
        "--scale",
        "ci",
        "--faults",
        "crash=0.5,seed=3",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "e24-kd-load must exit nonzero under 50% crashed bins:\n{stdout}"
    );
    assert!(stdout.contains("REFUTED"), "expected REFUTED:\n{stdout}");
}

/// Negative control for the estimated-average oracle: a 90% message-drop
/// plan stretches the retry loop far past the expected-constant bound
/// (mean retries ≈ 6 ≫ cap 3), refuting the claim in milliseconds.
/// (Crash plans are *not* used here on purpose — see the capacity
/// argument above — and milder drop rates sit inside the cap.)
#[test]
fn verify_miswired_retry_oracle_refutes() {
    let out = pba_run(&[
        "verify",
        "e25-retries",
        "--scale",
        "ci",
        "--faults",
        "drop=0.9,seed=3",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "e25-retries must exit nonzero under 90% drops:\n{stdout}"
    );
    assert!(stdout.contains("REFUTED"), "expected REFUTED:\n{stdout}");
}

#[test]
fn verify_json_is_well_formed_enough() {
    let out = pba_run(&["verify", "--json", "e03-gap"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for key in [
        "\"scale\":\"ci\"",
        "\"id\":\"e03-gap\"",
        "\"verdict\":\"CONFIRMED\"",
        "\"ci_lo\":",
        "\"ci_hi\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}
