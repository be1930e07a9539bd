//! The gate binaries reject arguments they do not know: a typo or a
//! stale flag must fail loudly (exit 2 with a usage line) instead of
//! silently running the default gate and exiting 0.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?} prints no usage line: {stderr}");
}

#[test]
fn stepper_check_rejects_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_stepper_check");
    assert_rejected(bin, &["--fast-path"]);
    assert_rejected(bin, &["--bogus"]);
}

#[test]
fn serve_check_rejects_unknown_flags() {
    assert_rejected(env!("CARGO_BIN_EXE_serve_check"), &["--bogus"]);
}
