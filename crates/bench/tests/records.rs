//! The exact record gate runs in tier-1: `scale --quick` must match its
//! committed record (`results/records/scale-quick.txt`) and leave every
//! tracked file under `results/` as it was.

use std::path::Path;
use std::process::Command;

/// `git diff` of the tracked files under `results/`.
fn results_diff(root: &Path) -> Vec<u8> {
    let out = Command::new("git")
        .args(["diff", "--binary", "--", "results/"])
        .current_dir(root)
        .output()
        .expect("git runs");
    assert!(out.status.success(), "git diff failed: {out:?}");
    out.stdout
}

#[test]
fn scale_quick_matches_its_record_and_writes_nothing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let before = results_diff(&root);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scale"));
    cmd.arg("--quick").current_dir(&root);
    // A check, never a re-record, and free of any run knob of the caller.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CORD_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("scale runs");
    assert!(
        out.status.success(),
        "scale --quick failed its record check:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        results_diff(&root) == before,
        "scale --quick changed a tracked file under results/"
    );
}
